// Package fault is a deterministic fault-injection subsystem for the
// simulated testbed. A Schedule is a set of degradation windows in virtual
// time — slow disks, slow or lossy links, stalled or slowed data servers —
// and an Injector answers point queries against that schedule from the
// layers it degrades (disk wrapper, netsim, pfs servers).
//
// Determinism: every decision is a pure function of the schedule, the
// injector's seeded random source, and virtual time. The same schedule and
// seed yield byte-identical runs; an empty schedule schedules no events,
// draws no randomness, and leaves the simulation timeline byte-identical to
// a run without the fault layer. A nil *Injector is fully usable and
// reports "healthy" for every query, so call sites need no nil checks.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// Kind selects what a Window degrades.
type Kind int

const (
	// DiskSlow inflates the disk service time on one data server by Factor
	// (seek, rotation, and transfer alike — a dying or remapping drive).
	DiskSlow Kind = iota
	// LinkSlow inflates the serialization time of messages to or from one
	// network node by Factor (a congested or renegotiated-down link).
	LinkSlow
	// LinkDrop drops messages to or from one node with probability Prob;
	// a dropped message costs the sender a retransmit timeout.
	LinkDrop
	// ServerStall freezes one data server's request service for the whole
	// window (requests queue; none are served until the window ends).
	ServerStall
	// ServerSlow inflates one data server's per-request CPU cost by Factor.
	ServerSlow
	// ServerCrash is a crash-stop failure of one data server: for the whole
	// window the server answers nothing (requests sent to it vanish). A
	// window with an end models recovery — the server comes back with its
	// pre-crash durable state but without its in-flight request queue; a
	// window without an end is a permanent failure.
	ServerCrash
	// ClientCrash is a crash-stop failure of one compute client (Target is
	// an MPI rank index): the whole job aborts at the window start, losing
	// every checkpoint epoch not yet sealed in the host-side burst log.
	// There is no recovery window — restart is a recovery-phase action
	// (replay sealed-but-undrained log records, re-read the last committed
	// epoch), driven by the harness after the crashed run ends.
	ClientCrash
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case DiskSlow:
		return "disk"
	case LinkSlow:
		return "link"
	case LinkDrop:
		return "drop"
	case ServerStall:
		return "stall"
	case ServerSlow:
		return "slow"
	case ServerCrash:
		return "crash"
	case ClientCrash:
		return "client-crash"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Window is one degradation interval. Target is a data-server index for
// DiskSlow/ServerStall/ServerSlow and a network node id for
// LinkSlow/LinkDrop. End <= 0 means the window never closes.
type Window struct {
	Kind   Kind
	Target int
	Start  time.Duration
	End    time.Duration
	// Factor is the slowdown multiplier for DiskSlow/LinkSlow/ServerSlow
	// (must be >= 1; 1 is a no-op).
	Factor float64
	// Prob is the per-message drop probability for LinkDrop, in (0, 0.95].
	// The cap keeps every seeded run terminating quickly in practice; the
	// transport additionally bounds retransmits per message.
	Prob float64
}

// active reports whether the window covers virtual time now.
func (w Window) active(now time.Duration) bool {
	return now >= w.Start && (w.End <= 0 || now < w.End)
}

// Validate reports window errors.
func (w Window) Validate() error {
	switch {
	case w.Target < 0:
		return fmt.Errorf("fault: %v target %d", w.Kind, w.Target)
	case w.Start < 0:
		return fmt.Errorf("fault: %v start %v", w.Kind, w.Start)
	case w.End > 0 && w.End <= w.Start:
		return fmt.Errorf("fault: %v window [%v,%v]", w.Kind, w.Start, w.End)
	}
	switch w.Kind {
	case DiskSlow, LinkSlow, ServerSlow:
		if math.IsNaN(w.Factor) || math.IsInf(w.Factor, 0) {
			return fmt.Errorf("fault: %v factor %g is not finite", w.Kind, w.Factor)
		}
		if w.Factor < 1 {
			return fmt.Errorf("fault: %v factor %g < 1", w.Kind, w.Factor)
		}
	case LinkDrop:
		if math.IsNaN(w.Prob) || math.IsInf(w.Prob, 0) {
			return fmt.Errorf("fault: drop probability %g is not finite", w.Prob)
		}
		if w.Prob <= 0 || w.Prob > 0.95 {
			return fmt.Errorf("fault: drop probability %g outside (0,0.95]", w.Prob)
		}
	case ServerStall:
		if w.End <= 0 {
			return fmt.Errorf("fault: stall window must have an end")
		}
	case ServerCrash:
		// No factor or probability; an open window is a permanent failure.
	case ClientCrash:
		if w.End > 0 {
			return fmt.Errorf("fault: client crash takes no recovery window (restart is a recovery-phase action)")
		}
	default:
		return fmt.Errorf("fault: unknown kind %d", int(w.Kind))
	}
	return nil
}

// Schedule is a fault plan: zero or more windows, possibly overlapping.
// Overlapping slowdown factors multiply.
type Schedule struct {
	Windows []Window
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Windows) == 0 }

// Validate reports schedule errors.
func (s *Schedule) Validate() error {
	if s == nil {
		return nil
	}
	for _, w := range s.Windows {
		if err := w.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Injector answers fault queries against one schedule. It is bound to a
// kernel so window transitions appear as fault.begin/fault.end instants in
// the trace, and owns a seeded random source for drop decisions.
type Injector struct {
	windows []Window
	rng     *rand.Rand
	obs     *obs.Collector
	// onServer receives crash/recovery transitions for data servers, in
	// schedule order at the window boundary events. Registered before the
	// kernel runs; never mutated afterwards.
	onServer []func(server int, up bool, at time.Duration)
	// serverOf maps network node id -> data-server index (-1: the node
	// hosts no server), so the transport can refuse delivery to crashed
	// servers (NodeCrashed) with one lookup.
	serverOf []int
	// onClient receives compute-client crash transitions (rank, at), in
	// schedule order at the window start event. Registered before the
	// kernel runs; never mutated afterwards.
	onClient []func(rank int, at time.Duration)
}

// NewInjector creates an injector for sch on kernel k. It panics on an
// invalid schedule (a configuration bug). An empty schedule adds no kernel
// events and the injector never draws randomness, keeping the run
// byte-identical to one without the fault layer.
func NewInjector(k *sim.Kernel, sch *Schedule, seed int64) *Injector {
	if err := sch.Validate(); err != nil {
		panic(err)
	}
	inj := &Injector{}
	if sch.Empty() {
		return inj
	}
	inj.windows = append(inj.windows, sch.Windows...)
	inj.rng = rand.New(rand.NewSource(seed))
	for i, w := range inj.windows {
		i, w := i, w
		k.After(w.Start, func() {
			if inj.obs.Enabled() {
				inj.obs.Instant("fault.begin", "fault", k.Now(),
					obs.I64("window", int64(i)), obs.Str("kind", w.Kind.String()),
					obs.I64("target", int64(w.Target)),
					obs.F64("factor", w.Factor), obs.F64("prob", w.Prob))
			}
			if w.Kind == ServerCrash {
				inj.notifyServer(w.Target, false, k.Now())
			}
			if w.Kind == ClientCrash {
				inj.notifyClient(w.Target, k.Now())
			}
		})
		if w.End > 0 {
			k.After(w.End, func() {
				if inj.obs.Enabled() {
					inj.obs.Instant("fault.end", "fault", k.Now(),
						obs.I64("window", int64(i)), obs.Str("kind", w.Kind.String()),
						obs.I64("target", int64(w.Target)))
				}
				if w.Kind == ServerCrash && !inj.Crashed(w.Target, k.Now()) {
					inj.notifyServer(w.Target, true, k.Now())
				}
			})
		}
	}
	return inj
}

// SetObs attaches the collector that records the schedule's fault.begin and
// fault.end instants. Call before the kernel runs.
func (inj *Injector) SetObs(c *obs.Collector) { inj.obs = c }

// OnServerState registers a listener for data-server crash (up=false) and
// recovery (up=true) transitions. Listeners run at the window boundary in
// schedule order. Register before the kernel starts running.
func (inj *Injector) OnServerState(fn func(server int, up bool, at time.Duration)) {
	if inj == nil {
		return
	}
	inj.onServer = append(inj.onServer, fn)
}

func (inj *Injector) notifyServer(server int, up bool, at time.Duration) {
	for _, fn := range inj.onServer {
		fn(server, up, at)
	}
}

// OnClientState registers a listener for compute-client crash transitions.
// Listeners run at the window start in schedule order. Register before the
// kernel starts running. There is no recovery transition: a client crash
// aborts the job, and restart is a harness-driven recovery phase.
func (inj *Injector) OnClientState(fn func(rank int, at time.Duration)) {
	if inj == nil {
		return
	}
	inj.onClient = append(inj.onClient, fn)
}

func (inj *Injector) notifyClient(rank int, at time.Duration) {
	for _, fn := range inj.onClient {
		fn(rank, at)
	}
}

// HasClientCrashWindows reports whether the schedule crashes any compute
// client. HasCrashWindows stays server-only on purpose: client crashes must
// not flip the PFS onto its crash-aware code path.
func (inj *Injector) HasClientCrashWindows() bool {
	if inj == nil {
		return false
	}
	for _, w := range inj.windows {
		if w.Kind == ClientCrash {
			return true
		}
	}
	return false
}

// Crashed reports whether a data server is crash-stopped at now.
func (inj *Injector) Crashed(server int, now time.Duration) bool {
	if inj == nil {
		return false
	}
	for _, w := range inj.windows {
		if w.Kind == ServerCrash && w.Target == server && w.active(now) {
			return true
		}
	}
	return false
}

// CrashedDuring reports whether any crash window on a data server overlaps
// the closed interval [from, to]. The PFS server uses this to drop requests
// whose service straddled a crash: even if the server is back up at
// completion time, the in-flight queue died with it.
func (inj *Injector) CrashedDuring(server int, from, to time.Duration) bool {
	if inj == nil {
		return false
	}
	for _, w := range inj.windows {
		if w.Kind == ServerCrash && w.Target == server &&
			w.Start <= to && (w.End <= 0 || w.End > from) {
			return true
		}
	}
	return false
}

// HasCrashWindows reports whether the schedule contains any crash windows
// (including ones not yet begun). Layers use it to decide whether crash
// bookkeeping is needed at all, keeping crash-free runs on the exact legacy
// code path.
func (inj *Injector) HasCrashWindows() bool {
	if inj == nil {
		return false
	}
	for _, w := range inj.windows {
		if w.Kind == ServerCrash {
			return true
		}
	}
	return false
}

// BindServerNodes tells the injector which network node hosts each data
// server (index i of nodes is server i), enabling NodeCrashed queries from
// the transport. It panics if a node hosts two servers (a configuration
// bug).
func (inj *Injector) BindServerNodes(nodes []int) {
	if inj == nil {
		return
	}
	inj.serverOf = nil
	for srv, node := range nodes {
		for len(inj.serverOf) <= node {
			inj.serverOf = append(inj.serverOf, -1)
		}
		if prev := inj.serverOf[node]; prev >= 0 {
			panic(fmt.Sprintf("fault: node %d bound to servers %d and %d", node, prev, srv))
		}
		inj.serverOf[node] = srv
	}
}

// NodeCrashed reports whether the network node is a crashed data server at
// now. Nodes that host no data server are never crashed.
func (inj *Injector) NodeCrashed(node int, now time.Duration) bool {
	if inj == nil || node < 0 || node >= len(inj.serverOf) {
		return false
	}
	srv := inj.serverOf[node]
	return srv >= 0 && inj.Crashed(srv, now)
}

// factor multiplies the factors of active windows of the given kind/target.
func (inj *Injector) factor(kind Kind, target int, now time.Duration) float64 {
	if inj == nil {
		return 1
	}
	f := 1.0
	for _, w := range inj.windows {
		if w.Kind == kind && w.Target == target && w.active(now) {
			f *= w.Factor
		}
	}
	return f
}

// DiskFactor returns the active disk-service slowdown for a data server
// (1 = healthy).
func (inj *Injector) DiskFactor(server int, now time.Duration) float64 {
	return inj.factor(DiskSlow, server, now)
}

// ServerFactor returns the active request-CPU slowdown for a data server.
func (inj *Injector) ServerFactor(server int, now time.Duration) float64 {
	return inj.factor(ServerSlow, server, now)
}

// LinkFactor returns the active serialization slowdown for a message
// between two nodes (windows on either endpoint apply).
func (inj *Injector) LinkFactor(from, to int, now time.Duration) float64 {
	if inj == nil {
		return 1
	}
	f := 1.0
	for _, w := range inj.windows {
		if w.Kind == LinkSlow && (w.Target == from || w.Target == to) && w.active(now) {
			f *= w.Factor
		}
	}
	return f
}

// StallUntil returns the end of the latest active stall window covering a
// data server at now, or 0 when the server is serving normally.
func (inj *Injector) StallUntil(server int, now time.Duration) time.Duration {
	if inj == nil {
		return 0
	}
	var until time.Duration
	for _, w := range inj.windows {
		if w.Kind == ServerStall && w.Target == server && w.active(now) && w.End > until {
			until = w.End
		}
	}
	return until
}

// Drop decides whether a message between two nodes is lost at now. It
// draws randomness only when an active drop window covers an endpoint, so
// drop-free schedules consume nothing from the source.
func (inj *Injector) Drop(from, to int, now time.Duration) bool {
	if inj == nil {
		return false
	}
	for _, w := range inj.windows {
		if w.Kind == LinkDrop && (w.Target == from || w.Target == to) && w.active(now) {
			if inj.rng.Float64() < w.Prob {
				return true
			}
		}
	}
	return false
}

// Enabled reports whether the injector carries any windows.
func (inj *Injector) Enabled() bool { return inj != nil && len(inj.windows) > 0 }
