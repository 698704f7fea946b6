// Package pfs models a PVFS2-like parallel file system: files are striped
// in fixed-size units (StripeUnit, 64 KB) across data servers; a metadata
// server handles open/create; clients issue read/write requests carrying
// extent lists (list I/O, paper ref [6]) directly to the data servers.
// Like PVFS2, there is no client-side data cache.
package pfs

import (
	"fmt"
	"slices"
	"time"

	"dualpar/internal/check"
	"dualpar/internal/ext"
	"dualpar/internal/fault"
	"dualpar/internal/fs"
	"dualpar/internal/netsim"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// StripeUnit is the striping unit in bytes (the PVFS2 default, 64 KB).
// DualPar's global cache uses chunks of this size by default, so that one
// chunk lands on one data server.
const StripeUnit int64 = 64 << 10

// The paper's PVFS2 2.8.2 servers; no run varies these.
const (
	// workersPerServer bounds the number of concurrently served requests
	// per data server.
	workersPerServer = 16
	// requestCPU is the per-request server processing cost.
	requestCPU = 50 * time.Microsecond
	// headerBytes is the fixed size of a request/response header;
	// extentDescBytes is the per-extent encoding cost in a list request.
	headerBytes     = 256
	extentDescBytes = 16
	// metaOpCPU is the metadata server's per-operation cost.
	metaOpCPU = 100 * time.Microsecond
	// requestJitter is the relative half-width of the uniform jitter on
	// requestCPU (0.5 means [0.5x, 1.5x]). OS and service-time noise is
	// what desynchronizes otherwise lockstepped clients.
	requestJitter = 0.5
)

// Config tunes the file system. The zero value is the paper's PVFS2
// 2.8.2 setup.
type Config struct {
	// ClientDiskOrigins tags disk requests with the requesting client's
	// origin instead of the server's own identity. PVFS2 performs server
	// I/O from the pvfs2-server process, so the kernel elevator sees one
	// origin per server (the default, false); the true setting is an
	// ablation that exposes CFQ's per-process queueing to client identity.
	ClientDiskOrigins bool
	// RequestTimeout, when positive, arms a per-server-request watchdog in
	// the client: a request not answered within the timeout is reissued —
	// a write to the same replica, a read to the next live replica (the
	// same server when there is only one). The original is abandoned, not
	// cancelled, exactly like a client retry against a stalled server. The
	// timeout doubles per retry. Zero (the default) disables timeouts
	// entirely, keeping the event timeline identical to builds without the
	// fault layer.
	RequestTimeout time.Duration
	// MaxRetries bounds reissues per request; after the last retry the
	// client waits indefinitely (progress over liveness guessing).
	MaxRetries int
	// RetryBackoff is slept before the first reissue and doubles with each
	// subsequent one (bounded exponential backoff).
	RetryBackoff time.Duration
	// Replicas is the number of copies of every stripe (rack-aware chained
	// placement, 3 servers per rack; a write completes on a majority; see
	// DESIGN §10). 0 or 1 keeps the unreplicated layout: the same transfer
	// path with one replica per stripe group, whose event timeline is
	// byte-identical to the seed's.
	Replicas int
	// DetectDelay is how long after a crash (or recovery) the cluster-wide
	// failure detector updates the client view. It models heartbeat lag:
	// requests issued inside the window are lost and recovered by the
	// watchdog, not the view.
	DetectDelay time.Duration
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.RequestTimeout < 0:
		return fmt.Errorf("pfs: RequestTimeout %v", c.RequestTimeout)
	case c.MaxRetries < 0:
		return fmt.Errorf("pfs: MaxRetries %d", c.MaxRetries)
	case c.RetryBackoff < 0:
		return fmt.Errorf("pfs: RetryBackoff %v", c.RetryBackoff)
	case c.Replicas < 0:
		return fmt.Errorf("pfs: Replicas %d", c.Replicas)
	case c.DetectDelay < 0:
		return fmt.Errorf("pfs: DetectDelay %v", c.DetectDelay)
	}
	return nil
}

// FileSystem ties the metadata server and data servers together.
type FileSystem struct {
	k       *sim.Kernel
	net     *netsim.Network
	cfg     Config
	servers []*Server
	meta    *MetaServer
	obs     *obs.Collector
	faults  *fault.Injector
	retries int64

	// Replication and crash-tolerance state (see replica.go). offsets maps
	// replica rank -> server-index offset; down and rebuilding are the
	// failure detector's view of each server, which crash-aware waiters
	// re-read on every poll tick (waitStep).
	offsets    []int
	down       []bool
	rebuilding []bool
	ledger     *rebuildLedger
	storeNames map[string][]string // storeFile's names by file and rank
	tracker    *Tracker
	verCounter int64
	failovers  int64

	// Audit byte ledgers (nil = audit off): logical bytes each server's
	// store served for client requests, and bytes its store moved for
	// replica rebuild copies. Their sum must equal the store's own logical
	// counters at end of run.
	audit        check.Ledger
	auditServed  []int64
	auditRebuild []int64

	// Pools for the per-operation transfer records (client.go). A
	// steady-state client op allocates nothing: requests, per-replica
	// records (with their attempts' capacity), stripe groups (with their
	// done signal's waiter capacity) and ops (with their per-server split
	// buffers) all cycle through these. The last holder recycles: a group
	// goes back when its op has returned and no server queue or worker
	// still holds one of its attempts, whichever happens last (putOp or
	// the server's release), and an op goes back with its last group.
	reqPool   sim.Pool[serverReq]
	issPool   sim.Pool[issued]
	groupPool sim.Pool[xferGroup]
	opPool    sim.Pool[xferOp]
}

// putOp hands a finished operation back. Each group no server still holds
// goes back at once with its requests and replica records; a group with
// attempts still queued or in service stays on the op, marked with it, for
// its last straggler's release. The split buffer goes back with the op's
// last group, since a held attempt still references its extent list.
func (fsys *FileSystem) putOp(op *xferOp) {
	held := op.groups[:0]
	for _, g := range op.groups {
		if g.held > 0 {
			g.op = op
			held = append(held, g)
			continue
		}
		fsys.putGroup(g)
	}
	op.groups = held
	if len(held) == 0 {
		fsys.putSplit(op)
	}
}

// putGroup recycles a group nothing references any more, with every
// attempt and replica record it issued.
func (fsys *FileSystem) putGroup(g *xferGroup) {
	for _, is := range g.reps {
		for _, r := range is.attempts {
			*r = serverReq{}
			fsys.reqPool.Put(r)
		}
		*is = issued{attempts: is.attempts[:0]}
		fsys.issPool.Put(is)
	}
	*g = xferGroup{done: g.done, reps: g.reps[:0]}
	fsys.groupPool.Put(g)
}

// putSplit recycles an op whose groups have all gone back, keeping the
// capacity of its split buffer.
func (fsys *FileSystem) putSplit(op *xferOp) {
	for i := range op.per {
		op.per[i] = op.per[i][:0]
	}
	fsys.opPool.Put(op)
}

// release drops this server's hold on an attempt it dequeued, once the
// worker is done with it (served, or voided by a crash). The last release
// of a group whose op has already returned recycles the group, and the
// op's last such group recycles the op. A count below zero means an
// attempt was released twice, which would corrupt whatever op reuses the
// records next, so it panics.
func (srv *Server) release(req *serverReq) {
	g := req.g
	g.held--
	if g.held < 0 {
		panic(fmt.Sprintf("pfs: server%d released an attempt on %q twice", srv.Index, req.file))
	}
	op := g.op
	if g.held > 0 || op == nil {
		return
	}
	srv.fsys.putGroup(g)
	last := len(op.groups) - 1
	op.groups[slices.Index(op.groups, g)] = op.groups[last]
	op.groups = op.groups[:last]
	if last == 0 {
		srv.fsys.putSplit(op)
	}
}

// Server is one data server.
type Server struct {
	fsys  *FileSystem
	Index int // position in the stripe rotation
	Node  int // network node id
	Store *fs.Store
	queue *sim.Queue[*serverReq]
}

// MetaServer handles open/create and hosts DualPar's EMC daemon (the core
// package attaches it).
type MetaServer struct {
	Node  int
	sizes map[string]int64
}

type serverReq struct {
	file    string
	extents []ext.Extent // server-local byte space
	write   bool
	origin  int
	client  int        // requesting network node
	g       *xferGroup // the group it is an attempt of (see release)
	fin     bool
	rc      obs.Ctx       // originating traced request
	enq     time.Duration // enqueue time (queue-wait annotation)
	ver     int64         // integrity-tracker write version (0 = untracked)
}

// New assembles a file system from per-server stores. serverNodes[i] is the
// network node of data server i.
func New(k *sim.Kernel, net *netsim.Network, cfg Config, metaNode int, serverNodes []int, stores []*fs.Store) *FileSystem {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(serverNodes) == 0 || len(serverNodes) != len(stores) {
		panic("pfs: servers and stores mismatch")
	}
	if cfg.Replicas > len(serverNodes) {
		panic(fmt.Sprintf("pfs: %d replicas on %d servers", cfg.Replicas, len(serverNodes)))
	}
	fsys := &FileSystem{
		k:          k,
		net:        net,
		cfg:        cfg,
		meta:       &MetaServer{Node: metaNode, sizes: make(map[string]int64)},
		offsets:    replicaOffsets(len(serverNodes), cfg.Replicas),
		down:       make([]bool, len(serverNodes)),
		rebuilding: make([]bool, len(serverNodes)),
		ledger:     newRebuildLedger(len(serverNodes)),
	}
	for i, node := range serverNodes {
		srv := &Server{
			fsys:  fsys,
			Index: i,
			Node:  node,
			Store: stores[i],
			queue: sim.NewQueue[*serverReq](),
		}
		fsys.servers = append(fsys.servers, srv)
		name := fmt.Sprintf("pfs/server%d", i)
		for w := 0; w < workersPerServer; w++ {
			k.Spawn(name, func(p *sim.Proc) { srv.workerLoop(p, w) })
		}
	}
	return fsys
}

// SetObs attaches the observability collector: traced requests then record
// per-worker StageServer spans.
func (fsys *FileSystem) SetObs(c *obs.Collector) { fsys.obs = c }

// SetAudit attaches the audit ledger and starts per-server byte accounting:
// logical bytes served to clients and logical bytes moved by rebuild copies,
// which together must match each store's own counters once the run drains.
func (fsys *FileSystem) SetAudit(l check.Ledger) {
	fsys.audit = l
	fsys.auditServed = make([]int64, len(fsys.servers))
	fsys.auditRebuild = make([]int64, len(fsys.servers))
}

// AuditServedBytes reports the logical bytes server i's store served for
// client requests since SetAudit (counted whether or not the ack survived a
// crash window — the store moved the bytes either way).
func (fsys *FileSystem) AuditServedBytes(i int) int64 { return fsys.auditServed[i] }

// AuditRebuildBytes reports the logical bytes server i's store read or wrote
// for replica rebuild copies since SetAudit.
func (fsys *FileSystem) AuditRebuildBytes(i int) int64 { return fsys.auditRebuild[i] }

// SetFaults attaches a fault injector; data servers then honor the
// schedule's stall and CPU-slowdown windows. A nil injector is a no-op.
// Crash windows additionally arm the failure detector: DetectDelay after
// each crash or recovery the client view updates, and a recovery kicks off
// the online rebuild.
func (fsys *FileSystem) SetFaults(inj *fault.Injector) {
	fsys.faults = inj
	if inj.HasCrashWindows() {
		inj.OnServerState(func(server int, up bool, at time.Duration) {
			if server < 0 || server >= len(fsys.servers) {
				return
			}
			fsys.k.After(fsys.detectDelay(), func() { fsys.setDown(server, !up) })
		})
	}
}

// Retries reports how many client request reissues the timeout watchdog
// performed.
func (fsys *FileSystem) Retries() int64 { return fsys.retries }

// Failovers reports how many read reissues went to a different replica
// than the previous attempt.
func (fsys *FileSystem) Failovers() int64 { return fsys.failovers }

// Alive reports the failure detector's view of a data server: false from
// DetectDelay after a crash until DetectDelay after its recovery. EMC uses
// it to drop dead servers from the seek medians, CRM to route around them.
func (fsys *FileSystem) Alive(server int) bool {
	return server >= 0 && server < len(fsys.down) && !fsys.down[server]
}

// FileSize reports the size currently recorded at the metadata server (the
// high-water mark of creates and completed writes; 0 for unknown files).
// Unlike Client.Open this is a zero-cost peek for co-located control
// planes such as CRM, which conceptually runs beside the metadata server.
func (fsys *FileSystem) FileSize(name string) int64 { return fsys.meta.sizes[name] }

// Obs returns the attached collector (nil when tracing is off).
func (fsys *FileSystem) Obs() *obs.Collector { return fsys.obs }

// Servers returns the data servers.
func (fsys *FileSystem) Servers() []*Server { return fsys.servers }

// NumServers reports the stripe width.
func (fsys *FileSystem) NumServers() int { return len(fsys.servers) }

// serverOriginBase keeps server-process origins clear of client origins.
const serverOriginBase = 1 << 21

// DiskOrigin is the origin tag this server's disk requests carry for a
// request from the given client origin.
func (srv *Server) DiskOrigin(clientOrigin int) int {
	if srv.fsys.cfg.ClientDiskOrigins {
		return clientOrigin
	}
	return serverOriginBase + srv.Index
}

// workerLoop serves srv's queue as its worker w. The worker's trace track
// is named on its first traced request: untraced runs never read it.
func (srv *Server) workerLoop(p *sim.Proc, w int) {
	fsys := srv.fsys
	var track string
	for {
		req := srv.queue.Get(p)
		start := p.Now()
		// A crash-stop window voids the in-flight queue: anything enqueued
		// before or during the crash is dropped unanswered, and missed
		// writes are noted for the online rebuild.
		if fsys.faults.CrashedDuring(srv.Index, req.enq, p.Now()) {
			srv.dropCrashed(req, p.Now())
			srv.release(req)
			continue
		}
		// An active stall window freezes service: the request sits in the
		// worker until the window closes (the queue keeps filling behind it).
		if until := fsys.faults.StallUntil(srv.Index, p.Now()); until > p.Now() {
			p.Sleep(until - p.Now())
		}
		jitter := 1 + (fsys.k.Rand().Float64()*2-1)*requestJitter
		cpu := time.Duration(float64(requestCPU) * jitter)
		if f := fsys.faults.ServerFactor(srv.Index, p.Now()); f > 1 {
			cpu = time.Duration(float64(cpu) * f)
		}
		p.Sleep(cpu)
		origin := srv.DiskOrigin(req.origin)
		if req.write {
			srv.Store.WriteMulti(p, req.file, req.extents, origin, req.rc)
		} else {
			srv.Store.ReadMulti(p, req.file, req.extents, origin, req.rc)
		}
		if fsys.auditServed != nil {
			// Counted right after the store call, before the post-service
			// crash check: a dropped ack does not undo the bytes the store
			// already moved (and already counted on its side).
			fsys.auditServed[srv.Index] += ext.Total(req.extents)
		}
		// A crash that struck mid-service died holding the answer: the
		// write may have reached the platter but no ack leaves the box, so
		// the replica is treated as having missed it (rebuild re-copies).
		if fsys.faults.CrashedDuring(srv.Index, start, p.Now()) {
			srv.dropCrashed(req, p.Now())
			srv.release(req)
			continue
		}
		if req.write {
			fsys.tracker.apply(srv.Index, req.file, req.extents, req.ver)
			// Small acknowledgment back to the client.
			fsys.net.Send(p, srv.Node, req.client, headerBytes)
		} else {
			fsys.net.Send(p, srv.Node, req.client, headerBytes+ext.Total(req.extents))
		}
		if req.rc.Traced() {
			rw := "read"
			if req.write {
				rw = "write"
			}
			if track == "" {
				track = fmt.Sprintf("server%d/worker%d", srv.Index, w)
			}
			fsys.obs.Span(req.rc.ID, obs.StageServer, track, start, p.Now(),
				obs.Str("rw", rw), obs.I64("bytes", ext.Total(req.extents)),
				obs.I64("extents", int64(len(req.extents))),
				obs.I64("queue_us", int64((start-req.enq)/time.Microsecond)),
				obs.I64("queue_ns", int64(start-req.enq)))
		}
		req.fin = true
		req.g.done.Broadcast()
		// Last: recycling may zero req (see release).
		srv.release(req)
	}
}

// dropCrashed voids a request lost to a crash-stop window: no ack is sent
// (the client's watchdog recovers), and a voided write is noted in the
// rebuild ledger so the recovering replica re-copies it from a peer.
func (srv *Server) dropCrashed(req *serverReq, now time.Duration) {
	fsys := srv.fsys
	if req.write {
		fsys.ledger.add(srv.Index, req.file, req.extents)
	}
	if !fsys.obs.Enabled() {
		return
	}
	rw := "read"
	if req.write {
		rw = "write"
	}
	fsys.obs.Instant("pfs.lost", fmt.Sprintf("server%d", srv.Index), now,
		obs.Str("rw", rw), obs.Str("file", req.file),
		obs.I64("bytes", ext.Total(req.extents)))
}

// split maps file-global extents to per-server local extent lists.
func (fsys *FileSystem) split(extents []ext.Extent) [][]ext.Extent {
	out := make([][]ext.Extent, fsys.NumServers())
	fsys.splitInto(out, extents)
	return out
}

// splitInto is split appending into a caller-provided buffer (len =
// NumServers, every sub-slice empty), so the hot path can reuse checked-out
// buffers instead of allocating per operation.
func (fsys *FileSystem) splitInto(out [][]ext.Extent, extents []ext.Extent) {
	ext.VisitSplit(extents, StripeUnit, func(piece ext.Extent) {
		srv, local := fsys.LocalOffset(piece.Off)
		lst := out[srv]
		if len(lst) > 0 && lst[len(lst)-1].End() == local {
			lst[len(lst)-1].Len += piece.Len
			out[srv] = lst
		} else {
			out[srv] = append(lst, ext.Extent{Off: local, Len: piece.Len})
		}
	})
}

// LocalOffset translates a file-global offset to (server index, local
// offset): the one copy of the striping rule, used by splitInto on every
// operation and by the integrity oracles, layout-aware tooling and tests.
func (fsys *FileSystem) LocalOffset(off int64) (server int, local int64) {
	stripe := off / StripeUnit
	n := int64(fsys.NumServers())
	return int(stripe % n), (stripe/n)*StripeUnit + off%StripeUnit
}
