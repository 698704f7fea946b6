// Package burst is a host-side burst-buffer write log for checkpoint
// traffic: a per-client append-only log device that absorbs checkpoint
// writes at sequential log bandwidth and drains them to the parallel file
// system in the background at a throttled rate (iFast/ParaLog-style
// staging). The application's checkpoint stall becomes the log absorb time
// instead of the PFS write time; the PFS sees the same bytes slightly
// later, in deterministic log order.
//
// Durability contract: a checkpoint epoch is committed only when its log
// records are sealed. A client crash preserves the log device but loses
// everything unsealed; recovery discards unsealed records and replays
// sealed-but-undrained ones to the PFS in log order, so a committed epoch
// is always recoverable — either its bytes already reached the PFS (drain)
// or they replay from the log (recovery). Records whose drain completed
// before the crash are removed atomically with drain completion and are
// never replayed (no double-apply).
//
// Determinism: absorb serializes on a per-log device resource, drain and
// replay follow strict log-sequence order, and all timing derives from
// configured bandwidths — the same schedule yields byte-identical runs. A
// run with no burst tier configured takes none of these code paths.
package burst

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"dualpar/internal/check"
	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// DrainOriginBase tags the drainer's PFS requests for the I/O scheduler:
// drain traffic from compute node n carries origin DrainOriginBase+n,
// keeping it distinct from application, flusher, and verifier origins.
const DrainOriginBase = 1 << 22

// ErrNoCommittedEpoch reports a recovery that found no epoch sealed by
// every rank: the job crashed before its first checkpoint committed, so
// there is nothing to restart from.
var ErrNoCommittedEpoch = errors.New("burst: no committed checkpoint epoch")

// EpochError carries the checkpoint epoch whose drain or replay failed. It
// wraps the underlying PFS error, so errors.Is(err, pfs.ErrRetriesExhausted)
// still matches through it.
type EpochError struct {
	Epoch int
	Err   error
}

// Error implements error.
func (e *EpochError) Error() string {
	return fmt.Sprintf("burst: epoch %d: %v", e.Epoch, e.Err)
}

// Unwrap exposes the underlying PFS error to errors.Is/As.
func (e *EpochError) Unwrap() error { return e.Err }

// Config sizes the per-client log devices. All rates are bytes per second.
type Config struct {
	// CapacityBytes bounds each log's resident (absorbed, not yet drained)
	// bytes; an append that would exceed it blocks until the drain frees
	// space (backpressure).
	CapacityBytes int64
	// AbsorbBps is the sequential append bandwidth of the log device.
	AbsorbBps int64
	// DrainBps throttles the background drain to the PFS.
	DrainBps int64
	// SealLatency is the flush-barrier cost of sealing an epoch durable.
	SealLatency time.Duration
}

// DefaultConfig is a small fast NVMe-class log: 64 MiB capacity, 400 MiB/s
// absorb, 100 MiB/s drain, 500 µs seal barrier.
func DefaultConfig() Config {
	return Config{
		CapacityBytes: 64 << 20,
		AbsorbBps:     400 << 20,
		DrainBps:      100 << 20,
		SealLatency:   500 * time.Microsecond,
	}
}

// Validate reports configuration errors. A zero drain rate is rejected
// rather than silently meaning "never drain": resident bytes would only
// grow until backpressure wedged every writer.
func (c Config) Validate() error {
	switch {
	case c.CapacityBytes <= 0:
		return fmt.Errorf("burst: capacity %d bytes", c.CapacityBytes)
	case c.AbsorbBps <= 0:
		return fmt.Errorf("burst: absorb rate %d B/s", c.AbsorbBps)
	case c.DrainBps <= 0:
		return fmt.Errorf("burst: drain rate %d B/s", c.DrainBps)
	case c.SealLatency < 0:
		return fmt.Errorf("burst: seal latency %v", c.SealLatency)
	}
	return nil
}

// ParseSpec builds a Config from a compact spec string, for command-line
// use: comma-separated key=value pairs over DefaultConfig, with byte sizes
// taking K/M/G suffixes and seal taking a Go duration. An empty spec is the
// default config.
//
//	cap=64M,absorb=400M,drain=100M,seal=500us
func ParseSpec(spec string) (Config, error) {
	c := DefaultConfig()
	if spec == "" {
		return c, nil
	}
	for _, kv := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return c, fmt.Errorf("burst: %q: want key=value", kv)
		}
		var err error
		switch k {
		case "cap":
			c.CapacityBytes, err = ParseBytes(v)
		case "absorb":
			c.AbsorbBps, err = ParseBytes(v)
		case "drain":
			c.DrainBps, err = ParseBytes(v)
		case "seal":
			c.SealLatency, err = time.ParseDuration(v)
		default:
			return c, fmt.Errorf("burst: unknown key %q", k)
		}
		if err != nil {
			return c, fmt.Errorf("burst: %q: %v", kv, err)
		}
	}
	if err := c.Validate(); err != nil {
		return c, err
	}
	return c, nil
}

// ParseBytes parses a "64M"-style byte size: decimal digits with an
// optional K/M/G suffix (powers of 1024, either case). Negative and
// overflowing sizes are errors. The tenant spec grammar shares it.
func ParseBytes(s string) (int64, error) {
	digits, mult := s, int64(1)
	if i := len(s) - 1; i >= 0 {
		switch s[i] {
		case 'K', 'k':
			digits, mult = s[:i], 1<<10
		case 'M', 'm':
			digits, mult = s[:i], 1<<20
		case 'G', 'g':
			digits, mult = s[:i], 1<<30
		}
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	if n > math.MaxInt64/mult {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return n * mult, nil
}

// Writer is the PFS face the drainer writes through; *pfs.Client satisfies
// it. Writes are synchronous: they return after the bytes are durable at
// the write quorum, or with an error wrapping pfs.ErrRetriesExhausted.
type Writer interface {
	Write(p *sim.Proc, name string, extents []ext.Extent, origin int, rc obs.Ctx) error
}

// Stats aggregates the byte-conservation counters of one log or tier:
// every absorbed byte is exactly one of drained, replayed, discarded, or
// still resident.
type Stats struct {
	Absorbed  int64         // bytes appended to the log
	Drained   int64         // bytes the background drain wrote to the PFS
	Replayed  int64         // sealed bytes recovery re-wrote to the PFS
	Discarded int64         // unsealed bytes recovery dropped
	Resident  int64         // bytes still in the log
	Stall     time.Duration // writer time blocked on capacity backpressure
	DrainLag  time.Duration // total seal→drain-complete latency
	DrainMax  time.Duration // worst single record's seal→drain latency
	DrainOps  int64         // records drained (for mean lag)
}

func (s *Stats) add(o Stats) {
	s.Absorbed += o.Absorbed
	s.Drained += o.Drained
	s.Replayed += o.Replayed
	s.Discarded += o.Discarded
	s.Resident += o.Resident
	s.Stall += o.Stall
	s.DrainLag += o.DrainLag
	if o.DrainMax > s.DrainMax {
		s.DrainMax = o.DrainMax
	}
	s.DrainOps += o.DrainOps
}

// Tier owns the per-compute-node logs of one cluster. Logs are created
// lazily at a node's first append and live for the whole run.
type Tier struct {
	k       *sim.Kernel
	cfg     Config
	obs     *obs.Collector
	audit   check.Ledger
	writerF func(node int) Writer
	logs    map[int]*Log
	order   []int // node ids in creation order (deterministic)
}

// NewTier builds a burst tier on kernel k; writerF supplies the node-local
// PFS client the drain writes through. Panics on an invalid config (a
// configuration bug, like fault.NewInjector).
func NewTier(k *sim.Kernel, cfg Config, writerF func(node int) Writer) *Tier {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Tier{k: k, cfg: cfg, writerF: writerF, logs: make(map[int]*Log)}
}

// SetObs attaches the collector that records the tier's burst.* instants.
// Call before the kernel runs.
func (t *Tier) SetObs(c *obs.Collector) { t.obs = c }

// Config returns the tier's configuration.
func (t *Tier) Config() Config { return t.cfg }

// Log returns node's log, creating it (and its drainer) on first use.
func (t *Tier) Log(node int) *Log {
	if l, ok := t.logs[node]; ok {
		return l
	}
	l := &Log{
		t:      t,
		node:   node,
		origin: DrainOriginBase + node,
		writer: t.writerF(node),
		recs:   make([]record, 16),
	}
	t.logs[node] = l
	t.order = append(t.order, node)
	t.k.Spawn(fmt.Sprintf("burst-drain-%d", node), l.drainLoop)
	return l
}

// nodes returns the log-holding node ids in ascending order.
func (t *Tier) nodes() []int {
	out := append([]int(nil), t.order...)
	sort.Ints(out)
	return out
}

// CrashNode crash-stops node's log host: the drainer parks after any
// in-flight record completes, and the log contents persist for Recover.
// Nodes without a log are untouched.
func (t *Tier) CrashNode(node int, at time.Duration) {
	l, ok := t.logs[node]
	if !ok {
		return
	}
	l.crashed = true
	if t.obs.Enabled() {
		t.obs.Instant("burst.crash", "burst", at, obs.I64("node", int64(node)))
	}
}

// Recover replays every crashed log in ascending node order: unsealed
// resident records are discarded (their epochs never committed), then
// sealed records replay to the PFS in log-sequence order at the drain
// rate. On success the drainers resume. The first replay error aborts
// recovery, wrapped with its epoch.
func (t *Tier) Recover(p *sim.Proc) error {
	for _, node := range t.nodes() {
		if l := t.logs[node]; l.crashed {
			if err := l.recover(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// WaitDrained blocks p until every log is empty (all absorbed bytes
// drained) or a drain error parked some log's drainer, which it returns.
func (t *Tier) WaitDrained(p *sim.Proc) error {
	for _, node := range t.nodes() {
		l := t.logs[node]
		for l.err == nil && l.len() > 0 && !l.crashed {
			l.space.Wait(p)
		}
		if l.err != nil {
			return l.err
		}
	}
	return nil
}

// Err returns the first drain/replay error across logs in ascending node
// order, or nil.
func (t *Tier) Err() error {
	for _, node := range t.nodes() {
		if l := t.logs[node]; l.err != nil {
			return l.err
		}
	}
	return nil
}

// Stats aggregates all logs' counters.
func (t *Tier) Stats() Stats {
	var s Stats
	for _, node := range t.nodes() {
		s.add(t.logs[node].Stats())
	}
	return s
}

// RegisterAudit arms the tier's byte-conservation oracle on a: every
// absorbed byte must be accounted for as drained, replayed, discarded, or
// resident, per log and in aggregate. Logs are enumerated at probe time
// because they are created lazily.
func (t *Tier) RegisterAudit(a *check.Auditor) {
	t.audit = a
	a.RegisterFinalProbe("burst.conserved", func() error {
		for _, node := range t.nodes() {
			s := t.logs[node].Stats()
			if got := s.Drained + s.Replayed + s.Discarded + s.Resident; got != s.Absorbed {
				return fmt.Errorf("log %d: absorbed %d != drained %d + replayed %d + discarded %d + resident %d",
					node, s.Absorbed, s.Drained, s.Replayed, s.Discarded, s.Resident)
			}
		}
		return nil
	})
}

// record is one appended extent. Drain and replay both write records back
// in seq order, so the drained prefix of the log is always contiguous.
type record struct {
	seq    int64
	rank   int32
	epoch  int32
	sealed bool
	sealAt time.Duration
	file   string
	x      ext.Extent
}

// Log is one compute node's append-only write log.
type Log struct {
	t      *Tier
	node   int
	origin int
	writer Writer
	dev    sim.Lock // serializes absorb+seal on the log device
	err    error    // first drain/replay failure (an *EpochError)

	// ring buffer of resident records; head/tail are absolute counters,
	// len(recs) is a power of two.
	recs       []record
	head, tail int64
	seq        int64 // next record sequence number
	used       int64 // resident bytes

	crashed bool
	space   sim.Signal // broadcast when drain frees capacity / empties the log
	kick    sim.Signal // wakes the drainer on seal and recovery

	stall     time.Duration
	absorbed  int64
	drained   int64
	replayed  int64
	discarded int64
	drainLag  time.Duration
	drainMax  time.Duration
	drainOps  int64
	xferBuf   [1]ext.Extent // drain/replay scratch (single writer at a time)
}

func (l *Log) len() int { return int(l.tail - l.head) }

func (l *Log) at(i int64) *record { return &l.recs[int(i)&(len(l.recs)-1)] }

func (l *Log) push(r record) {
	if l.len() == len(l.recs) {
		grown := make([]record, len(l.recs)*2)
		for i := l.head; i < l.tail; i++ {
			grown[int(i)&(len(grown)-1)] = *l.at(i)
		}
		l.recs = grown
	}
	*l.at(l.tail) = r
	l.tail++
}

// pop removes the head record, crediting bytes to the given counter.
func (l *Log) pop() {
	rec := l.at(l.head)
	l.used -= rec.x.Len
	rec.file = "" // drop the string reference
	l.head++
	l.space.Broadcast()
}

// Stats returns this log's counters.
func (l *Log) Stats() Stats {
	return Stats{
		Absorbed: l.absorbed, Drained: l.drained, Replayed: l.replayed,
		Discarded: l.discarded, Resident: l.used,
		Stall: l.stall, DrainLag: l.drainLag, DrainMax: l.drainMax, DrainOps: l.drainOps,
	}
}

// xferTime is the duration of moving n bytes at bps.
func xferTime(n, bps int64) time.Duration {
	return time.Duration(n) * time.Second / time.Duration(bps)
}

// Append absorbs one checkpoint write into the log: each extent becomes
// one record, appended sequentially at the log's absorb bandwidth. When
// resident bytes would exceed capacity the caller blocks until the drain
// frees space; that wait is the checkpoint stall the tier exists to
// minimize, tracked in Stats.Stall.
func (l *Log) Append(p *sim.Proc, rank, epoch int, file string, extents []ext.Extent) {
	cfg := l.t.cfg
	for _, x := range extents {
		if x.Len > cfg.CapacityBytes {
			panic(fmt.Sprintf("burst: extent of %d bytes exceeds log capacity %d", x.Len, cfg.CapacityBytes))
		}
		start := p.Now()
		for l.used+x.Len > cfg.CapacityBytes {
			l.space.Wait(p)
		}
		l.used += x.Len
		if wait := p.Now() - start; wait > 0 {
			l.stall += wait
		}
		l.dev.Acquire(p)
		p.Sleep(xferTime(x.Len, cfg.AbsorbBps))
		l.dev.Release()
		l.push(record{seq: l.seq, rank: int32(rank), epoch: int32(epoch), file: file, x: x})
		l.seq++
		l.absorbed += x.Len
		if a := l.t.audit; a != nil {
			a.Count("burst.absorbed.bytes", x.Len)
		}
	}
}

// Seal makes rank's records for epoch durable: after the device's flush
// barrier they survive a client crash and the epoch counts as committed
// for this rank. Sealing wakes the drainer.
func (l *Log) Seal(p *sim.Proc, rank, epoch int) {
	cfg := l.t.cfg
	l.dev.Acquire(p)
	if cfg.SealLatency > 0 {
		p.Sleep(cfg.SealLatency)
	}
	l.dev.Release()
	var sealed int64
	for i := l.head; i < l.tail; i++ {
		rec := l.at(i)
		if !rec.sealed && int(rec.rank) == rank && int(rec.epoch) == epoch {
			rec.sealed = true
			rec.sealAt = p.Now()
			sealed += rec.x.Len
		}
	}
	if l.t.obs.Enabled() {
		l.t.obs.Instant("burst.seal", "burst", p.Now(),
			obs.I64("node", int64(l.node)), obs.I64("rank", int64(rank)),
			obs.I64("epoch", int64(epoch)), obs.I64("bytes", sealed))
	}
	l.kick.Broadcast()
}

// drainLoop is the background drainer: strict head-of-log order, sealed
// records only, paced at the drain rate. Unsealed or absent head parks it;
// a crash parks it after the in-flight record completes (drain completion
// removes the record atomically, so a completed drain is never replayed);
// a PFS write error records the epoch and parks it for good.
func (l *Log) drainLoop(p *sim.Proc) {
	for {
		for l.crashed || l.err != nil || l.len() == 0 || !l.at(l.head).sealed {
			l.kick.Wait(p)
		}
		rec := l.at(l.head)
		p.Sleep(xferTime(rec.x.Len, l.t.cfg.DrainBps))
		l.xferBuf[0] = rec.x
		if err := l.writer.Write(p, rec.file, l.xferBuf[:], l.origin, obs.Ctx{}); err != nil {
			l.err = &EpochError{Epoch: int(rec.epoch), Err: err}
			l.space.Broadcast() // unwedge WaitDrained
			continue
		}
		lag := p.Now() - rec.sealAt
		l.drainLag += lag
		if lag > l.drainMax {
			l.drainMax = lag
		}
		l.drainOps++
		l.drained += rec.x.Len
		if a := l.t.audit; a != nil {
			a.Count("burst.drained.bytes", rec.x.Len)
		}
		if l.t.obs.Enabled() {
			l.t.obs.Instant("burst.drain", "burst", p.Now(),
				obs.I64("node", int64(l.node)), obs.I64("rank", int64(rec.rank)),
				obs.I64("epoch", int64(rec.epoch)), obs.I64("bytes", rec.x.Len))
		}
		l.pop()
	}
}

// recover implements crash recovery for one log: discard unsealed resident
// records, replay the sealed remainder to the PFS in seq order at the
// drain rate, then clear the crash so the drainer resumes for any later
// appends.
func (l *Log) recover(p *sim.Proc) error {
	// Compact the ring in place, keeping sealed records in order. Every
	// discarded record must be unsealed — a sealed record belongs to a
	// committed (or committing) epoch and may never be dropped.
	keep := l.head
	for i := l.head; i < l.tail; i++ {
		rec := *l.at(i)
		if !rec.sealed {
			l.used -= rec.x.Len
			l.discarded += rec.x.Len
			if a := l.t.audit; a != nil {
				a.Count("burst.discarded.bytes", rec.x.Len)
				a.Checkf(!rec.sealed, "burst.discard.sealed",
					"log %d discarded sealed record seq %d (epoch %d)", l.node, rec.seq, rec.epoch)
			}
			if l.t.obs.Enabled() {
				l.t.obs.Instant("burst.discard", "burst", p.Now(),
					obs.I64("node", int64(l.node)), obs.I64("rank", int64(rec.rank)),
					obs.I64("epoch", int64(rec.epoch)), obs.I64("bytes", rec.x.Len))
			}
			continue
		}
		*l.at(keep) = rec
		keep++
	}
	for i := keep; i < l.tail; i++ {
		l.at(i).file = ""
	}
	l.tail = keep
	for l.len() > 0 {
		rec := l.at(l.head)
		p.Sleep(xferTime(rec.x.Len, l.t.cfg.DrainBps))
		l.xferBuf[0] = rec.x
		if err := l.writer.Write(p, rec.file, l.xferBuf[:], l.origin, obs.Ctx{}); err != nil {
			l.err = &EpochError{Epoch: int(rec.epoch), Err: err}
			return l.err
		}
		l.replayed += rec.x.Len
		if a := l.t.audit; a != nil {
			a.Count("burst.replayed.bytes", rec.x.Len)
		}
		if l.t.obs.Enabled() {
			l.t.obs.Instant("burst.replay", "burst", p.Now(),
				obs.I64("node", int64(l.node)), obs.I64("rank", int64(rec.rank)),
				obs.I64("epoch", int64(rec.epoch)), obs.I64("bytes", rec.x.Len))
		}
		l.pop()
	}
	l.crashed = false
	l.kick.Broadcast()
	return nil
}

// Epochs tracks per-rank sealed checkpoint epochs for one program. The
// workload seals epochs in order, so each rank's sealed epoch advances by
// exactly one; Committed is the epoch every rank has sealed — the newest
// checkpoint a restart can rely on.
type Epochs struct {
	last []int
}

// NewEpochs tracks ranks ranks, none of which has sealed anything yet.
func NewEpochs(ranks int) *Epochs { return &Epochs{last: make([]int, ranks)} }

// Seal records that rank sealed epoch. Epochs seal in order (a simulation
// invariant — the generator emits one seal per epoch between barriers), so
// anything but last+1 panics.
func (e *Epochs) Seal(rank, epoch int) {
	if epoch != e.last[rank]+1 {
		panic(fmt.Sprintf("burst: rank %d sealed epoch %d after epoch %d", rank, epoch, e.last[rank]))
	}
	e.last[rank] = epoch
}

// Committed returns the newest epoch sealed by every rank (0 = none).
func (e *Epochs) Committed() int {
	if len(e.last) == 0 {
		return 0
	}
	min := e.last[0]
	for _, v := range e.last[1:] {
		if v < min {
			min = v
		}
	}
	return min
}

// Ranks returns the tracked rank count.
func (e *Epochs) Ranks() int { return len(e.last) }
