package core

import (
	"testing"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/workloads"
)

// stagger is a workload where rank 0 reads immediately and the other ranks
// compute for a long time first — the shape that forces the fill deadline
// (a cycle must not wait forever for ranks that have not suspended). Rank 0
// computes for gap between its reads, so the ghost pre-executing it stays
// active through that compute and join grace cannot serve the cycle.
type stagger struct {
	procs int
	delay time.Duration
	gap   time.Duration
}

func (s stagger) Name() string { return "stagger" }
func (s stagger) Ranks() int   { return s.procs }
func (s stagger) Files() []workloads.FileSpec {
	return []workloads.FileSpec{{Name: "stagger.dat", Size: 16 << 20, Precreate: true}}
}
func (s stagger) NewRank(r int) workloads.RankGen {
	return &staggerGen{s: s, rank: r}
}

type staggerGen struct {
	s      stagger
	rank   int
	step   int
	waited bool // the compute before the next read is done
}

func (g *staggerGen) Next(env workloads.Env) workloads.Op {
	if g.step >= 4 {
		return workloads.Op{Kind: workloads.OpDone}
	}
	if !g.waited {
		g.waited = true
		if d := g.wait(); d > 0 {
			return workloads.Op{Kind: workloads.OpCompute, Dur: d}
		}
	}
	g.waited = false
	off := int64(g.rank)*(4<<20) + int64(g.step)*(64<<10)
	g.step++
	return workloads.Op{
		Kind: workloads.OpRead, File: "stagger.dat",
		Extents: []ext64{{Off: off, Len: 64 << 10}},
	}
}

// wait is the compute before the rank's next read: delay before the other
// ranks' first read, gap before each of rank 0's later reads.
func (g *staggerGen) wait() time.Duration {
	switch {
	case g.rank != 0 && g.step == 0:
		return g.s.delay
	case g.rank == 0 && g.step > 0:
		return g.s.gap
	}
	return 0
}

func (g *staggerGen) Clone(into workloads.RankGen) workloads.RankGen {
	return workloads.CloneInto(g, into)
}

// extAlias keeps workload literals compact in this file.
type extAlias = ext.Extent
type ext64 = extAlias

func TestFillDeadlineUnblocksLoneRank(t *testing.T) {
	// Rank 0 misses at t=0; ranks 1..3 compute for five times the longest
	// fill deadline. Rank 0's ghost computes for twice the longest deadline
	// before each read it records, so it is still active when join grace
	// would serve. The cycle must serve rank 0 at the deadline, far before
	// the others join or its ghost pauses.
	cl := smallCluster(1)
	r := NewRunner(cl, DefaultConfig())
	delay := 5 * maxFillWait
	pr := r.Add(stagger{procs: 4, delay: delay, gap: 2 * maxFillWait}, ModeDataDriven, AddOptions{RanksPerNode: 4})
	if !r.Run(time.Hour) {
		t.Fatalf("did not finish")
	}
	// Rank 0 performed its 4 reads long before the rest finished
	// computing: its I/O time must be well under their delay.
	if io := pr.Instr().Ranks[0].IOTime; io > delay/2 {
		t.Fatalf("rank 0 I/O time %v: the fill deadline did not fire", io)
	}
	if pr.ctrl.Cycles() == 0 {
		t.Fatalf("no cycles ran")
	}
}

func TestJoinGraceBatchesLockstepRanks(t *testing.T) {
	// All ranks miss at the same instant: one cycle should cover everyone
	// (the grace window gathers them), not one cycle per rank.
	m := workloads.DefaultMPIIOTest()
	m.Procs = 16
	m.FileBytes = 4 << 20
	m.BarrierEvery = 0
	cl := smallCluster(1)
	r := NewRunner(cl, DefaultConfig())
	pr := r.Add(m, ModeDataDriven, AddOptions{RanksPerNode: 8})
	if !r.Run(time.Hour) {
		t.Fatalf("did not finish")
	}
	// 4MB file, 16 ranks x 1MB quota: everything fits in very few cycles.
	if c := pr.ctrl.Cycles(); c > 4 {
		t.Fatalf("cycles = %d, want few (ranks batching together)", c)
	}
}

// lateJoin is a workload of one read per rank after a per-rank delay. Its
// ghosts pause at once: a ghost forked at a rank's only read finds the
// generator done.
type lateJoin struct{ delays []time.Duration }

func (l lateJoin) Name() string { return "late-join" }
func (l lateJoin) Ranks() int   { return len(l.delays) }
func (l lateJoin) Files() []workloads.FileSpec {
	return []workloads.FileSpec{{Name: "late.dat", Size: 16 << 20, Precreate: true}}
}
func (l lateJoin) NewRank(r int) workloads.RankGen {
	return &lateJoinGen{rank: r, delay: l.delays[r]}
}

type lateJoinGen struct {
	rank  int
	delay time.Duration
	step  int
}

func (g *lateJoinGen) Next(workloads.Env) workloads.Op {
	g.step++
	switch {
	case g.step == 1 && g.delay > 0:
		return workloads.Op{Kind: workloads.OpCompute, Dur: g.delay}
	case g.step <= 2:
		g.step = 2
		return workloads.Op{Kind: workloads.OpRead, File: "late.dat",
			Extents: []ext64{{Off: int64(g.rank) * (1 << 20), Len: 64 << 10}}}
	}
	return workloads.Op{Kind: workloads.OpDone}
}

func (g *lateJoinGen) Clone(into workloads.RankGen) workloads.RankGen {
	return workloads.CloneInto(g, into)
}

// TestJoinGraceBatchesLateRank: ranks 0-2 miss at once and rank 3 misses
// 5 ms later, inside the join grace their paused ghosts armed; rank 4
// computes past the fill deadline. Each pause arms its own grace, which
// serves only if no rank joined since: rank 3's join voids the earlier
// graces, and the first cycle serves ranks 0-3 one grace after rank 3
// suspended. Without the grace the cycle waits for the deadline; with
// one (generation, count) pair shared by every pending grace, the first
// grace sees rank 3's count and serves 5 ms early.
func TestJoinGraceBatchesLateRank(t *testing.T) {
	col := obs.NewCollector()
	cl := tracedCluster(1, col)
	r := NewRunner(cl, DefaultConfig())
	const lag = 5 * time.Millisecond
	r.Add(lateJoin{delays: []time.Duration{0, 0, 0, lag, 2 * maxFillWait}},
		ModeDataDriven, AddOptions{RanksPerNode: 8})
	if !r.Run(time.Hour) {
		t.Fatal("run did not finish")
	}
	var late, serve *obs.Instant
	ins := col.Instants()
	for i, in := range ins {
		switch {
		case in.Name == "rank.suspend" && in.Track == "prog0/rank3" && late == nil:
			late = &ins[i]
		case in.Name == "cycle.serve" && serve == nil:
			serve = &ins[i]
		}
	}
	if late == nil || serve == nil {
		t.Fatalf("rank 3 suspended: %v, a cycle served: %v", late != nil, serve != nil)
	}
	if got := argOf(serve.Args, "participants"); got != "4" {
		t.Errorf("first cycle served %s ranks, want 4 (ranks 0-3)", got)
	}
	if want := late.At + joinGrace; serve.At != want {
		t.Errorf("first cycle served at %v, want %v (rank 3 suspended at %v, plus the %v grace)",
			serve.At, want, late.At, joinGrace)
	}
}

func TestGhostRecordsStopAtQuota(t *testing.T) {
	// A tiny quota must bound each cycle's prefetch volume.
	m := workloads.DefaultMPIIOTest()
	m.Procs = 8
	m.FileBytes = 4 << 20
	m.BarrierEvery = 0
	cl := smallCluster(1)
	cfg := DefaultConfig()
	cfg.CacheQuotaBytes = 128 << 10
	r := NewRunner(cl, cfg)
	pr := r.Add(m, ModeDataDriven, AddOptions{RanksPerNode: 8})
	if !r.Run(time.Hour) {
		t.Fatalf("did not finish")
	}
	// More cycles than with the 1MB default: 4MB / (8 ranks x 128KB) = 4+.
	if c := pr.ctrl.Cycles(); c < 3 {
		t.Fatalf("cycles = %d, want several with a 128KB quota", c)
	}
}

func TestGhostEnvHidesRecordedReads(t *testing.T) {
	env := new(ghostEnv)
	env.record("f", []extAlias{{Off: 100, Len: 50}})
	if v := env.Value("f", 120); v != 0 {
		t.Fatalf("recorded offset visible: %d", v)
	}
	if v := env.Value("f", 10); v == 0 {
		t.Fatalf("unrecorded offset hidden")
	}
	if v := env.Value("g", 120); v == 0 {
		t.Fatalf("other file hidden")
	}
}

func TestCycleServesWritebackBeforePrefetch(t *testing.T) {
	// A mixed read/write program (s3asim) must never lose dirty data even
	// though read cycles interleave with writeback.
	s := workloads.DefaultS3asim()
	s.Procs = 8
	s.Queries = 8
	s.FragmentBytes = 1 << 20
	cl := smallCluster(1)
	r := NewRunner(cl, DefaultConfig())
	r.Add(s, ModeDataDriven, AddOptions{RanksPerNode: 8})
	if !r.Run(time.Hour) {
		t.Fatalf("did not finish")
	}
	var written int64
	for _, st := range cl.Stores {
		written += st.BytesWritten()
	}
	var want int64
	for q := 0; q < s.Queries; q++ {
		want += s3asimResultBytes(s, q)
	}
	if written < want {
		t.Fatalf("servers saw %d write bytes, want >= %d", written, want)
	}
}

// s3asimResultBytes mirrors the workload's deterministic result size.
func s3asimResultBytes(s workloads.S3asim, q int) int64 {
	span := s.MaxResult - s.MinResult
	if span <= 0 {
		return s.MinResult
	}
	return s.MinResult + workloads.Content("s3asim-result", int64(q))%span
}
