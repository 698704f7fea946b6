package core

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/workloads"
)

// tracedCluster is smallCluster with a trace collector attached.
func tracedCluster(seed int64, col *obs.Collector) *cluster.Cluster {
	cfg := smallConfig(seed)
	cfg.Obs = col
	return cluster.New(cfg)
}

func argOf(args []obs.Arg, key string) string {
	for _, a := range args {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// TestDecisionLogMatchesTrace runs several DualPar programs that start and
// finish in different slots, so the set of programs evaluated changes from
// slot to slot. Every expanded decision must equal the emc.decision instant
// traced for it, and the rows of one slot must share one PerServerSeek
// backing array.
func TestDecisionLogMatchesTrace(t *testing.T) {
	col := obs.NewCollector()
	cl := tracedCluster(1, col)
	cfg := DefaultConfig()
	cfg.SlotEvery = 20 * time.Millisecond
	r := NewRunner(cl, cfg)
	for i := 0; i < 4; i++ {
		m := smallMPIIOTest(false)
		m.Procs = 4
		m.FileBytes = int64(2+2*i) << 20
		m.FileName = fmt.Sprintf("job%d.dat", i)
		r.Add(m, ModeDualPar, AddOptions{RanksPerNode: 4, FirstNodeIndex: i,
			StartAt: time.Duration(i) * 45 * time.Millisecond})
	}
	if !r.Run(time.Hour) {
		t.Fatal("run did not finish")
	}

	var traced []obs.Instant
	for _, in := range col.Instants() {
		if in.Name == "emc.decision" {
			traced = append(traced, in)
		}
	}
	ds := r.EMCDecisions()
	if len(ds) != len(traced) {
		t.Fatalf("%d decisions, %d emc.decision instants", len(ds), len(traced))
	}
	for i, d := range ds {
		in := traced[i]
		dd := "off"
		if d.DataDriven {
			dd = "on"
		}
		want := []obs.Arg{
			obs.I64("program", int64(d.Program)), obs.F64("io_ratio", d.IORatio),
			obs.F64("improvement", d.Improvement), obs.F64("mis_ratio", d.MisRatio),
			obs.Str("data_driven", dd),
		}
		if in.At != d.At {
			t.Fatalf("decision %d at %v, instant at %v", i, d.At, in.At)
		}
		for _, a := range want {
			if got := argOf(in.Args, a.Key); got != a.Val {
				t.Fatalf("decision %d: %s = %s, instant says %s", i, a.Key, a.Val, got)
			}
		}
	}

	// Group the rows by slot: the program sets must differ across slots
	// (or the log's per-slot layout is untested), and each slot's rows
	// share the slot's fields and seek sample.
	sets := map[string]bool{}
	shared := 0
	for lo := 0; lo < len(ds); {
		hi := lo + 1
		for hi < len(ds) && ds[hi].At == ds[lo].At {
			hi++
		}
		set := ""
		for _, d := range ds[lo:hi] {
			set += strconv.Itoa(d.Program) + ","
			if d.AveSeekDist != ds[lo].AveSeekDist || d.AveReqDist != ds[lo].AveReqDist ||
				d.Improvement != ds[lo].Improvement {
				t.Fatalf("slot at %v: rows disagree on the slot's shared fields", d.At)
			}
			if len(d.PerServerSeek) != len(ds[lo].PerServerSeek) ||
				(len(d.PerServerSeek) > 0 && &d.PerServerSeek[0] != &ds[lo].PerServerSeek[0]) {
				t.Fatalf("slot at %v: rows do not share one PerServerSeek array", d.At)
			}
		}
		sets[set] = true
		if hi-lo > 1 && len(ds[lo].PerServerSeek) > 0 {
			shared++
		}
		lo = hi
	}
	if len(sets) < 3 {
		t.Fatalf("only %d distinct program sets across slots; want programs entering and leaving", len(sets))
	}
	if shared == 0 {
		t.Fatal("no slot evaluated two programs with a seek sample; the sharing check is vacuous")
	}
}

// TestDecisionLogAcrossChunks fills the log past several chunk boundaries
// and checks the expansion against a plainly appended history.
func TestDecisionLogAcrossChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var l decisionLog
	var want []Decision
	for slot := 0; l.n < 3*decisionChunk+17; slot++ {
		s := slotRecord{
			at:          time.Duration(slot) * time.Second,
			aveSeekDist: rng.Float64(), aveReqDist: rng.Float64(), improvement: rng.Float64(),
		}
		if slot%3 != 0 {
			s.perServerSeek = []float64{rng.Float64(), rng.Float64()}
		}
		l.slots = append(l.slots, s)
		for p := 0; p < 1+rng.Intn(300); p++ {
			row := decisionRow{program: int32(p), dataDriven: rng.Intn(2) == 0,
				ioRatio: rng.Float64(), misRatio: rng.Float64()}
			l.add(row)
			want = append(want, Decision{At: s.at, Program: p, IORatio: row.ioRatio,
				AveSeekDist: s.aveSeekDist, AveReqDist: s.aveReqDist,
				Improvement: s.improvement, MisRatio: row.misRatio,
				DataDriven: row.dataDriven, PerServerSeek: s.perServerSeek})
		}
	}
	got := l.decisions()
	if len(got) != len(want) {
		t.Fatalf("%d decisions, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.At != w.At || g.Program != w.Program || g.IORatio != w.IORatio ||
			g.AveSeekDist != w.AveSeekDist || g.AveReqDist != w.AveReqDist ||
			g.Improvement != w.Improvement || g.MisRatio != w.MisRatio ||
			g.DataDriven != w.DataDriven || len(g.PerServerSeek) != len(w.PerServerSeek) {
			t.Fatalf("decision %d = %+v, want %+v", i, g, w)
		}
	}
	if (&decisionLog{}).decisions() != nil {
		t.Fatal("an empty log expanded to a non-nil history")
	}
}

// cyclePrefetchBytes sums the bytes of prog 0's CRM prefetch requests per
// cycle: a request belongs to the latest cycle.serve at or before its
// start, which covers both the served wave and the overflow wave that
// runs after the ranks resume.
func cyclePrefetchBytes(col *obs.Collector) []int64 {
	var serves []time.Duration
	for _, in := range col.Instants() {
		if in.Name == "cycle.serve" && in.Track == "prog0/ctrl" {
			serves = append(serves, in.At)
		}
	}
	out := make([]int64, len(serves))
	for _, sp := range col.Spans() {
		if sp.Stage != obs.StageRequest || argOf(sp.Args, "verb") != "crm-prefetch" {
			continue
		}
		c := -1
		for c+1 < len(serves) && serves[c+1] <= sp.Start {
			c++
		}
		b, _ := strconv.ParseInt(argOf(sp.Args, "bytes"), 10, 64)
		out[c] += b
	}
	return out
}

// TestWishListsRecycledUnderPipelining runs a pipelined data-driven
// program whose overflow prefetch from one cycle is still in flight while
// the next cycle fills. Recycling must not let a list be refilled while a
// CRM proc still holds it: each cycle prefetches exactly the bytes it did
// when every cycle allocated fresh lists. The spare pools stay bounded.
func TestWishListsRecycledUnderPipelining(t *testing.T) {
	col := obs.NewCollector()
	cl := tracedCluster(1, col)
	cfg := DefaultConfig()
	cfg.PipelineDepth = 2
	cfg.CacheQuotaBytes = 512 << 10
	// The overflow wave is still unconsumed when the next cycle closes the
	// mis-prefetch sample; keep the guard from ending the run's cycles.
	cfg.MisPrefetchThreshold = 0.6
	r := NewRunner(cl, cfg)
	n := workloads.DefaultNoncontig()
	n.Procs = 8
	n.FileBytes = 64 << 20
	pr := r.Add(n, ModeDataDriven, AddOptions{RanksPerNode: 4})
	if !r.Run(time.Hour) {
		t.Fatal("run did not finish")
	}

	// The overlap this test is about: a prefetch request still running
	// when a later cycle begins filling. Only overflow waves can: the
	// served wave finishes before the ranks resume.
	overlaps := 0
	for _, in := range col.Instants() {
		if in.Name != "cycle.fill" {
			continue
		}
		for _, sp := range col.Spans() {
			if sp.Stage == obs.StageRequest && argOf(sp.Args, "verb") == "crm-prefetch" &&
				sp.Start < in.At && in.At < sp.End {
				overlaps++
				break
			}
		}
	}
	if overlaps < 2 {
		t.Fatalf("%d cycle fills overlapped an overflow prefetch, want several", overlaps)
	}

	// Recorded from the same run when each cycle allocated its lists. A
	// list refilled while a CRM proc still held it changes the timeline
	// even where the per-cycle totals survive.
	if got, want := pr.Elapsed(), 775977145*time.Nanosecond; got != want {
		t.Errorf("elapsed %v, want %v", got, want)
	}
	const mb = 1 << 20
	want := []int64{8 * mb, 8 * mb, 8 * mb, 8 * mb, 8 * mb, 8 * mb, 8 * mb, 8 * mb,
		8 * mb, 8 * mb, 8 * mb, 8 * mb, 8 * mb, 8 * mb, 8 * mb, 4 * mb}
	if got := cyclePrefetchBytes(col); !slices.Equal(got, want) {
		t.Errorf("per-cycle prefetch bytes = %#v, want %#v", got, want)
	}

	c := pr.ctrl
	if c.cycles < 8 {
		t.Fatalf("%d cycles; too few to show reuse", c.cycles)
	}
	if got := c.spareWish.Len(); got > 4 {
		t.Errorf("%d spare wish lists after %d cycles, want at most 4", got, c.cycles)
	}
	if got := r.ghostEnvs.Len(); got > n.Procs {
		t.Errorf("%d pooled ghost recorders for %d ranks", got, n.Procs)
	}
	// Drain the pools: no record is pooled twice, and no pooled wish list
	// is the pair the controller fills next or still holds requests.
	spare := map[*fileExtents]bool{c.wish: true, c.wish2: true}
	for c.spareWish.Len() > 0 {
		w := c.spareWish.Get()
		if spare[w] {
			t.Fatal("a spare wish list is pooled twice or also in use")
		}
		if len(w.files) != 0 {
			t.Errorf("a spare wish list still lists %v", w.files)
		}
		spare[w] = true
	}
	envs := map[*ghostEnv]bool{}
	for r.ghostEnvs.Len() > 0 {
		e := r.ghostEnvs.Get()
		if envs[e] {
			t.Fatal("a ghost recorder is pooled twice")
		}
		envs[e] = true
	}
}

// TestGhostEnvValueMatchesLinearScan checks the binary search against a
// linear scan over random canonical recorded sets.
func TestGhostEnvValueMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	env := new(ghostEnv)
	for trial := 0; trial < 200; trial++ {
		env.reset()
		for i := 0; i < rng.Intn(40); i++ {
			env.record("f", []ext.Extent{{Off: rng.Int63n(4000), Len: rng.Int63n(120)}})
		}
		xs := env.recorded["f"]
		for off := int64(-5); off < 4200; off++ {
			want := workloads.Content("f", off)
			for _, r := range xs {
				if r.Contains(off, 1) {
					want = 0
					break
				}
			}
			if got := env.Value("f", off); got != want {
				t.Fatalf("trial %d: Value(%d) = %d, linear scan says %d over %v", trial, off, got, want, xs)
			}
		}
	}
}
