package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/sim"
	"dualpar/internal/workloads"
)

// logProbe is a workload whose every rank alternates a read of a.dat and a
// write of b.dat, each op carrying one zero-length extent that must not be
// logged. With hold set, each rank then computes for an hour, so the
// program is still running when a short Run returns.
type logProbe struct {
	procs int
	hold  bool
}

func (logProbe) Name() string { return "logprobe" }
func (l logProbe) Ranks() int { return l.procs }
func (l logProbe) NewRank(r int) workloads.RankGen {
	return &logProbeGen{procs: l.procs, hold: l.hold, rank: r}
}
func (logProbe) Files() []workloads.FileSpec {
	return []workloads.FileSpec{
		{Name: "a.dat", Size: 1 << 20, Precreate: true},
		{Name: "b.dat", Size: 1 << 20, Precreate: true},
	}
}

type logProbeGen struct {
	procs, rank, step int
	hold              bool
}

func (g *logProbeGen) Next(workloads.Env) workloads.Op {
	if g.step >= 8 {
		if g.hold && g.step == 8 {
			g.step++
			return workloads.Op{Kind: workloads.OpCompute, Dur: time.Hour}
		}
		return workloads.Op{Kind: workloads.OpDone}
	}
	off := int64(g.step*g.procs+g.rank) * (4 << 10)
	op := workloads.Op{Kind: workloads.OpRead, File: "a.dat"}
	if g.step%2 == 1 {
		op.Kind, op.File = workloads.OpWrite, "b.dat"
	}
	op.Extents = []ext.Extent{{Off: off, Len: 4 << 10}, {Off: off}}
	g.step++
	return op
}

func (g *logProbeGen) Clone(into workloads.RankGen) workloads.RankGen {
	return workloads.CloneInto(g, into)
}

// opExtents replays every rank of prog and returns its ops' extents per
// file, sorted, with zero-length extents dropped.
func opExtents(prog workloads.Program) map[string][]ext.Extent {
	out := make(map[string][]ext.Extent)
	for r := 0; r < prog.Ranks(); r++ {
		gen := prog.NewRank(r)
		for op := gen.Next(workloads.TrueEnv{}); op.Kind != workloads.OpDone; op = gen.Next(workloads.TrueEnv{}) {
			for _, e := range op.Extents {
				if e.Len > 0 {
					out[op.File] = append(out[op.File], e)
				}
			}
		}
	}
	for _, xs := range out {
		ext.Sort(xs)
	}
	return out
}

// sortedCopy returns fe's non-empty extents per file, sorted.
func sortedCopy(fe *fileExtents) map[string][]ext.Extent {
	out := make(map[string][]ext.Extent)
	for _, f := range fe.files {
		var xs []ext.Extent
		for _, req := range fe.byFile[f] {
			for _, e := range req {
				if e.Len > 0 {
					xs = append(xs, e)
				}
			}
		}
		ext.Sort(xs)
		out[f] = xs
	}
	return out
}

// Only programs EMC manages log requests: ReqDist pools no one else's. A
// dualpar program's log holds exactly its ops' non-empty extents.
func TestRequestLogOnlyForEMCManagedPrograms(t *testing.T) {
	prog := logProbe{procs: 4, hold: true}
	want := opExtents(prog)
	for _, mode := range []Mode{ModeVanilla, ModeCollective, ModeStrategy2, ModeDualPar} {
		cfg := DefaultConfig()
		cfg.SlotEvery = time.Hour // no slot drains the log before the run ends
		r := NewRunner(smallCluster(1), cfg)
		pr := r.Add(prog, mode, AddOptions{RanksPerNode: 4})
		// The ranks end in an hour-long compute, so the program is still
		// running, and its log still held, when Run returns.
		if r.Run(time.Minute) || pr.Done {
			t.Fatalf("%v: run finished before the log was read", mode)
		}
		if pr.Instr().TotalBytes() == 0 {
			t.Fatalf("%v: program moved no bytes", mode)
		}
		if !mode.EMCManaged() {
			if len(pr.log.files) != 0 {
				t.Errorf("%v: logged %v, want nothing", mode, pr.log.files)
			}
			continue
		}
		if got := sortedCopy(&pr.log); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: log = %v, want %v", mode, got, want)
		}
	}
}

// holdProbe is a one-rank program that computes for an hour and reads
// nothing, so a test proc can issue reads on rank 0's behalf.
type holdProbe struct{}

func (holdProbe) Name() string { return "holdprobe" }
func (holdProbe) Ranks() int   { return 1 }
func (holdProbe) NewRank(int) workloads.RankGen {
	return &logProbeGen{step: 8, hold: true}
}
func (holdProbe) Files() []workloads.FileSpec {
	return []workloads.FileSpec{{Name: "a.dat", Size: 1 << 20, Precreate: true}}
}

// A data-driven read that falls back to a direct read logs its miss list.
// The list lives in the rank's reused miss buffer and the log keeps lists
// by reference, so the logged request must be a copy: the rank's next Get
// must not rewrite it.
func TestFallbackLogSurvivesMissBufferReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlotEvery = time.Hour
	r := NewRunner(smallCluster(1), cfg)
	pr := r.Add(holdProbe{}, ModeDataDriven, AddOptions{RanksPerNode: 1})
	first := []ext.Extent{{Off: 0, Len: 4 << 10}, {Off: 128 << 10, Len: 4 << 10}}
	second := []ext.Extent{{Off: 256 << 10, Len: 4 << 10}}
	var logged, want []ext.Extent
	r.cl.K.SpawnAt(time.Second, "reader", func(p *sim.Proc) {
		pr.dataDriven = false // every miss falls back
		pr.dataDrivenRead(p, 0, nil, workloads.Op{Kind: workloads.OpRead, File: "a.dat", Extents: first})
		logged = pr.log.byFile["a.dat"][0]
		want = slices.Clone(logged)
		pr.dataDrivenRead(p, 0, nil, workloads.Op{Kind: workloads.OpRead, File: "a.dat", Extents: second})
	})
	r.Run(time.Minute)
	if !slices.Equal(want, first) {
		t.Fatalf("fallback logged %v, want its misses %v", want, first)
	}
	if !slices.Equal(logged, want) {
		t.Errorf("logged request became %v after the rank's next Get, want %v", logged, want)
	}
}

// holdsRequests reports whether any slot of fe's per-file lists, up to its
// capacity, still references a request's extents.
func holdsRequests(fe *fileExtents) bool {
	for _, reqs := range fe.byFile {
		for _, req := range reqs[:cap(reqs)] {
			if req != nil {
				return true
			}
		}
	}
	return false
}

// A finished program's log is released: EMC never pools it again, and
// holding the generator's op slices would keep them alive for the rest of
// the run. This holds for a clean finish and for a client crash, after
// which ranks still mid-op must not log.
func TestFinishedProgramReleasesRequestLog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlotEvery = time.Hour
	r := NewRunner(smallCluster(1), cfg)
	var prs []*ProgramRun
	for _, mode := range []Mode{ModeDualPar, ModeDataDriven} {
		prs = append(prs, r.Add(logProbe{procs: 4}, mode, AddOptions{RanksPerNode: 4}))
	}
	crashed := r.Add(logProbe{procs: 4, hold: true}, ModeDualPar, AddOptions{RanksPerNode: 4})
	r.cl.K.After(30*time.Second, func() { crashed.clientCrash(r.cl.K.Now()) })
	if !r.Run(time.Minute) {
		t.Fatal("run did not finish")
	}
	for _, pr := range append(prs, crashed) {
		if pr.Instr().TotalBytes() == 0 {
			t.Fatalf("program %d moved no bytes", pr.id)
		}
		if len(pr.log.files) != 0 || holdsRequests(&pr.log) {
			t.Errorf("program %d (%v) finished holding its request log", pr.id, pr.mode)
		}
	}
	if !crashed.Crashed() {
		t.Error("the held program was not crashed")
	}
}

// An EMC slot pools a running program's log and empties it, so the next
// slot pools only what was logged after this one.
func TestEMCSlotDrainsRequestLog(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SlotEvery = time.Hour
	r := NewRunner(smallCluster(1), cfg)
	pr := r.Add(smallMPIIOTest(false), ModeDualPar, AddOptions{RanksPerNode: 4})
	drain := func(at time.Duration) {
		t.Helper()
		logged := sortedCopy(&pr.log)
		if len(logged) == 0 || pr.Done {
			t.Fatalf("at %v: nothing logged or the run finished before the slot", at)
		}
		r.emc.slot()
		if len(pr.log.files) != 0 {
			t.Fatalf("at %v: slot left the log listing %v", at, pr.log.files)
		}
		for f, reqs := range pr.log.byFile {
			if len(reqs) != 0 {
				t.Fatalf("at %v: slot left %d requests of %s in the log", at, len(reqs), f)
			}
		}
		if holdsRequests(&pr.log) {
			t.Fatalf("at %v: the drained log still references requests", at)
		}
		if pooled := sortedCopy(&r.emc.pool); !reflect.DeepEqual(pooled, logged) {
			t.Fatalf("at %v: pool = %v, want the drained log %v", at, pooled, logged)
		}
	}
	if r.Run(50 * time.Millisecond) {
		t.Fatal("run finished before the slot under test")
	}
	drain(50 * time.Millisecond)
	r.cl.K.RunUntil(60 * time.Millisecond)
	drain(60 * time.Millisecond)
}

// refRecord and refReqDistSectors are the record-based ReqDist that
// reqDistSectors replaced: one record per request, regrouped per file in a
// fresh map and sorted by (offset, length). They pin that the merged
// per-file request lists give the same bits.
type refRecord struct {
	File string
	Ext  ext.Extent
}

func refReqDistSectors(records []refRecord) float64 {
	if len(records) == 0 {
		return 1
	}
	byFile := make(map[string][]refRecord)
	var files []string
	for _, r := range records {
		if _, ok := byFile[r.File]; !ok {
			files = append(files, r.File)
		}
		byFile[r.File] = append(byFile[r.File], r)
	}
	sort.Strings(files)
	var total float64
	var n int
	for _, f := range files {
		rs := byFile[f]
		sort.Slice(rs, func(i, j int) bool {
			a, b := rs[i].Ext, rs[j].Ext
			return a.Off < b.Off || a.Off == b.Off && a.Len < b.Len
		})
		for i := 1; i < len(rs); i++ {
			d := rs[i].Ext.Off - rs[i-1].Ext.Off
			if d < rs[i-1].Ext.Len {
				d = rs[i-1].Ext.Len
			}
			total += float64(d)
			n++
		}
		if len(rs) == 1 {
			total += float64(rs[0].Ext.Len)
			n++
		}
	}
	if n == 0 {
		return 1
	}
	sectors := total / float64(n) / 512
	if sectors < 1 {
		sectors = 1
	}
	return sectors
}

// reqDistFiles are the files randomPool's requests go to.
var reqDistFiles = []string{"c.dat", "a.dat", "b.dat"}

// randomPool pools three programs' logs of requests to three files, in
// program order as EMC's slot does. Offsets come from a small set, so many
// requests tie at one offset with unequal lengths, and a request's extents
// need not ascend. It returns the pool and one record per non-empty
// extent.
func randomPool(rng *rand.Rand) (*fileExtents, []refRecord) {
	lens := []int64{0, 512, 4 << 10, 64 << 10, 1 << 20}
	var records []refRecord
	pool := new(fileExtents)
	for prog := 0; prog < 3; prog++ {
		var log fileExtents
		for op := rng.Intn(40); op > 0; op-- {
			f := reqDistFiles[rng.Intn(len(reqDistFiles))]
			xs := make([]ext.Extent, 1+rng.Intn(3))
			for i := range xs {
				xs[i] = ext.Extent{Off: int64(rng.Intn(16)) * 4096, Len: lens[rng.Intn(len(lens))]}
				if xs[i].Len > 0 {
					records = append(records, refRecord{File: f, Ext: xs[i]})
				}
			}
			log.add(f, xs)
		}
		pool.addAll(&log)
	}
	return pool, records
}

// The merged ReqDist matches the record-based reference bit for bit.
func TestReqDistMatchesRecordReference(t *testing.T) {
	var m ext.Merger
	if got := reqDistSectors(&fileExtents{}, &m); got != 1 {
		t.Fatalf("empty ReqDist = %g, want 1", got)
	}
	for seed := int64(1); seed <= 300; seed++ {
		pool, records := randomPool(rand.New(rand.NewSource(seed)))
		want := refReqDistSectors(records)
		if got := reqDistSectors(pool, &m); got != want {
			t.Fatalf("seed %d: ReqDist = %v, record reference = %v", seed, got, want)
		}
	}
}

// ReqDist is a function of the pooled requests alone: permuting the
// requests of each file, and the extents within each request, gives the
// same bits.
func TestReqDistIgnoresPoolOrder(t *testing.T) {
	var m ext.Merger
	for seed := int64(1); seed <= 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pool, _ := randomPool(rng)
		want := reqDistSectors(pool, &m)
		for trial := 0; trial < 5; trial++ {
			shuffled := new(fileExtents)
			files := append([]string(nil), pool.files...)
			rng.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })
			for _, f := range files {
				reqs := append([][]ext.Extent(nil), pool.byFile[f]...)
				rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
				for _, req := range reqs {
					xs := append([]ext.Extent(nil), req...)
					rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
					shuffled.add(f, xs)
				}
			}
			if got := reqDistSectors(shuffled, &m); got != want {
				t.Fatalf("seed %d trial %d: permuted ReqDist = %v, want %v", seed, trial, got, want)
			}
		}
	}
}
