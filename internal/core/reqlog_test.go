package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/workloads"
)

// logProbe is a workload whose every rank alternates a read of a.dat and a
// write of b.dat, each op carrying one zero-length extent that must not be
// logged.
type logProbe struct{ procs int }

func (logProbe) Name() string { return "logprobe" }
func (l logProbe) Ranks() int { return l.procs }
func (l logProbe) NewRank(r int) workloads.RankGen {
	return &logProbeGen{procs: l.procs, rank: r}
}
func (logProbe) Files() []workloads.FileSpec {
	return []workloads.FileSpec{
		{Name: "a.dat", Size: 1 << 20, Precreate: true},
		{Name: "b.dat", Size: 1 << 20, Precreate: true},
	}
}

type logProbeGen struct{ procs, rank, step int }

func (g *logProbeGen) Next(workloads.Env) workloads.Op {
	if g.step >= 8 {
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

func (g *logProbeGen) Clone() workloads.RankGen {
	cp := *g
	return &cp
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

// sortedCopy returns fe's extents per file, sorted.
func sortedCopy(fe *fileExtents) map[string][]ext.Extent {
	out := make(map[string][]ext.Extent)
	for _, f := range fe.files {
		xs := append([]ext.Extent(nil), fe.byFile[f]...)
		ext.Sort(xs)
		out[f] = xs
	}
	return out
}

// Only programs EMC manages log requests: ReqDist pools no one else's. A
// dualpar program's log holds exactly its ops' non-empty extents.
func TestRequestLogOnlyForEMCManagedPrograms(t *testing.T) {
	prog := logProbe{procs: 4}
	want := opExtents(prog)
	for _, mode := range []Mode{ModeVanilla, ModeCollective, ModeStrategy2, ModeDualPar} {
		cfg := DefaultConfig()
		cfg.SlotEvery = time.Hour // no slot drains the log before the run ends
		r := NewRunner(smallCluster(1), cfg)
		pr := r.Add(prog, mode, AddOptions{RanksPerNode: 4})
		if !r.Run(time.Minute) {
			t.Fatalf("%v: run did not finish", mode)
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
		for f, xs := range pr.log.byFile {
			if len(xs) != 0 {
				t.Fatalf("at %v: slot left %d extents of %s in the log", at, len(xs), f)
			}
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
// fresh map. They pin that the per-file extent lists give the same bits.
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
		sort.Slice(rs, func(i, j int) bool { return rs[i].Ext.Off < rs[j].Ext.Off })
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

// Three programs log requests to three files, pooled in program order as
// EMC's slot does. Offsets come from a small set, so many requests tie at
// one offset with unequal lengths: the sum then depends on the order the
// sort sees, which must match the record-based pooling exactly.
func TestReqDistMatchesRecordReference(t *testing.T) {
	files := []string{"c.dat", "a.dat", "b.dat"}
	lens := []int64{0, 512, 4 << 10, 64 << 10, 1 << 20}
	if got := reqDistSectors(&fileExtents{}); got != 1 {
		t.Fatalf("empty ReqDist = %g, want 1", got)
	}
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var records []refRecord
		var pool fileExtents
		for prog := 0; prog < 3; prog++ {
			var log fileExtents
			for op := rng.Intn(40); op > 0; op-- {
				f := files[rng.Intn(len(files))]
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
		want := refReqDistSectors(records)
		if got := reqDistSectors(&pool); got != want {
			t.Fatalf("seed %d: ReqDist = %v, record reference = %v", seed, got, want)
		}
	}
}
