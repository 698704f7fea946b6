package workloads

import (
	"testing"

	"dualpar/internal/ext"
)

// drain runs a generator to completion, returning all ops.
func drain(t *testing.T, g RankGen, limit int) []Op {
	t.Helper()
	var ops []Op
	for i := 0; i < limit; i++ {
		op := g.Next(TrueEnv{})
		if op.Kind == OpDone {
			return ops
		}
		ops = append(ops, op)
	}
	t.Fatalf("generator did not finish within %d ops", limit)
	return nil
}

// ioBytes sums the I/O volume of ops of the given kind.
func ioBytes(ops []Op, kind OpKind) int64 {
	var t int64
	for _, op := range ops {
		if op.Kind == kind {
			t += op.Bytes()
		}
	}
	return t
}

// coverage merges all extents of a kind across ranks of a program.
func coverage(t *testing.T, prog Program, kind OpKind, limit int) []ext.Extent {
	t.Helper()
	var all []ext.Extent
	for r := 0; r < prog.Ranks(); r++ {
		for _, op := range drain(t, prog.NewRank(r), limit) {
			if op.Kind == kind {
				all = append(all, op.Extents...)
			}
		}
	}
	return ext.Merge(all)
}

func TestDemoCoversFileExactly(t *testing.T) {
	d := DefaultDemo()
	d.FileBytes = 8 << 20
	cov := coverage(t, d, OpRead, 100000)
	if len(cov) != 1 || cov[0] != (ext.Extent{Off: 0, Len: 8 << 20}) {
		t.Fatalf("coverage = %v, want the whole 8MB file once", cov)
	}
}

func TestDemoSegmentInterleaving(t *testing.T) {
	d := DefaultDemo()
	g := d.NewRank(3)
	op := g.Next(TrueEnv{})
	if op.Kind != OpRead || len(op.Extents) != 16 {
		t.Fatalf("first op = %+v, want 16-segment read", op)
	}
	// Segment k of call 0 for rank 3: index k*8+3.
	if op.Extents[0].Off != 3*d.SegBytes {
		t.Fatalf("first segment at %d, want %d", op.Extents[0].Off, 3*d.SegBytes)
	}
	if op.Extents[1].Off != (8+3)*d.SegBytes {
		t.Fatalf("second segment at %d, want %d", op.Extents[1].Off, (8+3)*d.SegBytes)
	}
}

func TestDemoComputeEmitted(t *testing.T) {
	d := DefaultDemo()
	d.ComputePerCall = 1000
	g := d.NewRank(0)
	if op := g.Next(TrueEnv{}); op.Kind != OpCompute {
		t.Fatalf("first op = %+v, want compute", op)
	}
	if op := g.Next(TrueEnv{}); op.Kind != OpRead {
		t.Fatalf("second op = %+v, want read", op)
	}
}

func TestMPIIOTestSequentialAcrossRanks(t *testing.T) {
	m := DefaultMPIIOTest()
	m.FileBytes = 16 << 20
	cov := coverage(t, m, OpRead, 100000)
	if len(cov) != 1 || cov[0].Len != 16<<20 {
		t.Fatalf("coverage = %v, want whole file", cov)
	}
	// Rank r call j reads segment r + P*j.
	g := m.NewRank(2)
	op := g.Next(TrueEnv{})
	if op.Kind != OpRead || op.Extents[0].Off != 2*m.ReqBytes {
		t.Fatalf("rank 2 first op = %+v", op)
	}
	if op := g.Next(TrueEnv{}); op.Kind != OpBarrier {
		t.Fatalf("expected barrier after call, got %+v", op)
	}
	op = g.Next(TrueEnv{})
	if op.Extents[0].Off != (2+64)*m.ReqBytes {
		t.Fatalf("rank 2 second read at %d", op.Extents[0].Off)
	}
}

func TestMPIIOTestWriteMode(t *testing.T) {
	m := DefaultMPIIOTest()
	m.Write = true
	m.FileBytes = 4 << 20
	ops := drain(t, m.NewRank(0), 10000)
	if ioBytes(ops, OpWrite) == 0 || ioBytes(ops, OpRead) != 0 {
		t.Fatalf("write mode emitted reads")
	}
	if m.Files()[0].Precreate {
		t.Fatalf("write-mode file should not be precreated")
	}
}

func TestHPIORegionsContiguousWithSpacing(t *testing.T) {
	h := DefaultHPIO()
	h.Procs = 4
	h.RegionCount = 64
	g := h.NewRank(1)
	ops := drain(t, g, 1000)
	if len(ops) != 16 {
		t.Fatalf("rank ops = %d, want 16 regions", len(ops))
	}
	stride := h.RegionBytes + h.RegionSpacing
	if ops[0].Extents[0].Off != 16*stride {
		t.Fatalf("rank 1 first region at %d, want %d", ops[0].Extents[0].Off, 16*stride)
	}
	gap := ops[1].Extents[0].Off - ops[0].Extents[0].End()
	if gap != h.RegionSpacing {
		t.Fatalf("inter-region gap = %d, want %d", gap, h.RegionSpacing)
	}
}

func TestIORScopesDisjoint(t *testing.T) {
	i := DefaultIOR()
	i.Procs = 8
	i.FileBytes = 8 << 20
	cov := coverage(t, i, OpRead, 100000)
	if len(cov) != 1 || cov[0].Len != 8<<20 {
		t.Fatalf("coverage = %v", cov)
	}
	g := i.NewRank(3)
	op := g.Next(TrueEnv{})
	if op.Extents[0].Off != 3<<20 {
		t.Fatalf("rank 3 starts at %d, want its own scope", op.Extents[0].Off)
	}
}

func TestNoncontigColumnAccess(t *testing.T) {
	n := DefaultNoncontig()
	n.Procs = 4
	n.ElmtCount = 256 // 1 KB cells
	n.FileBytes = 4 << 20
	n.BytesPerCall = 64 << 10
	g := n.NewRank(2)
	op := g.Next(TrueEnv{})
	if op.Kind != OpRead {
		t.Fatalf("op = %+v", op)
	}
	cell := n.CellBytes()
	row := n.RowBytes()
	if op.Extents[0].Off != 2*cell {
		t.Fatalf("first cell at %d, want column 2 offset %d", op.Extents[0].Off, 2*cell)
	}
	if len(op.Extents) < 2 || op.Extents[1].Off != row+2*cell {
		t.Fatalf("second cell = %v, want next row same column", op.Extents)
	}
	cov := coverage(t, n, OpRead, 100000)
	if total := ext.Total(cov); total != n.Rows()*row {
		t.Fatalf("coverage total = %d, want %d", total, n.Rows()*row)
	}
}

func TestBTIOBlockShrinksWithProcs(t *testing.T) {
	for _, tc := range []struct {
		procs int
		block int64
	}{{16, 64}, {64, 16}, {256, 4}} {
		b := DefaultBTIO()
		b.Procs = tc.procs
		if got := b.BlockBytes(); got != tc.block {
			t.Fatalf("P=%d block = %d, want %d", tc.procs, got, tc.block)
		}
	}
}

func TestBTIOStepsCoverFile(t *testing.T) {
	b := DefaultBTIO()
	b.Procs = 8
	b.TotalBytes = 1 << 20
	b.Steps = 2
	cov := coverage(t, b, OpWrite, 100000)
	want := b.StepBytes() * int64(b.Steps)
	if len(cov) != 1 || cov[0].Len != want {
		t.Fatalf("coverage = %v, want contiguous %d", cov, want)
	}
}

func TestBTIOBarrierPerStep(t *testing.T) {
	b := DefaultBTIO()
	b.Procs = 4
	b.TotalBytes = 64 << 10
	b.Steps = 2
	ops := drain(t, b.NewRank(0), 1000)
	barriers := 0
	for _, op := range ops {
		if op.Kind == OpBarrier {
			barriers++
		}
	}
	if barriers != 2 {
		t.Fatalf("barriers = %d, want one per step", barriers)
	}
}

func TestS3asimQueriesPartitioned(t *testing.T) {
	s := DefaultS3asim()
	s.Procs = 4
	s.Queries = 8
	var writes int
	for r := 0; r < s.Procs; r++ {
		ops := drain(t, s.NewRank(r), 10000)
		for _, op := range ops {
			if op.Kind == OpWrite {
				writes++
			}
		}
	}
	if writes != s.Queries {
		t.Fatalf("result writes = %d, want one per query", writes)
	}
}

func TestS3asimResultsPackedWithoutOverlap(t *testing.T) {
	s := DefaultS3asim()
	s.Procs = 4
	s.Queries = 8
	var results []ext.Extent
	for r := 0; r < s.Procs; r++ {
		for _, op := range drain(t, s.NewRank(r), 10000) {
			if op.Kind == OpWrite {
				results = append(results, op.Extents...)
			}
		}
	}
	merged := ext.Merge(results)
	if ext.Total(merged) != ext.Total(results) {
		t.Fatalf("result writes overlap: %v", results)
	}
	if len(merged) != 1 || merged[0].Off != 0 {
		t.Fatalf("results not packed from 0: %v", merged)
	}
}

func TestS3asimVariableResultSizes(t *testing.T) {
	s := DefaultS3asim()
	sizes := map[int64]bool{}
	for q := 0; q < 16; q++ {
		sz := s.resultBytes(q)
		if sz < s.MinResult || sz >= s.MaxResult {
			t.Fatalf("result size %d outside [%d,%d)", sz, s.MinResult, s.MaxResult)
		}
		sizes[sz] = true
	}
	if len(sizes) < 4 {
		t.Fatalf("result sizes not variable: %v", sizes)
	}
}

func TestDependentReaderChainsOffsets(t *testing.T) {
	d := DefaultDependentReader()
	g := d.NewRank(0)
	ops := drain(t, g, 1000)
	if len(ops) != d.CallsPerRank {
		t.Fatalf("calls = %d, want %d", len(ops), d.CallsPerRank)
	}
	// Re-running with the same env gives the same chain (determinism).
	g2 := d.NewRank(0)
	ops2 := drain(t, g2, 1000)
	for i := range ops {
		if ops[i].Extents[0] != ops2[i].Extents[0] {
			t.Fatalf("chain not deterministic at %d", i)
		}
	}
}

type zeroEnv struct{}

func (zeroEnv) Value(string, int64) int64 { return 0 }

func TestDependentReaderDivergesUnderZeroEnv(t *testing.T) {
	d := DefaultDependentReader()
	real := drain(t, d.NewRank(0), 1000)
	g := d.NewRank(0)
	var ghost []Op
	for i := 0; i < d.CallsPerRank; i++ {
		ghost = append(ghost, g.Next(zeroEnv{}))
	}
	// First read matches (offset decided before any data), later ones
	// diverge.
	if real[0].Extents[0] != ghost[0].Extents[0] {
		t.Fatalf("first reads differ")
	}
	diverged := false
	for i := 1; i < len(real); i++ {
		if real[i].Extents[0] != ghost[i].Extents[0] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Fatalf("zero env did not change the chain")
	}
	// Ghost offsets are still distinct call to call (fills the cache with
	// garbage rather than re-reading one block).
	seen := map[int64]bool{}
	for _, op := range ghost[:8] {
		seen[op.Extents[0].Off] = true
	}
	if len(seen) < 4 {
		t.Fatalf("ghost offsets not distinct: %v", seen)
	}
}

func TestCloneIndependence(t *testing.T) {
	progs := []Program{
		DefaultDemo(), DefaultMPIIOTest(), DefaultHPIO(), DefaultIOR(),
		DefaultNoncontig(), DefaultBTIO(), DefaultS3asim(), DefaultDependentReader(),
	}
	for _, prog := range progs {
		g := prog.NewRank(0)
		// Advance a few ops, clone, and check both produce identical tails.
		for i := 0; i < 3; i++ {
			g.Next(TrueEnv{})
		}
		c := g.Clone(nil)
		for i := 0; i < 10; i++ {
			a := g.Next(TrueEnv{})
			b := c.Next(TrueEnv{})
			if a.Kind != b.Kind || a.Bytes() != b.Bytes() {
				t.Fatalf("%s: clone diverged at op %d: %+v vs %+v", prog.Name(), i, a, b)
			}
			if len(a.Extents) > 0 && a.Extents[0] != b.Extents[0] {
				t.Fatalf("%s: clone extents diverged: %v vs %v", prog.Name(), a.Extents, b.Extents)
			}
		}
		// Clone advancing must not disturb the original's subsequent ops.
		c2 := g.Clone(nil)
		for i := 0; i < 5; i++ {
			c2.Next(TrueEnv{})
		}
		a := g.Next(TrueEnv{})
		g2 := prog.NewRank(0)
		for i := 0; i < 13; i++ { // g consumed 3 + 10 ops so far
			g2.Next(TrueEnv{})
		}
		b := g2.Next(TrueEnv{})
		if a.Kind != b.Kind {
			t.Fatalf("%s: original disturbed by clone", prog.Name())
		}
	}
}

func TestContentDeterministicAndSpread(t *testing.T) {
	if Content("f", 0) != Content("f", 0) {
		t.Fatalf("content not deterministic")
	}
	if Content("f", 0) == Content("f", 8) || Content("f", 0) == Content("g", 0) {
		t.Fatalf("content collisions on trivial inputs")
	}
	if Content("f", 123) < 0 {
		t.Fatalf("content negative")
	}
}

func TestAllProgramsFinish(t *testing.T) {
	progs := []Program{
		DefaultDemo(), DefaultMPIIOTest(), DefaultHPIO(), DefaultIOR(),
		DefaultNoncontig(), DefaultBTIO(), DefaultS3asim(), DefaultDependentReader(),
	}
	for _, prog := range progs {
		for _, r := range []int{0, prog.Ranks() - 1} {
			g := prog.NewRank(r)
			n := 0
			for ; n < 2_000_000; n++ {
				if g.Next(TrueEnv{}).Kind == OpDone {
					break
				}
			}
			if n == 2_000_000 {
				t.Fatalf("%s rank %d did not finish", prog.Name(), r)
			}
			// OpDone must be sticky.
			if g.Next(TrueEnv{}).Kind != OpDone {
				t.Fatalf("%s: OpDone not sticky", prog.Name())
			}
		}
	}
}

func TestProgramMetadata(t *testing.T) {
	cases := []struct {
		prog      Program
		name      string
		precreate bool
	}{
		{DefaultDemo(), "demo", true},
		{DefaultMPIIOTest(), "mpi-io-test", true},
		{DefaultHPIO(), "hpio", true},
		{DefaultIOR(), "ior-mpi-io", true},
		{DefaultNoncontig(), "noncontig", true},
		{DefaultBTIO(), "btio", false}, // write phase: created by writing
		{DefaultDependentReader(), "dependent-reader", true},
	}
	for _, c := range cases {
		if c.prog.Name() != c.name {
			t.Fatalf("name = %q, want %q", c.prog.Name(), c.name)
		}
		files := c.prog.Files()
		if len(files) == 0 {
			t.Fatalf("%s: no files", c.name)
		}
		if files[0].Precreate != c.precreate {
			t.Fatalf("%s: precreate = %v, want %v", c.name, files[0].Precreate, c.precreate)
		}
		if c.prog.Ranks() <= 0 {
			t.Fatalf("%s: ranks = %d", c.name, c.prog.Ranks())
		}
	}
	s := DefaultS3asim()
	if s.Name() != "s3asim" || len(s.Files()) != 2 {
		t.Fatalf("s3asim metadata wrong")
	}
}

func TestEmptyFileNamePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic for empty file name", name)
			}
		}()
		fn()
	}
	d := DefaultDemo()
	d.FileName = ""
	mustPanic("demo", func() { d.NewRank(0) })
	m := DefaultMPIIOTest()
	m.FileName = ""
	mustPanic("mpiiotest", func() { m.NewRank(0) })
	h := DefaultHPIO()
	h.FileName = ""
	mustPanic("hpio", func() { h.NewRank(0) })
	i := DefaultIOR()
	i.FileName = ""
	mustPanic("ior", func() { i.NewRank(0) })
	n := DefaultNoncontig()
	n.FileName = ""
	mustPanic("noncontig", func() { n.NewRank(0) })
	b := DefaultBTIO()
	b.FileName = ""
	mustPanic("btio", func() { b.NewRank(0) })
	dr := DefaultDependentReader()
	dr.FileName = ""
	mustPanic("depreader", func() { dr.NewRank(0) })
	s := DefaultS3asim()
	s.DBName = ""
	mustPanic("s3asim", func() { s.NewRank(0) })
}

func TestBTIOReadPhase(t *testing.T) {
	b := DefaultBTIO()
	b.Read = true
	b.Procs = 4
	b.TotalBytes = 256 << 10
	b.Steps = 1
	if !b.Files()[0].Precreate {
		t.Fatalf("read phase should precreate")
	}
	ops := drain(t, b.NewRank(0), 1000)
	if ioBytes(ops, OpRead) == 0 || ioBytes(ops, OpWrite) != 0 {
		t.Fatalf("read phase emitted writes")
	}
}

func TestCheckpointTilesEachStep(t *testing.T) {
	c := DefaultCheckpoint()
	c.Procs = 4
	c.Checkpoints = 2
	cov := coverage(t, c, OpWrite, 1000)
	want := c.TotalBytes()
	if len(cov) != 1 || cov[0] != (ext.Extent{Off: 0, Len: want}) {
		t.Fatalf("coverage = %v, want contiguous %d bytes", cov, want)
	}
	// Blocks are unaligned to 4K pages and 64K stripes by construction.
	g := c.NewRank(1)
	var op Op
	for op = g.Next(TrueEnv{}); op.Kind != OpWrite; op = g.Next(TrueEnv{}) {
	}
	if op.Extents[0].Off%4096 == 0 {
		t.Fatalf("rank 1 block at %d is page-aligned; 47KB blocks must not be", op.Extents[0].Off)
	}
}

func TestCheckpointBarriersBetweenSteps(t *testing.T) {
	c := DefaultCheckpoint()
	c.Procs = 4
	c.Checkpoints = 3
	ops := drain(t, c.NewRank(0), 100)
	barriers := 0
	for _, op := range ops {
		if op.Kind == OpBarrier {
			barriers++
		}
	}
	if barriers != 3 {
		t.Fatalf("barriers = %d, want one per checkpoint", barriers)
	}
}
