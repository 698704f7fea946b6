package harness

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"dualpar/internal/core"
	"dualpar/internal/fault"
	"dualpar/internal/workloads"
)

// cell parses a table cell as float.
func cell(t *testing.T, res *Result, row, col int) float64 {
	t.Helper()
	if row >= len(res.Table.Rows) || col >= len(res.Table.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d) in\n%s", res.ID, row, col, res.Table.String())
	}
	s := strings.TrimSuffix(res.Table.Rows[row][col], "%")
	s = strings.TrimSuffix(s, "KB")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q not numeric", res.ID, row, col, res.Table.Rows[row][col])
	}
	return v
}

func quick() Opts { return Opts{Quick: true} }

func TestFig1aShapes(t *testing.T) {
	res := Fig1a(quick())
	// Quick ratios: 31%, 86%, 100%. Columns: 1=s1, 2=s2, 3=s3.
	// At low I/O ratio strategy 2 beats strategy 3.
	if !(cell(t, res, 0, 2) < cell(t, res, 0, 3)) {
		t.Errorf("at 31%% ratio, strategy2 should beat strategy3:\n%s", res.Table.String())
	}
	// At ~100% I/O ratio strategy 3 wins outright.
	last := len(res.Table.Rows) - 1
	if !(cell(t, res, last, 3) < cell(t, res, last, 2)) || !(cell(t, res, last, 3) < cell(t, res, last, 1)) {
		t.Errorf("at 100%% ratio, strategy3 should win:\n%s", res.Table.String())
	}
}

func TestFig1bSmallSegmentsFavorStrategy3(t *testing.T) {
	res := Fig1b(quick())
	// 4KB row: strategy3 well below strategy1.
	if !(cell(t, res, 0, 3) < cell(t, res, 0, 1)*0.7) {
		t.Errorf("at 4KB segments strategy3 should clearly beat strategy1:\n%s", res.Table.String())
	}
	// 128KB row: the three schemes converge (within 2x).
	lo, hi := cell(t, res, 2, 1), cell(t, res, 2, 1)
	for c := 2; c <= 3; c++ {
		v := cell(t, res, 2, c)
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if hi > 2.2*lo {
		t.Errorf("at 128KB segments schemes should converge:\n%s", res.Table.String())
	}
}

func TestFig1cdOrdering(t *testing.T) {
	res := Fig1cd(quick())
	// Strategy 3's service order must be more monotone than strategy 2's.
	m2, m3 := cell(t, res, 0, 2), cell(t, res, 1, 2)
	if m3 < m2 {
		t.Errorf("strategy3 monotonicity %.2f < strategy2 %.2f:\n%s", m3, m2, res.Table.String())
	}
	if len(res.Series) != 2 {
		t.Errorf("expected 2 LBN series, got %d", len(res.Series))
	}
}

func TestFig3Shapes(t *testing.T) {
	res := Fig3(quick())
	// Rows: mpi-io-test read, noncontig read, ior read, then writes.
	// Columns: 2=vanilla, 3=collective, 4=dualpar.
	for row := 0; row < 6; row++ {
		van, dp := cell(t, res, row, 2), cell(t, res, row, 4)
		if dp <= van {
			t.Errorf("row %d: dualpar %.1f not above vanilla %.1f:\n%s", row, dp, van, res.Table.String())
		}
	}
	// noncontig read: vanilla << collective << dualpar.
	if !(cell(t, res, 1, 2) < cell(t, res, 1, 3) && cell(t, res, 1, 3) < cell(t, res, 1, 4)) {
		t.Errorf("noncontig ordering wrong:\n%s", res.Table.String())
	}
	// ior-mpi-io read: collective loses its edge (<= vanilla * 1.1).
	if cell(t, res, 2, 3) > cell(t, res, 2, 2)*1.1 {
		t.Errorf("ior collective should not beat vanilla:\n%s", res.Table.String())
	}
}

func TestFig4DualParBeatsVanillaAndScales(t *testing.T) {
	res := Fig4(quick())
	for row := range res.Table.Rows {
		van, coll, dp := cell(t, res, row, 2), cell(t, res, row, 3), cell(t, res, row, 4)
		if dp < 10*van {
			t.Errorf("row %d: dualpar %.1f not >> vanilla %.2f:\n%s", row, dp, van, res.Table.String())
		}
		if coll < 10*van {
			t.Errorf("row %d: collective %.1f not >> vanilla %.2f:\n%s", row, coll, van, res.Table.String())
		}
	}
	// DualPar's advantage over collective grows with procs.
	r0 := cell(t, res, 0, 4) / cell(t, res, 0, 3)
	r1 := cell(t, res, 1, 4) / cell(t, res, 1, 3)
	if r1 < r0*0.95 {
		t.Errorf("dualpar/collective ratio should not shrink with procs: %.2f -> %.2f", r0, r1)
	}
}

func TestTable2ConcurrentInstances(t *testing.T) {
	res := Table2(quick())
	for row, rw := range []string{"read", "write"} {
		van, dp := cell(t, res, row, 1), cell(t, res, row, 3)
		if dp < van*1.4 {
			t.Errorf("%s: dualpar %.1f not well above vanilla %.1f:\n%s", rw, dp, van, res.Table.String())
		}
	}
}

func TestFig6SeekReduction(t *testing.T) {
	res := Fig6(quick())
	van, dp := cell(t, res, 0, 3), cell(t, res, 1, 3)
	if dp >= van {
		t.Errorf("dualpar mean seek %.0f not below vanilla %.0f:\n%s", dp, van, res.Table.String())
	}
}

func TestFig8CacheSweep(t *testing.T) {
	res := Fig8(quick())
	zero, small := cell(t, res, 0, 1), cell(t, res, 1, 1)
	if small < zero*5 {
		t.Errorf("64KB cache should be dramatically better than none:\n%s", res.Table.String())
	}
	last := cell(t, res, len(res.Table.Rows)-1, 1)
	if last < small*0.8 {
		t.Errorf("larger caches should not regress far below 64KB:\n%s", res.Table.String())
	}
}

func TestTable3BoundedOverhead(t *testing.T) {
	res := Table3(quick())
	for row := range res.Table.Rows {
		if over := cell(t, res, row, 3); over > 60 {
			t.Errorf("row %d: overhead %.1f%% unbounded:\n%s", row, over, res.Table.String())
		}
	}
}

func TestFig7OpportunisticSwitch(t *testing.T) {
	if testing.Short() {
		t.Skip("fig7 needs a longer run for EMC slots")
	}
	res := Fig7(Opts{}) // full size: quick runs are too short for slots
	// DualPar must switch and end up with smaller seeks than vanilla after
	// the join.
	if res.Table.Rows[1][4] != "true" {
		t.Errorf("dualpar run never switched modes:\n%s", res.Table.String())
	}
	vanSeek, dpSeek := cell(t, res, 0, 3), cell(t, res, 1, 3)
	if dpSeek >= vanSeek {
		t.Errorf("dualpar seek %.0f not below vanilla %.0f:\n%s", dpSeek, vanSeek, res.Table.String())
	}
	vanAfter, dpAfter := cell(t, res, 0, 2), cell(t, res, 1, 2)
	if dpAfter <= vanAfter {
		t.Errorf("dualpar after-join throughput %.1f not above vanilla %.1f:\n%s", dpAfter, vanAfter, res.Table.String())
	}
}

func TestFig5Runs(t *testing.T) {
	res := Fig5(quick())
	if len(res.Table.Rows) == 0 {
		t.Fatalf("no rows")
	}
	for row := range res.Table.Rows {
		for col := 1; col <= 3; col++ {
			if cell(t, res, row, col) <= 0 {
				t.Errorf("non-positive I/O time at (%d,%d):\n%s", row, col, res.Table.String())
			}
		}
	}
}

func TestResultsDeterministic(t *testing.T) {
	a := Table2(Opts{Quick: true, Seed: 3})
	b := Table2(Opts{Quick: true, Seed: 3})
	for i := range a.Table.Rows {
		for j := range a.Table.Rows[i] {
			if a.Table.Rows[i][j] != b.Table.Rows[i][j] {
				t.Fatalf("nondeterministic result at (%d,%d): %s vs %s", i, j, a.Table.Rows[i][j], b.Table.Rows[i][j])
			}
		}
	}
}

func TestExecuteMultipleProgramsFinish(t *testing.T) {
	m := workloads.DefaultMPIIOTest()
	m.FileBytes = 8 << 20
	m.FileName = "x.dat"
	h := workloads.DefaultHPIO()
	h.RegionCount = 256
	h.FileName = "y.dat"
	ms, _ := Opts{Seed: 1}.execute(false, time.Hour, core.DefaultConfig(), []runSpec{
		{prog: m, mode: core.ModeVanilla},
		{prog: h, mode: core.ModeVanilla, startAt: 100 * time.Millisecond},
	})
	for i, m := range ms {
		if !m.finished {
			t.Fatalf("program %d did not finish", i)
		}
	}
}

func TestAblateSchedulerDualParWinsEverywhere(t *testing.T) {
	res := AblateScheduler(quick())
	for row := range res.Table.Rows {
		van, dp := cell(t, res, row, 1), cell(t, res, row, 2)
		if dp <= van {
			t.Errorf("%s: dualpar %.1f not above vanilla %.1f", res.Table.Rows[row][0], dp, van)
		}
	}
}

func TestAblateSSDCollapsesAdvantage(t *testing.T) {
	res := AblateSSD(quick())
	diskSpeedup := cell(t, res, 0, 2) / cell(t, res, 0, 1)
	ssdSpeedup := cell(t, res, 1, 2) / cell(t, res, 1, 1)
	if ssdSpeedup >= diskSpeedup {
		t.Errorf("SSD speedup %.2f not below disk speedup %.2f:\n%s", ssdSpeedup, diskSpeedup, res.Table.String())
	}
}

func TestAblateDiskOriginsServerWins(t *testing.T) {
	res := AblateDiskOrigins(quick())
	server, client := cell(t, res, 0, 1), cell(t, res, 1, 1)
	if server <= client {
		t.Errorf("server-process origin %.1f not above per-client %.1f", server, client)
	}
}

func TestAblateHoleFillingReducesAccesses(t *testing.T) {
	res := AblateHoleThreshold(quick())
	noHole := cell(t, res, 0, 2)
	withHole := cell(t, res, 2, 2)
	if withHole >= noHole {
		t.Errorf("hole filling did not reduce disk accesses: %v vs %v:\n%s", withHole, noHole, res.Table.String())
	}
}

func TestAblateTSwitchBand(t *testing.T) {
	res := AblateTImprovement(quick())
	// Low T values must switch; a huge T must not.
	if res.Table.Rows[1][1] != "true" {
		t.Errorf("T=5 did not switch:\n%s", res.Table.String())
	}
	if res.Table.Rows[len(res.Table.Rows)-1][1] != "false" {
		t.Errorf("T=64 switched:\n%s", res.Table.String())
	}
}

func TestAblateWritePathRuns(t *testing.T) {
	res := AblateWritePath(quick())
	if len(res.Table.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Table.Rows))
	}
	for row := range res.Table.Rows {
		if cell(t, res, row, 1) <= 0 || cell(t, res, row, 2) <= 0 {
			t.Errorf("non-positive throughput in row %d:\n%s", row, res.Table.String())
		}
	}
}

// TestMPIIOTestPanicsWhenUnfinished: an ablation run that cannot finish
// within its budget must fail loudly, naming its cell, not print 0.0 MB/s.
func TestMPIIOTestPanicsWhenUnfinished(t *testing.T) {
	o := quick()
	ccfg := o.config()
	sch, err := fault.Parse("stall:0@0s-2h")
	if err != nil {
		t.Fatal(err)
	}
	ccfg.Faults = sch
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "ablate-x") || !strings.Contains(msg, "did not finish") {
			t.Fatalf("panic = %q, want the cell named and \"did not finish\"", msg)
		}
	}()
	o.mpiioTest("ablate-x", ccfg, 8<<20, false, core.ModeVanilla)
}

func TestAblateStrategy2WindowMonotonicEnough(t *testing.T) {
	res := AblateStrategy2Window(quick())
	small := cell(t, res, 0, 1)
	large := cell(t, res, 2, 1)
	if large >= small {
		t.Errorf("bigger window %v not faster than tiny window %v:\n%s", large, small, res.Table.String())
	}
}

func TestAblateServersSpeedupHolds(t *testing.T) {
	res := AblateServers(quick())
	for row := range res.Table.Rows {
		van, dp := cell(t, res, row, 1), cell(t, res, row, 2)
		if dp < van*1.3 {
			t.Errorf("%s servers: dualpar %.1f not well above vanilla %.1f",
				res.Table.Rows[row][0], dp, van)
		}
	}
	// More spindles must help both schemes overall (3 -> 18 servers).
	if cell(t, res, 3, 2) <= cell(t, res, 0, 2) {
		t.Errorf("dualpar did not gain from 6x servers:\n%s", res.Table.String())
	}
}

func TestAblatePipelineImproves(t *testing.T) {
	res := AblatePipeline(quick())
	paper := cell(t, res, 2, 1)
	x4 := cell(t, res, 4, 1)
	if x4 >= paper {
		t.Errorf("pipelined x4 (%.2fs) not faster than the paper's cycle (%.2fs):\n%s",
			x4, paper, res.Table.String())
	}
}

func TestStragglerToleranceShapes(t *testing.T) {
	res := Straggler(quick())
	if len(res.Table.Rows) != 2 {
		t.Fatalf("quick sweep rows = %d, want 2:\n%s", len(res.Table.Rows), res.Table.String())
	}
	// Every cell must have completed (liveness under a 10x-degraded server).
	for row := range res.Table.Rows {
		if cell(t, res, row, 1) <= 0 || cell(t, res, row, 3) <= 0 {
			t.Fatalf("a degraded run did not finish:\n%s", res.Table.String())
		}
	}
	// DualPar's batched list I/O must bound the straggler's blast radius:
	// its relative slowdown at 10x stays below vanilla's.
	vanSlow := cell(t, res, 1, 1) / cell(t, res, 0, 1)
	ddSlow := cell(t, res, 1, 3) / cell(t, res, 0, 3)
	if ddSlow >= vanSlow {
		t.Errorf("dualpar slowdown %.2fx not below vanilla %.2fx under a 10x straggler:\n%s",
			ddSlow, vanSlow, res.Table.String())
	}
}
