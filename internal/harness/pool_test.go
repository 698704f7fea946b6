package harness

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// cellKeys names n cells prefix0, prefix1, ...
func cellKeys(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, i)
	}
	return out
}

// TestRunCellsWorkerCounts runs the same cell set at worker counts below,
// at, and above the cell count (plus 0 = GOMAXPROCS) and checks every slot
// is filled exactly once.
func TestRunCellsWorkerCounts(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 7, 64} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 7
			hits := make([]int32, n)
			_, err := runCells(workers, cellKeys("cell", n), func(i int) int32 {
				return atomic.AddInt32(&hits[i], 1)
			})
			if err != nil {
				t.Fatalf("runCells: %v", err)
			}
			for i, h := range hits {
				if h != 1 {
					t.Errorf("cell %d ran %d times, want 1", i, h)
				}
			}
		})
	}
}

// TestRunCellsSerialOrder: workers == 1 must run cells in slice order on
// the calling goroutine — that is the documented serial path.
func TestRunCellsSerialOrder(t *testing.T) {
	var order []int
	_, err := runCells(1, cellKeys("c", 5), func(i int) int {
		order = append(order, i)
		return i
	})
	if err != nil {
		t.Fatalf("runCells: %v", err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("serial order %v, want ascending", order)
		}
	}
}

// TestRunCellsEmpty: no cells is a no-op at any worker count.
func TestRunCellsEmpty(t *testing.T) {
	out, err := runCells(4, nil, func(int) int { panic("no cells, no runs") })
	if err != nil || len(out) != 0 {
		t.Fatalf("runCells(no keys) = %v, %v", out, err)
	}
}

// TestRunCellsPanic: a panicking cell surfaces as a *cellError naming the
// cell, the other cells still complete, and with several failures the
// canonically-first cell's error is the one returned regardless of worker
// scheduling.
func TestRunCellsPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 8
			var ran int32
			_, err := runCells(workers, cellKeys("cell/", n), func(i int) int {
				atomic.AddInt32(&ran, 1)
				if i == 3 || i == 6 {
					panic(fmt.Sprintf("boom %d", i))
				}
				return i
			})
			var ce *cellError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v (%T), want *cellError", err, err)
			}
			if ce.Key != "cell/3" {
				t.Errorf("reported cell %q, want canonical first failure cell/3", ce.Key)
			}
			if ce.Value != "boom 3" {
				t.Errorf("panic value %v, want boom 3", ce.Value)
			}
			if len(ce.Stack) == 0 {
				t.Error("cellError carries no stack")
			}
			if !strings.Contains(ce.Error(), "cell/3") {
				t.Errorf("Error() = %q, want the cell key in it", ce.Error())
			}
			if got := atomic.LoadInt32(&ran); got != n {
				t.Errorf("%d cells ran, want all %d despite the panics", got, n)
			}
		})
	}
}

// TestSyncWriterSharedLog is the regression test for the shared-Opts.Log
// race: concurrent cells logging through one bytes.Buffer. Run under -race
// this fails unless logf serializes its writes.
func TestSyncWriterSharedLog(t *testing.T) {
	var buf bytes.Buffer
	o := Opts{Log: &buf, Parallel: 4}
	sweep(o, cellKeys("c", 16), func(i int) int {
		o.logf("line from cell %d", i)
		return i
	})
	if got := strings.Count(buf.String(), "line from cell"); got != 16 {
		t.Errorf("log has %d lines, want 16", got)
	}
}

// TestRunCellsConcurrentSlotWrites: each cell's result lands in its own
// slot of one slice with no locking — this is the pool's core contract,
// and under -race it verifies the WaitGroup edge publishes every slot to
// the caller.
func TestRunCellsConcurrentSlotWrites(t *testing.T) {
	const n = 64
	var mu sync.Mutex // touched only to give the race detector work to check
	out, err := runCells(8, cellKeys("c", n), func(i int) int {
		mu.Lock()
		mu.Unlock()
		return i + 1
	})
	if err != nil {
		t.Fatalf("runCells: %v", err)
	}
	for i, v := range out {
		if v != i+1 {
			t.Fatalf("slot %d = %d, want %d", i, v, i+1)
		}
	}
}

// TestRunUnknownExperiment: Run rejects an unknown id before running any
// experiment, naming the id.
func TestRunUnknownExperiment(t *testing.T) {
	var buf bytes.Buffer
	res, err := Run(Opts{Quick: true, Log: &buf}, []string{"fig1a", "fig99"})
	if err == nil || !strings.Contains(err.Error(), "fig99") {
		t.Fatalf("Run(fig99) = %v, want an error naming fig99", err)
	}
	if res != nil || buf.Len() != 0 {
		t.Errorf("Run ran experiments before rejecting the unknown id: %d results, log %q", len(res), buf.String())
	}
}
