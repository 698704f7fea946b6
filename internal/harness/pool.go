package harness

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The sweep engine: experiments are sweeps over independent cells (one
// simulated cluster per cell, seeded identically to the serial path), so the
// cells can run concurrently across GOMAXPROCS workers. Determinism is
// preserved structurally rather than by luck: every cell's result lands in
// its own index of the result slice, and the experiment assembles rows,
// series, and notes from that slice in canonical order after the sweep — so
// the emitted tables are byte-identical whatever the interleaving. Only the
// progress log (stderr) may interleave differently under parallelism.

// cellError reports a cell whose run panicked. The sweep completes the
// remaining cells before returning it (cells are independent), and when
// several cells fail the error for the canonically-first cell is returned,
// so the reported failure does not depend on scheduling.
type cellError struct {
	// Key is the failing cell's key.
	Key string
	// Value is the recovered panic value.
	Value interface{}
	// Stack is the panicking goroutine's stack.
	Stack []byte
}

func (e *cellError) Error() string {
	return fmt.Sprintf("sweep cell %q panicked: %v", e.Key, e.Value)
}

// runCells runs run(i) once per key, on up to workers concurrent
// goroutines, and returns the results in key order. keys[i] names cell i in
// errors, e.g. "fig3/read/mpi-io-test/dualpar"; run must touch no shared
// mutable state. workers <= 0 means GOMAXPROCS; workers == 1 runs every cell
// inline on the calling goroutine in key order — the serial code path.
// Cells are dispatched in key order. A panicking cell becomes a
// *cellError; it does not stop the remaining cells.
func runCells[T any](workers int, keys []string, run func(i int) T) ([]T, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(keys) {
		workers = len(keys)
	}
	out := make([]T, len(keys))
	errs := make([]*cellError, len(keys))
	runCell := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = &cellError{Key: keys[i], Value: r, Stack: debug.Stack()}
			}
		}()
		out[i] = run(i)
	}
	if workers <= 1 {
		for i := range keys {
			runCell(i)
		}
	} else {
		// Workers claim the next undispatched cell index atomically, so
		// dispatch order is canonical even though completion order is not.
		var (
			next atomic.Int64
			wg   sync.WaitGroup
		)
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(keys) {
						return
					}
					runCell(i)
				}
			}()
		}
		wg.Wait()
	}
	// Deterministic error selection: the first failing cell in canonical
	// order wins, regardless of which worker hit it first.
	for _, e := range errs {
		if e != nil {
			return out, e
		}
	}
	return out, nil
}

// sweep is every experiment's entry into the pool: it runs one cell per key
// at o's parallelism and returns the results in key order, re-raising a
// cell failure as a panic so a driver fails fast as the serial path would.
func sweep[T any](o Opts, keys []string, run func(i int) T) []T {
	out, err := runCells(o.parallel(), keys, run)
	if err != nil {
		panic(err)
	}
	return out
}

// each formats one sweep key per element of xs, e.g.
// each("fig8/cache=%dKB", sizes).
func each[E any](format string, xs []E) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf(format, x)
	}
	return out
}

// grid names the cells of a cross-product sweep prefix/a/b/... in row-major
// order: with two dimensions, cell i is (i/len(b), i%len(b)).
func grid(prefix string, dims ...[]string) []string {
	keys := []string{prefix}
	for _, dim := range dims {
		next := make([]string, 0, len(keys)*len(dim))
		for _, k := range keys {
			for _, d := range dim {
				next = append(next, k+"/"+d)
			}
		}
		keys = next
	}
	return keys
}

// Run runs the named experiments (Experiments IDs) as the cells of one
// sweep — whole experiments are independent too — and returns their results
// in ids order, byte-identical at any o.Parallel. An unknown id fails before
// anything runs; a panicking experiment comes back as the error once the
// others finish.
func Run(o Opts, ids []string) ([]*Result, error) {
	runs := make([]func(Opts) *Result, len(ids))
	for i, id := range ids {
		for _, e := range Experiments {
			if e.ID == id {
				runs[i] = e.Run
			}
		}
		if runs[i] == nil {
			return nil, fmt.Errorf("harness: unknown experiment %q", id)
		}
	}
	return runCells(o.parallel(), ids, func(i int) *Result { return runs[i](o) })
}
