package disk

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// Entry is one access in a blktrace-style log: the dispatch order, times
// and device addresses the block layer sends to the device, the observable
// the paper plots in Figures 1(c,d) and 6.
type Entry struct {
	At      time.Duration
	LBN     int64
	Sectors int64
	Write   bool
}

// Trace is an append-only access log.
type Trace struct {
	entries []Entry
}

// Add appends one access to the log.
func (t *Trace) Add(e Entry) {
	if t.entries == nil {
		// Traces routinely collect tens of thousands of entries per run;
		// start big so steady logging re-grows rarely.
		t.entries = make([]Entry, 0, 4096)
	}
	t.entries = append(t.entries, e)
}

// Entries returns the full log.
func (t *Trace) Entries() []Entry { return t.entries }

// Len reports the number of logged accesses.
func (t *Trace) Len() int { return len(t.entries) }

// Window returns a copy of the entries with from <= At < to, the way the
// paper samples an execution period (e.g. 5.2 s to 5.4 s). Entries are
// logged in dispatch order under a monotonic clock, so the bounds are
// found by binary search: O(log n + window) on long traces.
func (t *Trace) Window(from, to time.Duration) []Entry {
	lo := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].At >= from })
	hi := sort.Search(len(t.entries), func(i int) bool { return t.entries[i].At >= to })
	if lo >= hi {
		return nil
	}
	return append([]Entry(nil), t.entries[lo:hi]...)
}

// WriteCSV emits "time_s,lbn,sectors,rw" rows for external plotting.
func (t *Trace) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "time_s,lbn,sectors,rw"); err != nil {
		return err
	}
	for _, e := range t.entries {
		rw := "R"
		if e.Write {
			rw = "W"
		}
		if _, err := fmt.Fprintf(w, "%.6f,%d,%d,%s\n", e.At.Seconds(), e.LBN, e.Sectors, rw); err != nil {
			return err
		}
	}
	return nil
}

// Monotonicity summarizes head movement direction over a window: the
// fraction of consecutive access pairs that move forward. The paper's
// "mostly in one direction" observation (Fig 1d) corresponds to values near
// 1; back-and-forth movement (Fig 1c) to values near 0.5.
func Monotonicity(entries []Entry) float64 {
	if len(entries) < 2 {
		return 1
	}
	fwd := 0
	for i := 1; i < len(entries); i++ {
		if entries[i].LBN >= entries[i-1].LBN {
			fwd++
		}
	}
	return float64(fwd) / float64(len(entries)-1)
}

// MeanSeek returns the mean absolute inter-access LBN distance over a
// window.
func MeanSeek(entries []Entry) float64 {
	if len(entries) < 2 {
		return 0
	}
	var total int64
	for i := 1; i < len(entries); i++ {
		d := entries[i].LBN - (entries[i-1].LBN + entries[i-1].Sectors)
		if d < 0 {
			d = -d
		}
		total += d
	}
	return float64(total) / float64(len(entries)-1)
}
