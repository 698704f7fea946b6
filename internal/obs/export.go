package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"dualpar/internal/metrics"
)

// The exporter emits Chrome trace-event JSON (the "JSON Array Format" with
// a traceEvents wrapper), which ui.perfetto.dev and chrome://tracing load
// directly. Tracks map to (pid, tid): the track prefix up to the first '/'
// becomes a named process ("prog0", "server3", "emc"), the full track a
// named thread within it, so every rank and every data server gets its own
// timeline row. Spans become complete ("X") events carrying the RequestID
// in args; instants become thread-scoped "i" events.
//
// Output is deterministic: pids/tids are assigned in first-recorded order,
// args maps marshal with sorted keys (encoding/json), and timestamps derive
// only from virtual time — two runs with the same seed export identical
// bytes.

type metaEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

type spanEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type instantEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	S    string            `json:"s"`
	Args map[string]string `json:"args,omitempty"`
}

// trackTable assigns (pid, tid) pairs to track names in first-seen order.
type trackTable struct {
	pids   map[string]int // process name -> pid
	tids   map[string][2]int
	order  []string // track names in first-seen order
	nextID int
}

func newTrackTable() *trackTable {
	return &trackTable{pids: make(map[string]int), tids: make(map[string][2]int), nextID: 1}
}

// ProcessOf maps a track to its owning process group: the component before
// the first '/' ("server0/dispatch" → "server0"), or the whole track. The
// exporter groups trace rows by it and the analyzer groups servers by it.
func ProcessOf(track string) string {
	if i := strings.IndexByte(track, '/'); i >= 0 {
		return track[:i]
	}
	return track
}

func (t *trackTable) id(track string) (pid, tid int) {
	if track == "" {
		track = "untracked"
	}
	if ids, ok := t.tids[track]; ok {
		return ids[0], ids[1]
	}
	proc := ProcessOf(track)
	pid, ok := t.pids[proc]
	if !ok {
		pid = t.nextID
		t.nextID++
		t.pids[proc] = pid
	}
	// tid: count of tracks already in this process.
	tid = 0
	for _, tr := range t.order {
		if ProcessOf(tr) == proc {
			tid++
		}
	}
	t.tids[track] = [2]int{pid, tid}
	t.order = append(t.order, track)
	return pid, tid
}

func usec(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func argMap(id RequestID, args []Arg) map[string]string {
	if id == 0 && len(args) == 0 {
		return nil
	}
	m := make(map[string]string, len(args)+1)
	if id != 0 {
		m["req"] = fmt.Sprintf("%d", id)
	}
	for _, a := range args {
		m[a.Key] = a.Val
	}
	return m
}

// WriteTrace emits the collector's spans and instants as Chrome trace-event
// JSON, loadable at ui.perfetto.dev. On a nil collector it writes an empty
// trace.
func (c *Collector) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"traceEvents\":[\n"); err != nil {
		return err
	}
	first := true
	emit := func(v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		if !first {
			if _, err := bw.WriteString(",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = bw.Write(b)
		return err
	}

	// Pass 1: register every track so metadata events come first.
	tracks := newTrackTable()
	for _, s := range c.Spans() {
		tracks.id(s.Track)
	}
	for _, i := range c.Instants() {
		tracks.id(i.Track)
	}
	seenProc := make(map[string]bool)
	for _, track := range tracks.order {
		pid, tid := tracks.id(track)
		proc := ProcessOf(track)
		if !seenProc[proc] {
			seenProc[proc] = true
			if err := emit(metaEvent{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]string{"name": proc}}); err != nil {
				return err
			}
		}
		if err := emit(metaEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid, Args: map[string]string{"name": track}}); err != nil {
			return err
		}
	}

	for _, s := range c.Spans() {
		pid, tid := tracks.id(s.Track)
		if err := emit(spanEvent{
			Name: string(s.Stage), Cat: "io", Ph: "X",
			Ts: usec(s.Start), Dur: usec(s.End - s.Start),
			Pid: pid, Tid: tid, Args: argMap(s.ID, s.Args),
		}); err != nil {
			return err
		}
	}
	for _, i := range c.Instants() {
		pid, tid := tracks.id(i.Track)
		if err := emit(instantEvent{
			Name: i.Name, Cat: "ctl", Ph: "i",
			Ts: usec(i.At), Pid: pid, Tid: tid, S: "t",
			Args: argMap(0, i.Args),
		}); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// SummaryTable renders the registry: one row per histogram (count, mean,
// p50/p95/p99, max — latencies in milliseconds), then counters and gauges.
func (c *Collector) SummaryTable() *metrics.Table {
	t := &metrics.Table{Header: []string{"metric", "count", "mean_ms", "p50_ms", "p95_ms", "p99_ms", "max_ms"}}
	reg := c.Metrics()
	for _, name := range reg.HistogramNames() {
		h := reg.Histogram(name)
		ms := func(v float64) string { return fmt.Sprintf("%.3f", v*1e3) }
		t.AddRow(name,
			fmt.Sprintf("%d", h.Count()),
			ms(h.Mean()), ms(h.Percentile(50)), ms(h.Percentile(95)), ms(h.Percentile(99)), ms(h.Max()))
	}
	for _, name := range reg.CounterNames() {
		t.AddRow(name, fmt.Sprintf("%d", reg.Counter(name).Value()), "", "", "", "", "")
	}
	for _, name := range reg.GaugeNames() {
		t.AddRow(name, fmt.Sprintf("%.3f", reg.Gauge(name).Value()), "", "", "", "", "")
	}
	return t
}

// WriteSummary prints the summary table.
func (c *Collector) WriteSummary(w io.Writer) error {
	_, err := io.WriteString(w, c.SummaryTable().String())
	return err
}
