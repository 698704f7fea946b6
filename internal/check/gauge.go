package check

// Gauge is a named non-negative quantity with an optional upper bound,
// verified at every change: admission slots held by an arbiter, in-flight
// requests against a window, bytes resident against a partition quota. It
// is the inline form of an invariant probe — instead of reconstructing the
// quantity at probe points, the subsystem mutates the gauge as part of its
// bookkeeping and every violation is caught at the mutation that caused
// it, with the offending delta in the violation detail.
//
// A Gauge with a nil Ledger still counts (Value stays usable for stats and
// tests) but checks nothing, matching the package's audit-off contract: one
// nil comparison per update, no allocations, no behavioural difference.
type Gauge struct {
	led   Ledger
	key   string
	bound int64 // 0 = unbounded above
	v     int64
}

// NewGauge returns a gauge named key starting at zero. bound, when
// positive, is the largest value the gauge may reach; zero means unbounded.
// led may be nil (count-only mode); attach one later with SetLedger.
func NewGauge(led Ledger, key string, bound int64) *Gauge {
	return &Gauge{led: led, key: key, bound: bound}
}

// SetLedger attaches (or replaces) the ledger violations are reported to.
func (g *Gauge) SetLedger(led Ledger) { g.led = led }

// Add applies delta and checks the invariants: the gauge never goes
// negative, and never exceeds its bound.
func (g *Gauge) Add(delta int64) {
	g.v += delta
	g.check(delta)
}

func (g *Gauge) check(delta int64) {
	if g.led == nil {
		return
	}
	g.led.Checkf(g.v >= 0, g.key,
		"gauge %s went negative: %d after delta %+d", g.key, g.v, delta)
	g.led.Checkf(g.bound <= 0 || g.v <= g.bound, g.key,
		"gauge %s exceeds bound %d: %d after delta %+d", g.key, g.bound, g.v, delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

// Bound returns the configured upper bound (0 = unbounded).
func (g *Gauge) Bound() int64 { return g.bound }
