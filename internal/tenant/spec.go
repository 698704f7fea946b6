// Package tenant adds the shared-cluster dimension to DualPar: a seeded
// workload generator that launches many small jobs from competing tenants
// onto one cluster, and a cluster-wide arbiter that rations the data-driven
// execution grants the per-app EMC controllers previously handed themselves
// for free. The paper evaluates one application per cluster; this package
// models the datacenter setting its introduction motivates — thousands of
// co-running jobs contending for one parallel file system, where admitting
// every I/O-intensive job to data-driven mode would overrun the global
// cache and the I/O servers that writeback and prefetch share.
//
// Everything is deterministic from Config.Seed: the generator pre-computes
// each tenant's arrival schedule from an independent seeded stream, and the
// arbiter is a pure state machine driven by simulation events.
package tenant

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"dualpar/internal/burst"
)

// Policy selects how the arbiter divides data-driven grants among tenants.
type Policy string

const (
	// PolicyFCFS grants to whoever asks first, bounded only by MaxGrants.
	PolicyFCFS Policy = "fcfs"
	// PolicyFair reserves an equal share of MaxGrants per tenant. Shares
	// are work-conserving: idle capacity is lent out freely, and an
	// under-reservation tenant reclaims a lent grant by revocation.
	PolicyFair Policy = "fair"
	// PolicyPrio reserves weighted shares: tenant 0 is the highest
	// priority (weight Tenants), the last tenant the lowest (weight 1).
	// Reservations are work-conserving as under PolicyFair.
	PolicyPrio Policy = "prio"
)

// ArrivalKind names the arrival process driving a tenant's job stream.
type ArrivalKind string

const (
	// ArrivalPoisson is an open loop with exponential inter-arrival times.
	ArrivalPoisson ArrivalKind = "poisson"
	// ArrivalBurst is an open loop releasing Size jobs every Every.
	ArrivalBurst ArrivalKind = "burst"
	// ArrivalClosed is a closed loop: Workers think, submit, and wait.
	ArrivalClosed ArrivalKind = "closed"
)

// Arrival describes one arrival process, applied per tenant.
type Arrival struct {
	Kind ArrivalKind
	// Rate is jobs per second for ArrivalPoisson.
	Rate float64
	// Size and Every shape ArrivalBurst: Size jobs released together at
	// t = 0, Every, 2*Every, ...
	Size  int
	Every time.Duration
	// Workers, JobsPerWorker, and Think shape ArrivalClosed.
	Workers       int
	JobsPerWorker int
	Think         time.Duration
}

// Config describes a multi-tenant run. The zero value is invalid; start
// from DefaultConfig.
type Config struct {
	// Tenants is the number of competing tenants.
	Tenants int
	// Arrival drives every tenant's job stream.
	Arrival Arrival
	// Policy divides grants among tenants.
	Policy Policy
	// MaxGrants bounds simultaneous data-driven grants cluster-wide;
	// 0 = unbounded (every request is granted, as in the untenanted build).
	MaxGrants int
	// CacheBytes, when non-zero, is partitioned across tenants as
	// per-tenant memcache quotas (equal shares, or weighted under
	// PolicyPrio). 0 = no partitioning.
	CacheBytes int64
	// Jobs is the open-loop job count per tenant (ignored by ArrivalClosed,
	// which runs Workers*JobsPerWorker jobs per tenant).
	Jobs int
	// Ranks is the process count of each generated job.
	Ranks int
	// HotTenant/HotFactor skew load: the hot tenant submits HotFactor times
	// the jobs (open loop) or jobs-per-worker (closed loop); under Poisson
	// arrivals its rate also scales by HotFactor, so the hot stream is a
	// flood over the same window rather than a longer trickle. Factor <= 1
	// means no skew.
	HotTenant, HotFactor int
	// Seed feeds every tenant's arrival and mix streams.
	Seed int64
}

// DefaultConfig is a single tenant with unbounded grants and no cache
// partitioning — the configuration whose behaviour is identical to a run
// with tenancy disabled.
func DefaultConfig() Config {
	return Config{
		Tenants: 1,
		Arrival: Arrival{Kind: ArrivalPoisson, Rate: 50},
		Policy:  PolicyFCFS,
		Jobs:    100,
		Ranks:   1,
		Seed:    1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Tenants < 1:
		return fmt.Errorf("tenant: Tenants %d", c.Tenants)
	case c.Policy != PolicyFCFS && c.Policy != PolicyFair && c.Policy != PolicyPrio:
		return fmt.Errorf("tenant: unknown policy %q", c.Policy)
	case c.MaxGrants < 0:
		return fmt.Errorf("tenant: MaxGrants %d", c.MaxGrants)
	case c.CacheBytes < 0:
		return fmt.Errorf("tenant: CacheBytes %d", c.CacheBytes)
	case c.Ranks < 1:
		return fmt.Errorf("tenant: Ranks %d", c.Ranks)
	case c.HotFactor > 1 && (c.HotTenant < 0 || c.HotTenant >= c.Tenants):
		return fmt.Errorf("tenant: HotTenant %d out of range [0,%d)", c.HotTenant, c.Tenants)
	}
	a := c.Arrival
	switch a.Kind {
	case ArrivalPoisson:
		if !(a.Rate > 0) || math.IsInf(a.Rate, 0) { // rejects NaN too
			return fmt.Errorf("tenant: poisson rate %v", a.Rate)
		}
		if c.Jobs < 1 {
			return fmt.Errorf("tenant: Jobs %d", c.Jobs)
		}
	case ArrivalBurst:
		if a.Size < 1 {
			return fmt.Errorf("tenant: burst size %d", a.Size)
		}
		if a.Every <= 0 {
			return fmt.Errorf("tenant: burst interval %v", a.Every)
		}
		if c.Jobs < 1 {
			return fmt.Errorf("tenant: Jobs %d", c.Jobs)
		}
	case ArrivalClosed:
		if a.Workers < 1 {
			return fmt.Errorf("tenant: closed workers %d", a.Workers)
		}
		if a.JobsPerWorker < 1 {
			return fmt.Errorf("tenant: closed jobs/worker %d", a.JobsPerWorker)
		}
		if a.Think < 0 {
			return fmt.Errorf("tenant: closed think %v", a.Think)
		}
	default:
		return fmt.Errorf("tenant: unknown arrival kind %q", a.Kind)
	}
	return nil
}

// ParseSpec builds a Config from a compact spec string, for command-line
// use. Entries are comma-separated; the tenant count is `tenants:<n>` and
// everything else is key=value:
//
//	tenants:4                         four tenants (default 1)
//	arrival=poisson:25                open loop, 25 jobs/s per tenant
//	arrival=burst:100@500ms           100 jobs together every 500ms
//	arrival=closed:8x5:10ms           8 workers x 5 jobs each, 10ms think
//	policy=fair|prio|fcfs             grant policy (default fcfs)
//	grants=64                         max simultaneous data-driven grants
//	cache=64M                         cache pool partitioned across tenants
//	jobs=150                          open-loop jobs per tenant
//	ranks=2                           processes per job
//	hot=0x3                           tenant 0 submits 3x the jobs
//	seed=7                            generator seed
//
// Every rejected spec names the offending entry in the error. The empty
// spec is DefaultConfig.
func ParseSpec(spec string) (Config, error) {
	cfg := DefaultConfig()
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return cfg, nil
	}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if err := parseEntry(&cfg, entry); err != nil {
			return Config{}, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("tenant: spec %q: %v", spec, err)
	}
	return cfg, nil
}

func parseEntry(cfg *Config, entry string) error {
	if rest, ok := strings.CutPrefix(entry, "tenants:"); ok {
		n, err := strconv.Atoi(rest)
		if err != nil || n < 1 {
			return fmt.Errorf("tenant: %q: bad tenant count", entry)
		}
		cfg.Tenants = n
		return nil
	}
	key, val, ok := strings.Cut(entry, "=")
	if !ok {
		return fmt.Errorf("tenant: %q: want tenants:<n> or key=value", entry)
	}
	switch key {
	case "arrival":
		a, err := parseArrival(val)
		if err != nil {
			return fmt.Errorf("tenant: %q: %v", entry, err)
		}
		cfg.Arrival = a
	case "policy":
		switch Policy(val) {
		case PolicyFCFS, PolicyFair, PolicyPrio:
			cfg.Policy = Policy(val)
		default:
			return fmt.Errorf("tenant: %q: unknown policy %q", entry, val)
		}
	case "grants":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return fmt.Errorf("tenant: %q: bad grant bound", entry)
		}
		cfg.MaxGrants = n
	case "cache":
		b, err := burst.ParseBytes(val)
		if err != nil {
			return fmt.Errorf("tenant: %q: %v", entry, err)
		}
		cfg.CacheBytes = b
	case "jobs":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return fmt.Errorf("tenant: %q: bad job count", entry)
		}
		cfg.Jobs = n
	case "ranks":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return fmt.Errorf("tenant: %q: bad rank count", entry)
		}
		cfg.Ranks = n
	case "hot":
		ts, fs, ok := strings.Cut(val, "x")
		if !ok {
			return fmt.Errorf("tenant: %q: want hot=<tenant>x<factor>", entry)
		}
		t, err1 := strconv.Atoi(ts)
		f, err2 := strconv.Atoi(fs)
		if err1 != nil || err2 != nil || t < 0 || f < 1 {
			return fmt.Errorf("tenant: %q: bad hot spec", entry)
		}
		if f == 1 { // factor 1 = no skew; normalize so String round-trips
			t, f = 0, 0
		}
		cfg.HotTenant, cfg.HotFactor = t, f
	case "seed":
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			return fmt.Errorf("tenant: %q: bad seed: %v", entry, err)
		}
		cfg.Seed = n
	default:
		return fmt.Errorf("tenant: %q: unknown key %q", entry, key)
	}
	return nil
}

func parseArrival(val string) (Arrival, error) {
	kind, rest, _ := strings.Cut(val, ":")
	switch ArrivalKind(kind) {
	case ArrivalPoisson:
		rate, err := strconv.ParseFloat(rest, 64)
		if err != nil {
			return Arrival{}, fmt.Errorf("bad poisson rate: %v", err)
		}
		if !(rate > 0) || math.IsInf(rate, 0) {
			return Arrival{}, fmt.Errorf("poisson rate %v out of range", rate)
		}
		return Arrival{Kind: ArrivalPoisson, Rate: rate}, nil
	case ArrivalBurst:
		ss, es, ok := strings.Cut(rest, "@")
		if !ok {
			return Arrival{}, fmt.Errorf("want burst:<size>@<every>")
		}
		size, err := strconv.Atoi(ss)
		if err != nil || size < 1 {
			return Arrival{}, fmt.Errorf("bad burst size %q", ss)
		}
		every, err := time.ParseDuration(es)
		if err != nil || every <= 0 {
			return Arrival{}, fmt.Errorf("bad burst interval %q", es)
		}
		return Arrival{Kind: ArrivalBurst, Size: size, Every: every}, nil
	case ArrivalClosed:
		// workers x jobs [: think]
		body, ts, hasThink := strings.Cut(rest, ":")
		ws, js, ok := strings.Cut(body, "x")
		if !ok {
			return Arrival{}, fmt.Errorf("want closed:<workers>x<jobs>[:<think>]")
		}
		w, err1 := strconv.Atoi(ws)
		j, err2 := strconv.Atoi(js)
		if err1 != nil || err2 != nil || w < 1 || j < 1 {
			return Arrival{}, fmt.Errorf("bad closed shape %q", body)
		}
		a := Arrival{Kind: ArrivalClosed, Workers: w, JobsPerWorker: j}
		if hasThink {
			think, err := time.ParseDuration(ts)
			if err != nil || think < 0 {
				return Arrival{}, fmt.Errorf("bad think time %q", ts)
			}
			a.Think = think
		}
		return a, nil
	default:
		return Arrival{}, fmt.Errorf("unknown arrival kind %q", kind)
	}
}

// String renders the config in spec-grammar form (round-trips via
// ParseSpec for any valid config).
func (c Config) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "tenants:%d,arrival=%s,policy=%s", c.Tenants, c.Arrival, c.Policy)
	if c.MaxGrants > 0 {
		fmt.Fprintf(&b, ",grants=%d", c.MaxGrants)
	}
	if c.CacheBytes > 0 {
		fmt.Fprintf(&b, ",cache=%d", c.CacheBytes)
	}
	if c.Arrival.Kind != ArrivalClosed {
		fmt.Fprintf(&b, ",jobs=%d", c.Jobs)
	}
	fmt.Fprintf(&b, ",ranks=%d", c.Ranks)
	if c.HotFactor > 1 {
		fmt.Fprintf(&b, ",hot=%dx%d", c.HotTenant, c.HotFactor)
	}
	fmt.Fprintf(&b, ",seed=%d", c.Seed)
	return b.String()
}

// String renders the arrival in spec-grammar form.
func (a Arrival) String() string {
	switch a.Kind {
	case ArrivalPoisson:
		return fmt.Sprintf("poisson:%g", a.Rate)
	case ArrivalBurst:
		return fmt.Sprintf("burst:%d@%s", a.Size, a.Every)
	case ArrivalClosed:
		if a.Think > 0 {
			return fmt.Sprintf("closed:%dx%d:%s", a.Workers, a.JobsPerWorker, a.Think)
		}
		return fmt.Sprintf("closed:%dx%d", a.Workers, a.JobsPerWorker)
	}
	return string(a.Kind)
}
