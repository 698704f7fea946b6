// Command dualpar-sim runs one benchmark on the simulated cluster under a
// chosen execution scheme and prints the measured outcome: elapsed time,
// throughput, disk efficiency, cache behavior, and mode switches.
//
// Usage:
//
//	dualpar-sim -workload mpi-io-test -mode dualpar -procs 64 -mb 128 [-write]
//	            [-servers 9] [-sched cfq|deadline|noop] [-seed N]
//	            [-trace out.json] [-stats] [-report] [-faults SPEC] [-replicas N]
//
// -trace writes a Chrome trace-event JSON of every I/O request's journey
// through the stack (load it at ui.perfetto.dev); -stats prints the kernel's
// self-counters and the metrics registry (latency histograms, counters,
// gauges) after the run; -report prints the time-attribution report (phase
// breakdown, per-server utilization, critical paths — see dualpar-analyze
// for offline use on a saved -trace file).
//
// -faults injects a deterministic fault schedule (see fault.Parse), e.g.
// "disk:1*10@5s-30s;crash:2@5s-20s;drop:102:0.2@0s-10s", and arms the
// client and CRM retry watchdogs; fault windows, drops, retries, failovers,
// and rebuild progress appear as instants in -trace output.
//
// -replicas N (1 to -servers) stripes each file across N replicas
// (rack-stride placement); reads fail over between replicas and writes
// complete at a majority quorum when crash faults are scheduled.
//
// -tenants SPEC switches to multi-tenant mode: instead of one workload, a
// seeded generator launches each tenant's stream of small jobs onto one
// shared cluster and the cluster-wide arbiter rations data-driven grants
// under the spec's policy (see tenant.ParseSpec), e.g.
// "tenants:4,arrival=poisson:12,policy=fair,grants=12,cache=64M,jobs=40,ranks=2,hot=0x6".
// The run prints per-tenant job counts, grant/deny/revoke totals, and
// elapsed-time percentiles. Only -seed, -slot, -audit and -engine apply in
// this mode; any single-run flag beside -tenants exits 2.
//
// -burst SPEC adds a burst-buffer write log on every compute node:
// epoch-tagged checkpoint writes (ckpt-n1/ckpt-nn workloads) absorb into
// the node-local log at log speed and drain to the PFS in the background;
// an epoch is committed once every rank has sealed it. SPEC is "on" for
// the defaults or "cap=64M,absorb=400M,drain=100M,seal=500us" form (see
// burst.ParseSpec). "crash:client<rank>@T" in -faults crash-stops the job:
// unsealed log records are lost, sealed ones replay on recovery.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"time"

	"dualpar/internal/burst"
	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/fault"
	"dualpar/internal/iosched"
	"dualpar/internal/metrics"
	"dualpar/internal/obs"
	"dualpar/internal/obs/analyze"
	"dualpar/internal/tenant"
	"dualpar/internal/workloads"
)

func main() {
	registry := workloads.Workloads()
	workload := flag.String("workload", "mpi-io-test", registry.Names())
	mode := flag.String("mode", "vanilla", "vanilla|collective|strategy2|dualpar|data-driven")
	procs := flag.Int("procs", 64, "MPI processes")
	mbytes := flag.Int64("mb", 64, "data volume in MiB")
	write := flag.Bool("write", false, "write instead of read (where applicable)")
	servers := flag.Int("servers", 9, "data servers")
	sched := flag.String("sched", "cfq", "disk scheduler: cfq|deadline|noop|anticipatory")
	engine := flag.String("engine", "", "data-server storage engine: extent|bptree|lsm (default extent)")
	seed := flag.Int64("seed", 1, "simulation seed")
	emclog := flag.Bool("emclog", false, "print EMC's per-slot decisions")
	slot := flag.Duration("slot", 0, "EMC sampling slot (default 1s)")
	traceOut := flag.String("trace", "", "write Chrome trace-event JSON (Perfetto) to this file")
	stats := flag.Bool("stats", false, "print the metrics registry after the run")
	report := flag.Bool("report", false, "print the time-attribution report (phases, utilization, critical paths)")
	faults := flag.String("faults", "", "fault schedule, e.g. 'disk:1*10@5s-30s;crash:2@5s-20s;drop:102:0.2'")
	replicas := flag.Int("replicas", 1, "data replicas per stripe (1 = unreplicated)")
	audit := flag.Bool("audit", false, "arm the invariant oracles; violations exit 1 with a reproducer artifact")
	burstSpec := flag.String("burst", "", "per-node burst-buffer write log: 'on' for defaults or 'cap=64M,absorb=400M,drain=100M,seal=500us'")
	tenants := flag.String("tenants", "", "multi-tenant mode: tenancy spec (see tenant.ParseSpec), e.g. 'tenants:4,arrival=poisson:12,policy=fair,grants=12,jobs=40,ranks=2'")
	flag.Parse()

	if *slot < 0 {
		fmt.Fprintf(os.Stderr, "-slot must not be negative (got %v)\n", *slot)
		os.Exit(2)
	}
	if *tenants != "" {
		var ignored []string
		flag.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "tenants", "seed", "slot", "audit", "engine":
			default:
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			fmt.Fprintf(os.Stderr, "%s: single-run flags, not used with -tenants\n", strings.Join(ignored, ", "))
			os.Exit(2)
		}
		tc, err := tenant.ParseSpec(*tenants)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		tc.Seed = *seed
		ccfg := cluster.DefaultConfig()
		ccfg.Seed = *seed
		ccfg.Tenancy = &tc
		ccfg.FS.Engine = *engine
		if err := ccfg.FS.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := runTenants(ccfg, *slot, *audit); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	if *procs <= 0 || *mbytes <= 0 || *servers <= 0 {
		fmt.Fprintf(os.Stderr, "-procs, -mb and -servers must be positive (got %d, %d, %d)\n", *procs, *mbytes, *servers)
		os.Exit(2)
	}
	if *mbytes > math.MaxInt64>>20 {
		fmt.Fprintf(os.Stderr, "-mb %d overflows a byte count (at most %d MiB)\n", *mbytes, int64(math.MaxInt64>>20))
		os.Exit(2)
	}
	if *replicas < 1 || *replicas > *servers {
		fmt.Fprintf(os.Stderr, "-replicas must be between 1 and -servers (got %d with %d servers)\n", *replicas, *servers)
		os.Exit(2)
	}
	w, err := registry.Lookup(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	prog := w.Build(workloads.Params{Procs: *procs, Bytes: *mbytes << 20, Write: *write})
	m, err := core.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	ccfg := cluster.DefaultConfig()
	ccfg.DataServers = *servers
	ccfg.Seed = *seed
	ccfg.PFS.Replicas = *replicas
	ccfg.FS.Engine = *engine
	if err := ccfg.FS.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if ccfg.NewScheduler = iosched.Named(*sched); ccfg.NewScheduler == nil {
		fmt.Fprintf(os.Stderr, "unknown scheduler %q\n", *sched)
		os.Exit(2)
	}
	var collector *obs.Collector
	if *traceOut != "" || *stats || *report {
		collector = obs.NewCollector()
		ccfg.Obs = collector
	}
	dcfg := core.DefaultConfig()
	if *faults != "" {
		sch, err := fault.Parse(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ccfg.Faults = sch
		core.ArmWatchdogs(&ccfg, &dcfg)
	}
	if *burstSpec != "" {
		spec := *burstSpec
		if spec == "on" || spec == "default" {
			spec = ""
		}
		bc, err := burst.ParseSpec(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		ccfg.Burst = &bc
	}
	cl := cluster.New(ccfg)
	if *slot > 0 {
		dcfg.SlotEvery = *slot
	}
	dcfg.Audit = *audit
	runner := core.NewRunner(cl, dcfg)
	pr := runner.Add(prog, m, core.AddOptions{RanksPerNode: 8})
	if !runner.Run(24 * time.Hour) {
		fmt.Fprintln(os.Stderr, "simulation did not finish within 24 simulated hours")
		os.Exit(1)
	}
	if err := runner.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	bytes := pr.Instr().TotalBytes()
	elapsed := pr.Elapsed()
	fmt.Printf("workload:    %s (%d procs, %s)\n", prog.Name(), prog.Ranks(), w.RW(*write))
	fmt.Printf("mode:        %s\n", m)
	fmt.Printf("elapsed:     %.3f s (simulated)\n", elapsed.Seconds())
	fmt.Printf("volume:      %.1f MiB\n", float64(bytes)/(1<<20))
	fmt.Printf("throughput:  %.1f MB/s\n", float64(bytes)/(1<<20)/elapsed.Seconds())
	st := cl.ServerStats()
	fmt.Printf("disk:        %d accesses, %d seeks, avg seek %.0f sectors\n",
		st.Accesses, st.Seeks, st.AvgSeekDistance())
	fmt.Printf("network:     %.1f MiB on the wire, %d messages\n",
		float64(cl.Net.BytesSent())/(1<<20), cl.Net.Messages())
	if *faults != "" {
		fmt.Printf("faults:      %d windows, %d messages dropped, %d client retries, %d read failovers\n",
			len(ccfg.Faults.Windows), cl.Net.Drops(), cl.FS.Retries(), cl.FS.Failovers())
	}
	if c := pr.Cache(); c != nil {
		fmt.Printf("cache:       %d gets, %d hits, %d evictions\n", c.Gets(), c.Hits(), c.Evictions())
	}
	if tier := cl.Burst(); tier != nil {
		s := tier.Stats()
		var meanLag time.Duration
		if s.DrainOps > 0 {
			meanLag = s.DrainLag / time.Duration(s.DrainOps)
		}
		fmt.Printf("burst:       %.1f MiB absorbed, %.1f MiB drained, %.1f MiB replayed, %.1f MiB discarded, stall %.1f ms, mean drain lag %.1f ms\n",
			float64(s.Absorbed)/(1<<20), float64(s.Drained)/(1<<20),
			float64(s.Replayed)/(1<<20), float64(s.Discarded)/(1<<20),
			s.Stall.Seconds()*1e3, meanLag.Seconds()*1e3)
		if err := tier.Err(); err != nil {
			fmt.Printf("burst error: %v\n", err)
		}
	}
	if pr.Crashed() {
		fmt.Printf("crash:       client crash at %.2fs; last committed epoch %d\n",
			pr.EndedAt.Seconds(), pr.CommittedEpoch())
	} else if e := pr.CommittedEpoch(); e > 0 {
		fmt.Printf("epochs:      %d committed\n", e)
	}
	if *audit {
		fmt.Printf("audit:       all %d oracles held\n", runner.Auditor().Oracles())
	}
	if *emclog {
		fmt.Println("EMC decisions (t, io_ratio, seek/req improvement, data-driven):")
		decisions := runner.EMCDecisions()
		for _, d := range decisions {
			fmt.Printf("  %6.2fs  io=%.2f  imp=%6.1f  dd=%v\n",
				d.At.Seconds(), d.IORatio, d.Improvement, d.DataDriven)
		}
		switch {
		case len(decisions) > 0:
		case !m.EMCManaged():
			fmt.Printf("  (none: EMC manages only dualpar and data-driven programs, not %s)\n", m)
		default:
			fmt.Printf("  (none: the run ended at %.3f s, before EMC's first slot at %.3f s)\n",
				pr.EndedAt.Seconds(), dcfg.SlotEvery.Seconds())
		}
	}
	if len(pr.ModeSwitches) > 0 {
		fmt.Printf("mode log:    ")
		for _, sw := range pr.ModeSwitches {
			state := "off"
			if sw.On {
				state = "ON"
			}
			fmt.Printf("[%.2fs %s] ", sw.At.Seconds(), state)
		}
		fmt.Println()
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := collector.WriteTrace(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("trace:       %s (%d spans, %d instants; open at ui.perfetto.dev)\n",
			*traceOut, len(collector.Spans()), len(collector.Instants()))
	}
	var rep *analyze.Report
	if *report {
		// Register the phase histograms before the summary prints so -stats
		// shows per-request phase latencies alongside the raw stage metrics.
		rep = analyze.FromCollector(collector, analyze.Options{})
		rep.RegisterMetrics(collector.Metrics(), analyze.AttributeAll(collector.Spans()))
	}
	if *stats {
		ks := cl.K.Stats()
		fmt.Printf("kernel:      %d events (%d callbacks, %d handoffs, %d self-resumes)\n",
			ks.Events, ks.Callbacks, ks.Handoffs, ks.SelfResumes)
		fmt.Println()
		if err := collector.WriteSummary(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if rep != nil {
		fmt.Println()
		if err := rep.RenderText(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if !rep.Conserved() {
			fmt.Fprintf(os.Stderr, "time attribution violates conservation (max residual %dns)\n",
				int64(rep.MaxResidual))
			os.Exit(1)
		}
	}
}

// runTenants drives the multi-tenant mode: the seeded generator's full job
// schedule runs on one shared tenanted cluster (ccfg.Tenancy; see
// core.Runner.SubmitTenants), then per-tenant outcomes print as a small
// table. Deterministic per spec+seed.
func runTenants(ccfg cluster.Config, slot time.Duration, audit bool) error {
	tc := *ccfg.Tenancy
	cl := cluster.New(ccfg)
	dcfg := core.DefaultConfig()
	dcfg.SlotEvery = 250 * time.Millisecond
	if slot > 0 {
		dcfg.SlotEvery = slot
	}
	dcfg.Audit = audit
	runner := core.NewRunner(cl, dcfg)
	sched, runs := runner.SubmitTenants(tc, 1)
	finished := runner.Run(24 * time.Hour)
	if err := runner.Err(); err != nil {
		return err
	}
	arb := cl.Arbiter()
	fmt.Printf("tenancy:     %s\n", tc)
	fmt.Printf("jobs:        %d across %d tenants", len(sched), tc.Tenants)
	if !finished {
		fmt.Printf(" (some unfinished at 24h budget)")
	}
	fmt.Println()
	var makespan time.Duration
	fmt.Println("tenant  jobs  granted  denied  revoked  mean_ms    p99_ms")
	for t := 0; t < tc.Tenants; t++ {
		var els []time.Duration
		var sum time.Duration
		for i, pr := range runs {
			if pr == nil || sched[i].Tenant != t || !pr.Done {
				continue
			}
			els = append(els, pr.Elapsed())
			sum += pr.Elapsed()
			if pr.EndedAt > makespan {
				makespan = pr.EndedAt
			}
		}
		var mean time.Duration
		if len(els) > 0 {
			mean = sum / time.Duration(len(els))
		}
		p99 := metrics.NearestRank(els, 99)
		fmt.Printf("%-6d  %-4d  %-7d  %-6d  %-7d  %-9.1f  %-9.1f\n",
			t, len(els), arb.Grants(t), arb.Denies(t), arb.Revokes(t),
			mean.Seconds()*1e3, p99.Seconds()*1e3)
	}
	fmt.Printf("makespan:    %.3f s (simulated)\n", makespan.Seconds())
	if audit {
		fmt.Printf("audit:       all %d oracles held\n", runner.Auditor().Oracles())
	}
	return nil
}
