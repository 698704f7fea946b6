package harness

import (
	"errors"
	"fmt"
	"time"

	"dualpar/internal/burst"
	"dualpar/internal/cluster"
	"dualpar/internal/core"
	"dualpar/internal/fault"
	"dualpar/internal/metrics"
	"dualpar/internal/sim"
	"dualpar/internal/workloads"
)

// driveKernel runs the shared kernel in bounded steps until *done flips or
// budget of virtual time elapses. The kernel hosts forever-looping daemons
// (store flushers), so it can never be run dry; bounded steps let a
// post-run orchestration proc make progress against them. Reports whether
// done flipped in time.
func driveKernel(cl *cluster.Cluster, done *bool, budget time.Duration) bool {
	deadline := cl.K.Now() + budget
	for !*done && cl.K.Now() < deadline {
		step := cl.K.Now() + time.Second
		if step > deadline {
			step = deadline
		}
		cl.K.RunUntil(step)
	}
	return *done
}

// ckptProg is the checkpoint workload the experiment sweeps: N-1 epoch
// checkpointing, every rank writing its block per epoch and sealing it.
func ckptProg(quick bool) workloads.EpochCheckpoint {
	c := workloads.DefaultEpochCheckpoint(true)
	if quick {
		c.Procs = 16
		c.Epochs = 4
	}
	return c
}

// clientCrashAt builds a schedule that crash-stops the job at the given
// time (rank 0's node failing aborts every rank — the job is gone, only
// what it committed survives).
func clientCrashAt(at time.Duration) *fault.Schedule {
	return &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.ClientCrash, Target: 0, Start: at},
	}}
}

// ckptRun is one checkpoint cell's full lifecycle: the (possibly crashed)
// checkpoint run, burst-log recovery and drain, and the restart read of
// the last committed epoch.
type ckptRun struct {
	cl    *cluster.Cluster
	ddCfg core.Config
	prog  workloads.EpochCheckpoint

	main      measured
	crashed   bool
	committed int

	stats       burst.Stats   // zero value on the direct path
	recovery    time.Duration // main-run end -> tier replayed and drained
	recoveryErr error

	restart    measured
	restartErr error // wraps burst.ErrNoCommittedEpoch when nothing committed
}

// runCheckpoint executes one checkpoint cell end to end. bcfg == nil is
// the direct path (writes go straight to the PFS); otherwise every
// epoch-tagged write absorbs into the node-local burst log. audit arms the
// invariant oracles regardless of the suite-wide flag (the crash-matrix
// tests always want byte conservation checked).
func runCheckpoint(seed int64, prog workloads.EpochCheckpoint, replicas int, bcfg *burst.Config, sch *fault.Schedule, audit bool) *ckptRun {
	cfg := baseConfig()
	cfg.Seed = seed
	cfg.Faults = sch
	cfg.PFS.Replicas = replicas
	cfg.PFS.DetectDelay = 100 * time.Millisecond
	cfg.Burst = bcfg
	ddCfg := core.DefaultConfig()
	core.ArmWatchdogs(&cfg, &ddCfg)
	if audit {
		ddCfg.Audit = true
	}
	cl := cluster.New(cfg)
	cl.FS.EnableIntegrity()
	ms, _ := executeOn(cl, 2*time.Minute, ddCfg, []runSpec{{prog: prog, mode: core.ModeVanilla}})
	// The conservation ledgers arm once per cluster lifetime (re-arming
	// resets the PFS side but not the stores'), so the restart runner must
	// not build a second auditor; the oracles cover the checkpoint run and
	// the recovery, and the restart's reads are checked by the integrity
	// oracle instead.
	ddCfg.Audit = false
	cr := &ckptRun{
		cl: cl, ddCfg: ddCfg, prog: prog,
		main:      ms[0],
		crashed:   ms[0].run.Crashed(),
		committed: ms[0].run.CommittedEpoch(),
	}
	cr.runRecovery()
	cr.runRestart(10 * time.Minute)
	return cr
}

// runRecovery replays a crashed tier's sealed-but-undrained records and
// waits for the burst logs to drain completely, measuring the virtual time
// it takes. A no-op on the direct path.
func (cr *ckptRun) runRecovery() {
	tier := cr.cl.Burst()
	if tier == nil {
		return
	}
	start := cr.cl.K.Now()
	var end time.Duration
	done := false
	cr.cl.K.Spawn("harness/ckpt-recover", func(p *sim.Proc) {
		defer func() { done = true }()
		if cr.crashed {
			if err := tier.Recover(p); err != nil {
				cr.recoveryErr = err
				return
			}
		}
		cr.recoveryErr = tier.WaitDrained(p)
		end = p.Now()
	})
	if !driveKernel(cr.cl, &done, 30*time.Minute) {
		cr.recoveryErr = fmt.Errorf("harness: burst recovery did not complete (drain wedged)")
	}
	if cr.recoveryErr == nil {
		cr.recovery = end - start
	}
	cr.stats = tier.Stats()
}

// runRestart reads the last committed epoch back with a fresh job on the
// same cluster (the simulated machines rebooted; the storage state is
// whatever the crash left durable). When no epoch committed, the typed
// burst.ErrNoCommittedEpoch surfaces instead of a bogus read.
func (cr *ckptRun) runRestart(budget time.Duration) {
	if cr.committed == 0 {
		cr.restartErr = fmt.Errorf("harness: restart: %w", burst.ErrNoCommittedEpoch)
		return
	}
	r := core.NewRunner(cr.cl, cr.ddCfg)
	pr := r.Add(workloads.Restart{Ckpt: cr.prog, Epoch: cr.committed}, core.ModeVanilla, core.AddOptions{
		RanksPerNode: 8,
		StartAt:      cr.cl.K.Now(),
	})
	finished := r.Run(cr.cl.K.Now() + budget)
	if err := r.AuditErr(); err != nil {
		panic(err)
	}
	var io time.Duration
	for rnk := range pr.Instr().Ranks {
		io += pr.Instr().Ranks[rnk].IOTime
	}
	cr.restart = measured{
		elapsed: pr.Elapsed(), bytes: pr.Instr().TotalBytes(),
		ioTime: io, finished: pr.Done, run: pr,
	}
	switch {
	case !finished:
		cr.restartErr = fmt.Errorf("harness: restart did not finish within its budget")
	default:
		cr.restartErr = pr.Err()
	}
}

// msec formats a duration cell in milliseconds.
func msec(d time.Duration) string { return fmt.Sprintf("%.1f", d.Seconds()*1e3) }

// Checkpoint sweeps the checkpoint/restart lifecycle across the write path
// (direct-to-PFS vs node-local burst log), a client-crash schedule, and
// the replica count. The reproduction target: the burst path absorbs
// checkpoints at log speed (rank-visible write time shrinks, drain lag
// moves the PFS traffic into the background) while crash recovery still
// restores exactly the last committed epoch — sealed-but-undrained records
// replay, unsealed ones are discarded — and the restart read passes the
// integrity oracle on both paths.
func Checkpoint(o Opts) *Result {
	res := &Result{
		ID:    "checkpoint",
		Title: "Checkpoint/restart under client crashes: direct vs burst-buffer write log",
		Table: &metrics.Table{Header: []string{
			"path", "crash", "replicas", "committed", "lost",
			"write_s", "stall_ms", "drain_ms", "recover_ms", "restart_s", "oracle"}},
	}
	prog := ckptProg(o.Quick)
	period := prog.Interval
	scenarios := []struct {
		label string
		sch   *fault.Schedule
	}{
		{"none", &fault.Schedule{}},
		// Mid-run: the job dies about halfway through its epochs.
		{"mid", clientCrashAt(period*time.Duration(prog.Epochs)/2 + period/2)},
		// Late: the job dies with most epochs committed.
		{"late", clientCrashAt(period*time.Duration(prog.Epochs) - period/4)},
	}
	paths := []struct {
		label string
		bcfg  *burst.Config
	}{
		{"direct", nil},
		{"burst", func() *burst.Config { c := burst.DefaultConfig(); return &c }()},
	}
	replicaCounts := []int{1, 2}
	if o.Quick {
		replicaCounts = []int{2}
	}
	res.note("%d ranks x %d epochs x %s blocks, %s compute per epoch; crash times are wall-clock, so the epoch they land in shifts with the write path's speed",
		prog.Procs, prog.Epochs, fmt.Sprintf("%dKB", prog.BlockBytes>>10), period)
	res.note("write_s is rank-visible checkpoint write time; drain_ms is mean seal->PFS-durable lag; recover_ms covers replay of sealed records plus the drain tail; 'no-epoch' marks the typed nothing-committed restart error")

	o = o.forSweep()
	type cellOut struct {
		row   []string
		notes []string
	}
	outs := make([]cellOut, len(paths)*len(scenarios)*len(replicaCounts))
	var cells []Cell
	for pi, path := range paths {
		for si, sc := range scenarios {
			for ri, reps := range replicaCounts {
				slot := &outs[(pi*len(scenarios)+si)*len(replicaCounts)+ri]
				cells = append(cells, Cell{
					Key: fmt.Sprintf("checkpoint/path=%s/crash=%s/replicas=%d", path.label, sc.label, reps),
					Run: func() {
						o.logf("checkpoint: path=%s crash=%s replicas=%d", path.label, sc.label, reps)
						cr := runCheckpoint(o.seed(), prog, reps, path.bcfg, sc.sch, false)
						stall, drain, recover := "-", "-", "-"
						if path.bcfg != nil {
							stall = msec(cr.stats.Stall)
							if cr.stats.DrainOps > 0 {
								drain = msec(cr.stats.DrainLag / time.Duration(cr.stats.DrainOps))
							}
							recover = msec(cr.recovery)
							if cr.recoveryErr != nil {
								recover = "ERR"
								slot.notes = append(slot.notes, fmt.Sprintf(
									"path=%s crash=%s replicas=%d recovery: %v", path.label, sc.label, reps, cr.recoveryErr))
							}
						}
						restart := secs(cr.restart.elapsed)
						switch {
						case errors.Is(cr.restartErr, burst.ErrNoCommittedEpoch):
							restart = "no-epoch"
						case cr.restartErr != nil:
							restart = "ERR"
							slot.notes = append(slot.notes, fmt.Sprintf(
								"path=%s crash=%s replicas=%d restart: %v", path.label, sc.label, reps, cr.restartErr))
						}
						oracle := "ok"
						if err := VerifyIntegrity(cr.cl); err != nil {
							oracle = "FAIL: " + err.Error()
						}
						slot.row = []string{path.label, sc.label, fmt.Sprintf("%d", reps),
							fmt.Sprintf("%d", cr.committed), fmt.Sprintf("%d", prog.Epochs-cr.committed),
							secs(cr.main.ioTime), stall, drain, recover, restart, oracle}
					},
				})
			}
		}
	}
	runSweep(o, cells)
	for _, out := range outs {
		res.Notes = append(res.Notes, out.notes...)
		res.Table.AddRow(out.row...)
	}
	return res
}
