// Package core implements DualPar (paper §IV): opportunistic dual-mode
// execution of parallel programs. Its three modules follow the paper's
// architecture:
//
//   - EMC (Execution Mode Control), conceptually on the metadata server,
//     decides per program whether to run computation-driven or data-driven,
//     from the program's I/O ratio and the ratio of observed disk seek
//     distance (SeekDist, from per-server locality daemons) to the best
//     achievable request distance (ReqDist, from client-side request logs).
//
//   - PEC (Process Execution Control), in the MPI-IO layer, suspends a rank
//     that misses the global cache, forks a ghost (a clone of the rank's
//     deterministic op generator) that re-executes computation and records
//     future read requests until the rank's cache quota is filled.
//
//   - CRM (Cache and Request Management) collects all ranks' recorded
//     requests, sorts and merges them, fills small holes, aligns to the
//     64 KB chunk, and issues one sorted list-I/O batch per data server;
//     fetched chunks land in a memcached-style global cache with
//     round-robin chunk homes. Data-driven writes are buffered dirty in the
//     cache and collectively written back when quotas fill.
//
// The package also implements the paper's baselines: computation-driven
// vanilla MPI-IO (Strategy 1), application-level pre-execution prefetching
// with immediate issue (Strategy 2, §II), and collective I/O.
package core

import (
	"fmt"
	"time"

	"dualpar/internal/cluster"
	"dualpar/internal/pfs"
)

// The paper's prototype fixes these; no run varies them.
const (
	// ioRatioThreshold is the minimum I/O intensity for data-driven mode
	// (0.8, §IV-B).
	ioRatioThreshold = 0.8
	// minFillWait/maxFillWait clamp the expected-time-to-fill deadline that
	// stops lagging pre-executions (§IV-C).
	minFillWait = 20 * time.Millisecond
	maxFillWait = 2 * time.Second
	// joinGrace is how long a cycle keeps waiting for more ranks to join
	// after every current participant's ghost has paused; it lets
	// lockstepped ranks batch together without letting one straggler stall
	// the cycle until the fill deadline.
	joinGrace = 10 * time.Millisecond
	// misCyclesToDisable is PEC's fast path: after this many consecutive
	// cycles whose mis-prefetch ratio exceeds MisPrefetchThreshold, the
	// data-driven mode is turned off immediately (EMC's slot-based check
	// remains the general mechanism).
	misCyclesToDisable = 3
)

// Config carries DualPar's tunables; defaults follow the paper's prototype.
type Config struct {
	// CacheQuotaBytes is each process's share of the global cache (1 MB
	// default, §V).
	CacheQuotaBytes int64
	// TImprovement is the aveSeekDist/aveReqDist threshold for entering
	// data-driven mode. The paper's prototype uses 3 and reports the system
	// is insensitive to the value; in this substrate the measured
	// improvement is ~6 for a healthy sequential stream and >100 under
	// inter-program interference, so the default sits at 8 — anywhere in
	// that wide gap behaves identically (see the T-sensitivity ablation
	// bench).
	TImprovement float64
	// MisPrefetchThreshold disables data-driven mode when the mean
	// mis-prefetch ratio exceeds it (0.2, §IV-C).
	MisPrefetchThreshold float64
	// HoleBytes is the largest unrequested hole absorbed when CRM merges
	// requests (§IV-D).
	HoleBytes int64
	// SlotEvery is EMC's sampling slot.
	SlotEvery time.Duration
	// PipelineDepth extends data-driven cycles beyond the paper (an
	// extension, off at the default of 1): ghosts record up to
	// PipelineDepth x quota; the first quota's worth is served before the
	// ranks resume (the paper's cycle), and the remainder is prefetched in
	// the background *while* the ranks consume — adding Strategy 2's
	// compute/I/O overlap to Strategy 3's request ordering.
	PipelineDepth int
	// Strategy2WindowBytes bounds how far ahead the Strategy-2 prefetcher
	// runs of consumption (total across ranks; each rank gets an equal
	// share). The default keeps per-rank prefetch depth shallow — enough
	// to hide I/O under computation, but not so deep that the immediate-
	// issue stream turns into DualPar-style batches (the paper's Strategy 2
	// never approaches Strategy 3's disk efficiency).
	Strategy2WindowBytes int64
	// CRMTimeout, when positive, arms a watchdog on every per-home-node
	// CRM batch: a batch not completed within the timeout is relaunched
	// with bounded exponential backoff (the abandoned attempt keeps
	// running; whichever finishes first completes the batch). Zero (the
	// default) disables the watchdog, leaving the timeline untouched. Set
	// it above the PFS-level RequestTimeout so the layers escalate rather
	// than race.
	CRMTimeout time.Duration
	// CRMMaxRetries bounds relaunches per batch; afterwards CRM waits for
	// the outstanding attempts.
	CRMMaxRetries int
	// CRMBackoff is slept before the first relaunch and doubles each time.
	CRMBackoff time.Duration
	// Audit arms the default-off invariant oracles (package check): byte
	// conservation across scheduler, disk, store, and PFS ledgers; cache
	// used/dirty accounting; per-cycle writeback coherence against the
	// integrity tracker; and monotone per-proc virtual time. Off (the
	// default), every hook is a nil handle and the run's timeline and
	// output stay byte-identical to an unaudited build.
	Audit bool
	// ChunkBytes is the global cache's partition unit. The paper sets it to
	// the PVFS2 stripe unit, so a chunk touches exactly one data server;
	// the ablations vary it.
	ChunkBytes int64
}

// DefaultConfig returns the paper's prototype parameters.
func DefaultConfig() Config {
	return Config{
		CacheQuotaBytes:      1 << 20,
		TImprovement:         8,
		MisPrefetchThreshold: 0.2,
		HoleBytes:            64 << 10,
		SlotEvery:            time.Second,
		PipelineDepth:        1,
		Strategy2WindowBytes: 512 << 10,
		ChunkBytes:           pfs.StripeUnit,
	}
}

// ArmWatchdogs arms the retry-watchdog preset that every fault-injecting
// run uses, at both layers: PFS client request timeouts (250 ms, 4
// retries, 20 ms backoff) and, above them, the coarser CRM batch watchdog
// (2 s, 3 relaunches, 50 ms backoff), so degraded runs make progress
// instead of pinning on a straggler.
func ArmWatchdogs(cc *cluster.Config, c *Config) {
	cc.PFS.RequestTimeout = 250 * time.Millisecond
	cc.PFS.MaxRetries = 4
	cc.PFS.RetryBackoff = 20 * time.Millisecond
	c.CRMTimeout = 2 * time.Second
	c.CRMMaxRetries = 3
	c.CRMBackoff = 50 * time.Millisecond
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.CacheQuotaBytes < 0:
		return fmt.Errorf("core: CacheQuotaBytes %d", c.CacheQuotaBytes)
	case c.TImprovement <= 0:
		return fmt.Errorf("core: TImprovement %g", c.TImprovement)
	case c.MisPrefetchThreshold <= 0 || c.MisPrefetchThreshold > 1:
		return fmt.Errorf("core: MisPrefetchThreshold %g", c.MisPrefetchThreshold)
	case c.HoleBytes < 0:
		return fmt.Errorf("core: HoleBytes %d", c.HoleBytes)
	case c.SlotEvery <= 0:
		return fmt.Errorf("core: SlotEvery %v", c.SlotEvery)
	case c.PipelineDepth <= 0:
		return fmt.Errorf("core: PipelineDepth %d", c.PipelineDepth)
	case c.Strategy2WindowBytes <= 0:
		return fmt.Errorf("core: Strategy2WindowBytes %d", c.Strategy2WindowBytes)
	case c.CRMTimeout < 0:
		return fmt.Errorf("core: CRMTimeout %v", c.CRMTimeout)
	case c.CRMMaxRetries < 0:
		return fmt.Errorf("core: CRMMaxRetries %d", c.CRMMaxRetries)
	case c.CRMBackoff < 0:
		return fmt.Errorf("core: CRMBackoff %v", c.CRMBackoff)
	case c.ChunkBytes <= 0:
		return fmt.Errorf("core: ChunkBytes %d", c.ChunkBytes)
	}
	return nil
}

// Mode selects a program's execution scheme.
type Mode int

// Execution modes: the paper's baselines and DualPar.
const (
	// ModeVanilla is Strategy 1: computation-driven vanilla MPI-IO.
	ModeVanilla Mode = iota
	// ModeCollective uses collective (two-phase) I/O for every call.
	ModeCollective
	// ModeStrategy2 is application-level pre-execution prefetching with
	// immediate request issue (§II).
	ModeStrategy2
	// ModeDualPar is full DualPar: EMC switches data-driven mode on and
	// off opportunistically.
	ModeDualPar
	// ModeDataDriven is DualPar with data-driven mode forced on (the paper
	// pins it for the single-application comparisons).
	ModeDataDriven
)

// ParseMode converts a mode name (as printed by String) back to a Mode.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "vanilla":
		return ModeVanilla, nil
	case "collective":
		return ModeCollective, nil
	case "strategy2":
		return ModeStrategy2, nil
	case "dualpar":
		return ModeDualPar, nil
	case "data-driven":
		return ModeDataDriven, nil
	}
	return 0, fmt.Errorf("core: unknown mode %q", s)
}

// EMCManaged reports whether EMC samples programs in mode m and logs a
// decision for them every slot: dualpar, and data-driven (pinned on).
func (m Mode) EMCManaged() bool { return m == ModeDualPar || m == ModeDataDriven }

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeVanilla:
		return "vanilla"
	case ModeCollective:
		return "collective"
	case ModeStrategy2:
		return "strategy2"
	case ModeDualPar:
		return "dualpar"
	case ModeDataDriven:
		return "data-driven"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}
