package core

import (
	"fmt"
	"strings"

	"dualpar/internal/check"
)

// newRunAuditor builds a run's auditor and wires it through every layer:
// the kernel's monotone-clock check, the cluster's dispatcher and byte
// ledgers, the PFS integrity tracker (for the per-cycle writeback coherence
// oracle), and — as programs register — each global cache's used/dirty
// accounting. The auditor is pure bookkeeping driven from simulation
// context; it adds no events, so an audited run's timeline is identical to
// an unaudited one. A cluster that an earlier run already audits keeps its
// auditor, whose ledgers span both runs.
func newRunAuditor(r *Runner) *check.Auditor {
	cl := r.cl
	if a := cl.Auditor(); a != nil {
		return a
	}
	ccfg := cl.Config()
	desc := fmt.Sprintf("%d servers x %d disks, %d compute nodes, seed %d",
		ccfg.DataServers, ccfg.DisksPerRAID, ccfg.ComputeNodes, ccfg.Seed)
	a := check.New(ccfg.Seed, desc)
	a.SetClock(cl.K.Now)
	if o := cl.Obs(); o != nil {
		a.SetInstantSource(func(max int) []string {
			ins := o.Instants()
			if len(ins) > max {
				ins = ins[len(ins)-max:]
			}
			out := make([]string, len(ins))
			for i, in := range ins {
				var b strings.Builder
				fmt.Fprintf(&b, "t=%v %s/%s", in.At, in.Track, in.Name)
				for _, arg := range in.Args {
					fmt.Fprintf(&b, " %s=%s", arg.Key, arg.Val)
				}
				out[i] = b.String()
			}
			return out
		})
	}
	cl.EnableAudit(a)
	cl.FS.EnableIntegrity()
	return a
}

// Auditor returns the run auditor (nil unless Config.Audit was set).
func (r *Runner) Auditor() *check.Auditor { return r.audit }

// AuditErr returns the first violated invariant of an audited run, nil when
// every oracle held (or audit is off). Call after Run.
func (r *Runner) AuditErr() error {
	if r.audit == nil {
		return nil
	}
	return r.audit.Err()
}

// Err reports why a finished run's results cannot be trusted: the first
// violated invariant of an audited run, else the first program's I/O error
// (data lost to a crash, say) as "program N: ...". A client crash records
// no I/O error. Call after Run.
func (r *Runner) Err() error {
	if err := r.AuditErr(); err != nil {
		return err
	}
	for i, pr := range r.progs {
		if err := pr.Err(); err != nil {
			return fmt.Errorf("program %d: %w", i, err)
		}
	}
	return nil
}
