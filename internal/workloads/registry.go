package workloads

import (
	"fmt"
	"strings"
)

// Params sizes a named workload for one command-line run.
type Params struct {
	// Procs overrides the rank count (0 keeps the workload's default).
	Procs int
	// Bytes is the data volume: the file length, or the total written
	// across checkpoints. Workloads with a fixed shape (s3asim) ignore it.
	Bytes int64
	// Write selects the write variant where the workload has one.
	Write bool
	// FileName overrides the data file of a workload with a Stem ("" keeps
	// the default).
	FileName string
}

// Workload is one named benchmark the command-line tools can run.
type Workload struct {
	Name string
	// Stem names the data file of each side-by-side copy, "<Stem>-<i>.dat";
	// "" means the workload has no single renamable file and runs alone.
	Stem string
	// Build constructs the workload sized by p.
	Build func(Params) Program
	// rw is the I/O direction the workload always does ("" = Params.Write
	// decides).
	rw string
}

// RW labels the run's I/O direction: "read" or "write" as -write asks, or
// the direction the workload models regardless of it.
func (w Workload) RW(write bool) string {
	switch {
	case w.rw != "":
		return w.rw
	case write:
		return "write"
	}
	return "read"
}

// Registry is an ordered set of named workloads.
type Registry []Workload

// Workloads returns every named workload in canonical order.
func Workloads() Registry {
	return Registry{
		{Name: "demo", Stem: "demo", Build: func(p Params) Program {
			d := DefaultDemo()
			setInt(&d.Procs, p.Procs)
			setStr(&d.FileName, p.FileName)
			d.FileBytes, d.Write = p.Bytes, p.Write
			return d
		}},
		{Name: "mpi-io-test", Stem: "mpiio", Build: func(p Params) Program {
			m := DefaultMPIIOTest()
			setInt(&m.Procs, p.Procs)
			setStr(&m.FileName, p.FileName)
			m.FileBytes, m.Write = p.Bytes, p.Write
			return m
		}},
		{Name: "hpio", Stem: "hpio", Build: func(p Params) Program {
			h := DefaultHPIO()
			setInt(&h.Procs, p.Procs)
			setStr(&h.FileName, p.FileName)
			h.RegionCount, h.Write = p.Bytes/h.RegionBytes, p.Write
			return h
		}},
		{Name: "ior-mpi-io", Build: func(p Params) Program {
			i := DefaultIOR()
			setInt(&i.Procs, p.Procs)
			i.FileBytes, i.Write = p.Bytes, p.Write
			return i
		}},
		{Name: "noncontig", Stem: "noncontig", Build: func(p Params) Program {
			n := DefaultNoncontig()
			setInt(&n.Procs, p.Procs)
			setStr(&n.FileName, p.FileName)
			n.FileBytes, n.Write = p.Bytes, p.Write
			return n
		}},
		// BT-IO's canonical phase writes the solution array; -write is
		// implied. (Set Read in code to model the verification read-back.)
		{Name: "btio", rw: "write", Build: func(p Params) Program {
			b := DefaultBTIO()
			setInt(&b.Procs, p.Procs)
			b.TotalBytes = p.Bytes
			return b
		}},
		{Name: "s3asim", rw: "read+write", Build: func(p Params) Program {
			s := DefaultS3asim()
			setInt(&s.Procs, p.Procs)
			return s
		}},
		{Name: "checkpoint", rw: "write", Build: func(p Params) Program {
			c := DefaultCheckpoint()
			setInt(&c.Procs, p.Procs)
			c.Checkpoints = max(1, int(p.Bytes/(int64(c.Procs)*c.BlockBytes)))
			return c
		}},
		// Epoch checkpointing with per-epoch seals (N-1 shared file or N-N
		// per-rank files); Bytes sets the total volume across epochs.
		{Name: "ckpt-n1", rw: "write", Build: func(p Params) Program { return epochCkpt(p, true) }},
		{Name: "ckpt-nn", rw: "write", Build: func(p Params) Program { return epochCkpt(p, false) }},
		{Name: "depreader", Build: func(p Params) Program {
			d := DefaultDependentReader()
			setInt(&d.Procs, p.Procs)
			d.FileBytes = p.Bytes
			return d
		}},
	}
}

func epochCkpt(p Params, shared bool) EpochCheckpoint {
	c := DefaultEpochCheckpoint(shared)
	setInt(&c.Procs, p.Procs)
	c.Epochs = max(1, int(p.Bytes/(int64(c.Procs)*c.BlockBytes)))
	return c
}

func setInt(dst *int, v int) {
	if v != 0 {
		*dst = v
	}
}

func setStr(dst *string, v string) {
	if v != "" {
		*dst = v
	}
}

// Lookup returns the named workload.
func (r Registry) Lookup(name string) (Workload, error) {
	for _, w := range r {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("unknown workload %q", name)
}

// Names lists the registry's names as a flag help string, "a|b|c".
func (r Registry) Names() string {
	names := make([]string, len(r))
	for i, w := range r {
		names[i] = w.Name
	}
	return strings.Join(names, "|")
}

// Instanced is the subset whose workloads can run as side-by-side copies
// (Stem != "").
func (r Registry) Instanced() Registry {
	var out Registry
	for _, w := range r {
		if w.Stem != "" {
			out = append(out, w)
		}
	}
	return out
}
