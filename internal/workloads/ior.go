package workloads

import (
	"time"

	"dualpar/internal/ext"
)

// IOR models ior-mpi-io from the ASCI Purple suite (§V-A): each process
// owns 1/P of the file and streams through its own scope with fixed-size
// sequential requests. All processes sit at the same relative offset of
// their scopes, so the pattern presented to the storage system is scattered
// (the paper calls it random).
type IOR struct {
	Procs        int
	FileBytes    int64
	ReqBytes     int64
	Write        bool
	ComputePerOp time.Duration
	FileName     string
}

// DefaultIOR matches §V-A: 64 processes, 32 KB requests (16 GB file
// scaled).
func DefaultIOR() IOR {
	return IOR{
		Procs:     64,
		FileBytes: 256 << 20,
		ReqBytes:  32 << 10,
		FileName:  "ior.dat",
	}
}

// Name implements Program.
func (i IOR) Name() string { return "ior-mpi-io" }

// Ranks implements Program.
func (i IOR) Ranks() int { return i.Procs }

// Files implements Program.
func (i IOR) Files() []FileSpec {
	return []FileSpec{{Name: i.FileName, Size: i.FileBytes, Precreate: !i.Write}}
}

// Scope is each process's contiguous region size.
func (i IOR) Scope() int64 { return i.FileBytes / int64(i.Procs) }

// NewRank implements Program.
func (i IOR) NewRank(r int) RankGen {
	if i.FileName == "" {
		panic("workloads: IOR.FileName empty")
	}
	// Extent j is request j of the rank's scope.
	base := int64(r) * i.Scope()
	reqs := tabulate(i.Scope()/i.ReqBytes, func(j int64) ext.Extent {
		return ext.Extent{Off: base + j*i.ReqBytes, Len: i.ReqBytes}
	})
	return newCalls(script{
		kind: ioKind(i.Write), file: i.FileName, table: reqs, per: 1,
		compute: i.ComputePerOp,
	})
}
