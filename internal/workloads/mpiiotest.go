package workloads

import (
	"time"

	"dualpar/internal/ext"
)

// MPIIOTest models mpi-io-test from the PVFS2 software package: process i
// accesses the (i + P*j)-th segment at call j, so the program presents a
// fully sequential pattern to the storage system. A barrier is called
// frequently (every call by default), which the paper identifies as the
// reason requests cannot pile up at the disk scheduler.
type MPIIOTest struct {
	Procs        int
	FileBytes    int64
	ReqBytes     int64
	Write        bool
	BarrierEvery int // calls between barriers; 0 disables
	ComputePerOp time.Duration
	FileName     string
}

// DefaultMPIIOTest matches §V: 64 processes, 16 KB requests (file size
// scaled).
func DefaultMPIIOTest() MPIIOTest {
	return MPIIOTest{
		Procs:        64,
		FileBytes:    256 << 20,
		ReqBytes:     16 << 10,
		BarrierEvery: 1,
		FileName:     "mpi-io-test.dat",
	}
}

// Name implements Program.
func (m MPIIOTest) Name() string { return "mpi-io-test" }

// Ranks implements Program.
func (m MPIIOTest) Ranks() int { return m.Procs }

// Files implements Program.
func (m MPIIOTest) Files() []FileSpec {
	return []FileSpec{{Name: m.FileName, Size: m.FileBytes, Precreate: !m.Write}}
}

// Calls returns the per-rank call count.
func (m MPIIOTest) Calls() int {
	return int(m.FileBytes / (int64(m.Procs) * m.ReqBytes))
}

// NewRank implements Program.
func (m MPIIOTest) NewRank(r int) RankGen {
	if m.FileName == "" {
		panic("workloads: MPIIOTest.FileName empty")
	}
	// Extent j is the rank's segment at call j.
	segs := tabulate(int64(m.Calls()), func(j int64) ext.Extent {
		seg := int64(r) + int64(m.Procs)*j
		return ext.Extent{Off: seg * m.ReqBytes, Len: m.ReqBytes}
	})
	return newCalls(script{
		kind: ioKind(m.Write), file: m.FileName, table: segs, per: 1,
		compute: m.ComputePerOp, barrierEvery: m.BarrierEvery,
	})
}
