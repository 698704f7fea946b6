package workloads

import (
	"time"

	"dualpar/internal/ext"
)

// S3asim models the sequence-similarity search simulator (§V-A): a sequence
// database split into Fragments; each query scans portions of every
// fragment, computes, and appends a variable-size result. Query-to-worker
// assignment is deterministic round-robin (the original uses a dynamic
// master/worker protocol; round-robin preserves the I/O pattern — fragment
// scans plus variable-size result writes — without a side channel, which
// keeps rank generators pure and cloneable).
type S3asim struct {
	Procs         int
	Queries       int
	Fragments     int
	FragmentBytes int64
	// ScanFraction is the portion of each fragment one query scans.
	ScanFraction float64
	// MinResult/MaxResult bound the per-query result size written.
	MinResult, MaxResult int64
	ComputePerQuery      time.Duration
	DBName, OutName      string
}

// DefaultS3asim matches §V-A shape: 16 database fragments, variable query
// results (sizes scaled).
func DefaultS3asim() S3asim {
	return S3asim{
		Procs:           64,
		Queries:         16,
		Fragments:       16,
		FragmentBytes:   4 << 20,
		ScanFraction:    0.25,
		MinResult:       4 << 10,
		MaxResult:       256 << 10,
		ComputePerQuery: 20 * time.Millisecond,
		DBName:          "s3asim-db.dat",
		OutName:         "s3asim-out.dat",
	}
}

// Name implements Program.
func (s S3asim) Name() string { return "s3asim" }

// Ranks implements Program.
func (s S3asim) Ranks() int { return s.Procs }

// Files implements Program.
func (s S3asim) Files() []FileSpec {
	return []FileSpec{
		{Name: s.DBName, Size: int64(s.Fragments) * s.FragmentBytes, Precreate: true},
		{Name: s.OutName, Size: 0},
	}
}

// resultBytes is the deterministic result size of one query.
func (s S3asim) resultBytes(q int) int64 {
	span := s.MaxResult - s.MinResult
	if span <= 0 {
		return s.MinResult
	}
	return s.MinResult + Content("s3asim-result", int64(q))%span
}

// outOffset is where query q's result lands: results are packed per query
// in query order (each query's slot sized by its own result).
func (s S3asim) outOffset(q int) int64 {
	var off int64
	for i := 0; i < q; i++ {
		off += s.resultBytes(i)
	}
	return off
}

// NewRank implements Program.
func (s S3asim) NewRank(r int) RankGen {
	if s.DBName == "" || s.OutName == "" {
		panic("workloads: S3asim file names empty")
	}
	return &s3asimGen{s: s, rank: r}
}

type s3asimGen struct {
	s     S3asim
	rank  int
	q     int // next query index to consider
	phase int // 0: scan fragment frag, 1: compute, 2: write result
	frag  int
}

func (g *s3asimGen) Next(env Env) Op {
	s := g.s
	for {
		// Advance to this rank's next query.
		for g.q < s.Queries && g.q%s.Procs != g.rank {
			g.q++
		}
		if g.q >= s.Queries {
			return Op{Kind: OpDone}
		}
		switch g.phase {
		case 0:
			if g.frag < s.Fragments {
				frag := g.frag
				g.frag++
				scan := int64(float64(s.FragmentBytes) * s.ScanFraction)
				if scan <= 0 {
					continue
				}
				// Each query scans a different window of the fragment.
				maxStart := s.FragmentBytes - scan
				start := int64(0)
				if maxStart > 0 {
					start = Content("s3asim-scan", int64(g.q*s.Fragments+frag)) % maxStart
					start = alignDown(start, 4<<10)
				}
				off := int64(frag)*s.FragmentBytes + start
				return Op{Kind: OpRead, File: s.DBName, Extents: []ext.Extent{{Off: off, Len: scan}}}
			}
			g.phase = 1
		case 1:
			g.phase = 2
			if s.ComputePerQuery > 0 {
				return Op{Kind: OpCompute, Dur: s.ComputePerQuery}
			}
		default:
			q := g.q
			g.q++
			g.frag = 0
			g.phase = 0
			return Op{
				Kind:    OpWrite,
				File:    s.OutName,
				Extents: []ext.Extent{{Off: s.outOffset(q), Len: s.resultBytes(q)}},
			}
		}
	}
}

func (g *s3asimGen) Clone(into RankGen) RankGen { return CloneInto(g, into) }
