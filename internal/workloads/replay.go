package workloads

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"dualpar/internal/ext"
)

// Replay plays back an I/O trace: a per-rank schedule of compute intervals
// and read/write extents, e.g. parsed from a CSV produced by a real
// application's instrumentation. It lets downstream users evaluate DualPar
// against their own workloads without writing a generator.
type Replay struct {
	TraceName string
	Procs     int
	ops       map[int][]Op // per-rank schedules
	files     []FileSpec
}

// ReplayOp is one parsed trace record.
type ReplayOp struct {
	Rank int
	Op   Op
}

// ParseTrace reads a CSV trace with records of the form
//
//	rank,compute,<microseconds>
//	rank,read,<file>,<offset>,<length>
//	rank,write,<file>,<offset>,<length>
//	rank,barrier
//
// Blank lines and lines starting with '#' are ignored. Ranks are dense from
// 0; every referenced read file is pre-created with a size covering the
// largest read offset.
func ParseTrace(name string, r io.Reader) (*Replay, error) {
	rep := &Replay{TraceName: name, ops: make(map[int][]Op)}
	readHi := make(map[string]int64)
	writeOnly := make(map[string]bool)
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Split(line, ",")
		if len(fields) < 2 {
			return nil, fmt.Errorf("trace %s line %d: too few fields", name, lineNo)
		}
		rank, err := strconv.Atoi(strings.TrimSpace(fields[0]))
		if err != nil || rank < 0 {
			return nil, fmt.Errorf("trace %s line %d: bad rank %q", name, lineNo, fields[0])
		}
		if rank+1 > rep.Procs {
			rep.Procs = rank + 1
		}
		verb := strings.TrimSpace(fields[1])
		switch verb {
		case "compute":
			if len(fields) != 3 {
				return nil, fmt.Errorf("trace %s line %d: compute needs microseconds", name, lineNo)
			}
			us, err := strconv.ParseInt(strings.TrimSpace(fields[2]), 10, 64)
			if err != nil || us < 0 {
				return nil, fmt.Errorf("trace %s line %d: bad duration %q", name, lineNo, fields[2])
			}
			rep.ops[rank] = append(rep.ops[rank], Op{Kind: OpCompute, Dur: time.Duration(us) * time.Microsecond})
		case "barrier":
			rep.ops[rank] = append(rep.ops[rank], Op{Kind: OpBarrier})
		case "read", "write":
			if len(fields) != 5 {
				return nil, fmt.Errorf("trace %s line %d: %s needs file,offset,length", name, lineNo, verb)
			}
			file := strings.TrimSpace(fields[2])
			off, err1 := strconv.ParseInt(strings.TrimSpace(fields[3]), 10, 64)
			length, err2 := strconv.ParseInt(strings.TrimSpace(fields[4]), 10, 64)
			if err1 != nil || err2 != nil || off < 0 || length <= 0 {
				return nil, fmt.Errorf("trace %s line %d: bad extent", name, lineNo)
			}
			kind := OpRead
			if verb == "write" {
				kind = OpWrite
				if _, seen := readHi[file]; !seen {
					writeOnly[file] = true
				}
			} else {
				if off+length > readHi[file] {
					readHi[file] = off + length
				}
				delete(writeOnly, file)
			}
			rep.ops[rank] = append(rep.ops[rank], Op{
				Kind: kind, File: file,
				Extents: []ext.Extent{{Off: off, Len: length}},
			})
		default:
			return nil, fmt.Errorf("trace %s line %d: unknown verb %q", name, lineNo, verb)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if rep.Procs == 0 {
		return nil, fmt.Errorf("trace %s: no records", name)
	}
	// Barrier counts must match across ranks, or replay deadlocks.
	barriers := -1
	for rank := 0; rank < rep.Procs; rank++ {
		n := 0
		for _, op := range rep.ops[rank] {
			if op.Kind == OpBarrier {
				n++
			}
		}
		if barriers == -1 {
			barriers = n
		} else if n != barriers {
			return nil, fmt.Errorf("trace %s: rank %d has %d barriers, rank 0 has %d", name, rank, n, barriers)
		}
	}
	files := make([]string, 0, len(readHi)+len(writeOnly))
	for f := range readHi {
		files = append(files, f)
	}
	for f := range writeOnly {
		files = append(files, f)
	}
	sort.Strings(files)
	for _, f := range files {
		rep.files = append(rep.files, FileSpec{Name: f, Size: readHi[f], Precreate: readHi[f] > 0})
	}
	return rep, nil
}

// Name implements Program.
func (r *Replay) Name() string { return "replay:" + r.TraceName }

// Ranks implements Program.
func (r *Replay) Ranks() int { return r.Procs }

// Files implements Program.
func (r *Replay) Files() []FileSpec { return r.files }

// NewRank implements Program.
func (r *Replay) NewRank(rank int) RankGen {
	return &replayGen{ops: r.ops[rank]}
}

type replayGen struct {
	ops []Op
	pos int
}

func (g *replayGen) Next(env Env) Op {
	if g.pos >= len(g.ops) {
		return Op{Kind: OpDone}
	}
	op := g.ops[g.pos]
	g.pos++
	return op
}

func (g *replayGen) Clone(into RankGen) RankGen { return CloneInto(g, into) }
