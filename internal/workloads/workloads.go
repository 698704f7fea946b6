// Package workloads implements the paper's benchmark programs — demo (§II),
// mpi-io-test, hpio, ior-mpi-io, noncontig, S3asim, BTIO (§V-A), the
// data-dependent reader of Table III, and the checkpoint and restart
// programs — as deterministic per-rank operation generators.
//
// A rank is a state machine emitting Compute/Read/Write/Seal/Barrier
// operations. Every fixed-pattern program (all but the data-dependent
// reader, s3asim and trace replay) is one script: a per-rank extent table
// built by NewRank, walked call by call by a single generator.
// Generators are cloneable: DualPar's ghost pre-execution clones a rank's
// generator at its suspension point and runs it forward, the simulation
// analogue of the paper's fork-based pre-execution (computation retained, no
// source changes). Data-dependent access is expressed through Env: a
// generator may derive its next offsets from the *content* of previously
// read bytes, and a ghost that has not actually fetched those bytes sees
// zeros — reproducing the paper's mis-prefetch pathology.
package workloads

import (
	"hash/fnv"
	"time"

	"dualpar/internal/ext"
)

// OpKind classifies a rank operation.
type OpKind int

// Operation kinds.
const (
	OpDone OpKind = iota
	OpCompute
	OpRead
	OpWrite
	OpBarrier
	// OpSeal marks the rank's checkpoint epoch durable: on the direct write
	// path the preceding synchronous writes already reached the PFS, so the
	// seal is pure bookkeeping; on the burst-buffer path it seals the
	// epoch's log records, committing them to survive a client crash.
	OpSeal
)

// Op is one step of a rank's execution.
//
// Its Extents slice is immutable once Next returns it: neither the
// generator nor any Clone of it may write the slice again, so consumers
// may keep it without copying (DualPar's request logs and wish lists hold
// it by reference). A script program (see script) returns capped
// subslices of one table built by NewRank and shared with every Clone;
// depreader, s3asim and replay build or keep a list per op.
type Op struct {
	Kind    OpKind
	Dur     time.Duration // OpCompute
	File    string        // OpRead/OpWrite
	Extents []ext.Extent  // OpRead/OpWrite; immutable once returned
	// Epoch tags a checkpoint's OpWrite/OpSeal (and a restart's OpRead)
	// with its 1-based epoch; 0 means the op is not checkpoint data (and
	// is never routed to a burst log).
	Epoch int
}

// Bytes returns the I/O volume of the op.
func (o Op) Bytes() int64 { return ext.Total(o.Extents) }

// Env exposes file content to a generator. During normal execution Value
// returns the true stored content; during ghost pre-execution it returns 0
// for data whose read was recorded but not served.
type Env interface {
	Value(file string, off int64) int64
}

// TrueEnv is the normal-execution environment: all previously read data is
// available.
type TrueEnv struct{}

// Value implements Env with the true file content.
func (TrueEnv) Value(file string, off int64) int64 { return Content(file, off) }

// Content is the deterministic content function: the 8-byte word at a file
// offset. The storage stack stores no data, so programs and the simulation
// agree on content through this function.
func Content(file string, off int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(file))
	var buf [8]byte
	v := uint64(off)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	h.Write(buf[:])
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// FileSpec names a file a program uses and the size to pre-create it with
// (0 = created by writing).
type FileSpec struct {
	Name      string
	Size      int64
	Precreate bool
}

// RankGen generates one rank's operation stream.
type RankGen interface {
	// Next returns the next operation (OpDone at the end, repeatedly).
	Next(env Env) Op
	// Clone returns an independent generator at the current position. It
	// reuses into's storage when into is a generator of the same kind that
	// its owner no longer needs, and allocates otherwise; into may be nil.
	Clone(into RankGen) RankGen
}

// CloneInto is Clone for a generator whose position is its whole value:
// it copies *g over into when into is also a P, and into a new T
// otherwise.
func CloneInto[T any, P interface {
	*T
	RankGen
}](g P, into RankGen) RankGen {
	cp, ok := into.(P)
	if !ok {
		cp = new(T)
	}
	*cp = *g
	return cp
}

// Program describes one MPI application.
type Program interface {
	Name() string
	Ranks() int
	// Files lists the files the program touches, for harness pre-creation.
	Files() []FileSpec
	// NewRank returns rank r's generator (from its initial state).
	NewRank(r int) RankGen
}

// tabulate builds a rank's whole extent stream once, for programs whose
// stream is a pure function of (params, rank): n extents, the i-th given
// by at(i). Nothing writes the table after it is built, so Next hands out
// capped subslices of it and Clone shares it: a ghost replaying the rank
// allocates no extents.
func tabulate(n int64, at func(i int64) ext.Extent) []ext.Extent {
	t := make([]ext.Extent, max(n, 0))
	for i := range t {
		t[i] = at(int64(i))
	}
	return t
}

// script is the whole of a fixed-pattern rank: a sequence of calls over
// one extent table. Call j moves table[j*per : (j+1)*per] (the last call
// may be short) and runs as up to four phases: compute (when compute > 0),
// the I/O op, a seal (when the I/O is an epoch-tagged write, i.e.
// checkpoint data) and a barrier (after every barrierEvery-th call; 0
// never).
type script struct {
	kind         OpKind // OpRead or OpWrite
	file         string
	table        []ext.Extent // built once by NewRank, shared with clones
	per          int          // extents per call
	compute      time.Duration
	barrierEvery int
	epoch        int // call j's I/O and seal carry epoch+j; 0 = untagged
}

// Call phases, in order.
const (
	phaseCompute = iota
	phaseIO
	phaseSeal
	phaseBarrier
)

// callGen is a position in a script. Clone copies only the position (16
// B); the script is shared.
type callGen struct {
	s     *script
	call  int32
	phase int32
}

// newCalls returns the generator at the start of s. The script and the
// first position are one 96 B allocation.
func newCalls(s script) RankGen {
	b := &struct {
		s script
		g callGen
	}{s: s}
	b.g.s = &b.s
	return &b.g
}

func (g *callGen) Next(Env) Op {
	s := g.s
	for {
		lo := int(g.call) * s.per
		if lo >= len(s.table) {
			return Op{Kind: OpDone}
		}
		switch g.phase {
		case phaseCompute:
			g.phase = phaseIO
			if s.compute > 0 {
				return Op{Kind: OpCompute, Dur: s.compute}
			}
		case phaseIO:
			g.phase = phaseSeal
			// Capping the capacity at hi makes a consumer's append copy the
			// list instead of writing over the next call's extents.
			hi := min(lo+s.per, len(s.table))
			return Op{Kind: s.kind, File: s.file, Extents: s.table[lo:hi:hi], Epoch: g.epoch()}
		case phaseSeal:
			g.phase = phaseBarrier
			if s.kind == OpWrite && s.epoch > 0 {
				return Op{Kind: OpSeal, Epoch: g.epoch()}
			}
		default:
			barrier := s.barrierEvery > 0 && int(g.call+1)%s.barrierEvery == 0
			g.call++
			g.phase = phaseCompute
			if barrier {
				return Op{Kind: OpBarrier}
			}
		}
	}
}

// epoch is the current call's epoch tag (0 when the script is untagged).
func (g *callGen) epoch() int {
	if g.s.epoch == 0 {
		return 0
	}
	return g.s.epoch + int(g.call)
}

func (g *callGen) Clone(into RankGen) RankGen { return CloneInto(g, into) }

// ioKind is the I/O kind of a program with a write variant.
func ioKind(write bool) OpKind {
	if write {
		return OpWrite
	}
	return OpRead
}

// alignDown rounds v down to a multiple of unit (unit > 0).
func alignDown(v, unit int64) int64 { return v / unit * unit }
