// Package mpiio models the MPI-IO (ROMIO/ADIO) library over the pfs
// parallel file system: independent reads and writes of extent lists, list
// I/O, and two-phase collective I/O with aggregators and data sieving.
//
// Every operation is instrumented the way the paper instruments ADIO
// functions (§IV-B): per-rank I/O time, compute time (the gap between
// consecutive I/O calls), transferred bytes, and a client-side request log
// from which DualPar's EMC computes ReqDist.
package mpiio

import (
	"fmt"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/mpi"
	"dualpar/internal/obs"
	"dualpar/internal/pfs"
	"dualpar/internal/sim"
)

// dataSieveHole is the largest hole absorbed when an aggregator turns its
// needed extents into contiguous accesses (ROMIO's sieving default).
const dataSieveHole = 64 << 10

// Config carries ROMIO-style hints.
type Config struct {
	// CollectiveBufferBytes is cb_buffer_size: an aggregator stages data
	// through a buffer of this size per two-phase cycle.
	CollectiveBufferBytes int64
	// ListIO makes independent strided operations send one extent-list
	// request per server instead of one request per segment. The paper's
	// "vanilla MPI-IO" baseline has it off: synchronous requests go out one
	// at a time.
	ListIO bool
}

// DefaultConfig matches paper-era ROMIO defaults.
func DefaultConfig() Config {
	return Config{
		CollectiveBufferBytes: 4 << 20,
		ListIO:                false,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.CollectiveBufferBytes <= 0 {
		return fmt.Errorf("mpiio: CollectiveBufferBytes %d", c.CollectiveBufferBytes)
	}
	return nil
}

// File is an open MPI file shared by all ranks of a world.
type File struct {
	w       *mpi.World
	fsys    *pfs.FileSystem
	name    string
	cfg     Config
	instr   *Instr
	origins []int // per-rank disk-request origin tags
	clients map[int]*pfs.Client
	track   string // trace-track prefix ("prog0"); "mpiio" if unset
	errSink func(error)

	// aggs is the two-phase aggregator count: one per distinct compute
	// node (ROMIO's cb_nodes default).
	aggs int
	// ranks[r] is rank r's collective-call state, allocated by the first
	// collective call's summaries. Only rank r's proc writes it, so it
	// outlives the proc blocking in aggregatorIO; the next collective call
	// by r overwrites it.
	ranks []rankState
	// union unites the rank windows of the aggregator planning its
	// domain. A plan runs without blocking, so one serves every
	// aggregator.
	union ext.Unioner
}

// rankState is what one rank keeps on the File between collective calls.
type rankState struct {
	sum   summary      // the rank's list, summarised for the exchange
	plan  []ext.Extent // the rank's file-domain plan when it aggregates
	batch []ext.Extent // one collective-buffer cycle of the plan
	send  []int64      // the rank's all-to-all send vector
}

// Open creates the shared file handle. origins[r] tags rank r's disk
// requests for the I/O scheduler; instr may be shared across files of one
// program.
func Open(w *mpi.World, fsys *pfs.FileSystem, name string, cfg Config, instr *Instr, origins []int) *File {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(origins) != w.Size() {
		panic(fmt.Sprintf("mpiio: %d origins for %d ranks", len(origins), w.Size()))
	}
	if instr == nil {
		instr = NewInstr(w.Size())
	}
	seen := make(map[int]bool)
	for r := 0; r < w.Size(); r++ {
		seen[w.Node(r)] = true
	}
	return &File{
		w:       w,
		fsys:    fsys,
		name:    name,
		cfg:     cfg,
		instr:   instr,
		origins: origins,
		clients: make(map[int]*pfs.Client),
		aggs:    len(seen),
	}
}

// Name returns the file name.
func (f *File) Name() string { return f.name }

// SetTrack names the trace-track prefix for this file's operations: rank r's
// requests land on "<prefix>/rank<r>". The default prefix is "mpiio".
func (f *File) SetTrack(prefix string) { f.track = prefix }

// SetErrSink registers a callback for I/O errors (a read or write that
// exhausted every replica of a needed stripe). The simulated library has no
// return path to the workload — like an MPI error handler, the sink observes
// the failure while the operation itself completes with whatever data was
// reachable. Nil (the default) drops errors.
func (f *File) SetErrSink(fn func(error)) { f.errSink = fn }

// ioErr feeds an operation error to the registered sink, if any.
func (f *File) ioErr(err error) {
	if err != nil && f.errSink != nil {
		f.errSink(err)
	}
}

// startRequest opens a traced end-to-end request for one rank's operation
// on the rank's track. With tracing off it returns the zero Ctx (no track
// string is built on the disabled path).
func (f *File) startRequest(rank int) obs.Ctx {
	o := f.fsys.Obs()
	if !o.Enabled() {
		return obs.Ctx{}
	}
	prefix := f.track
	if prefix == "" {
		prefix = "mpiio"
	}
	return o.StartRequest(fmt.Sprintf("%s/rank%d", prefix, rank))
}

// endRequest closes the request span opened by startRequest.
func (f *File) endRequest(p *sim.Proc, rc obs.Ctx, start time.Duration, verb string, bytes int64, extents int) {
	if !rc.Traced() {
		return
	}
	f.fsys.Obs().Span(rc.ID, obs.StageRequest, rc.Track, start, p.Now(),
		obs.Str("verb", verb), obs.I64("bytes", bytes), obs.I64("extents", int64(extents)))
}

// Instr returns the instrumentation shared by this file's operations.
func (f *File) Instr() *Instr { return f.instr }

// World returns the communicator.
func (f *File) World() *mpi.World { return f.w }

// FS returns the underlying parallel file system.
func (f *File) FS() *pfs.FileSystem { return f.fsys }

// client returns the pfs client for a rank's node.
func (f *File) client(rank int) *pfs.Client {
	node := f.w.Node(rank)
	cl := f.clients[node]
	if cl == nil {
		cl = f.fsys.Client(node)
		f.clients[node] = cl
	}
	return cl
}

// ReadExtents is an independent read of an explicit extent list.
func (f *File) ReadExtents(p *sim.Proc, rank int, extents []ext.Extent) {
	f.independent(p, rank, extents, false)
}

// WriteExtents is an independent write of an explicit extent list.
func (f *File) WriteExtents(p *sim.Proc, rank int, extents []ext.Extent) {
	f.independent(p, rank, extents, true)
}

func (f *File) independent(p *sim.Proc, rank int, extents []ext.Extent, write bool) {
	n := ext.Total(extents)
	end := f.instr.begin(p, rank)
	cl := f.client(rank)
	rc := f.startRequest(rank)
	start := p.Now()
	verb := "read"
	if write {
		verb = "write"
	}
	if f.cfg.ListIO || len(extents) <= 1 {
		if write {
			f.ioErr(cl.Write(p, f.name, extents, f.origins[rank], rc))
		} else {
			f.ioErr(cl.Read(p, f.name, extents, f.origins[rank], rc))
		}
	} else {
		// Vanilla: synchronous requests issued one at a time (paper §II).
		for _, e := range extents {
			one := []ext.Extent{e}
			if write {
				f.ioErr(cl.Write(p, f.name, one, f.origins[rank], rc))
			} else {
				f.ioErr(cl.Read(p, f.name, one, f.origins[rank], rc))
			}
		}
	}
	f.endRequest(p, rc, start, verb, n, len(extents))
	end.finish(p, n)
}
