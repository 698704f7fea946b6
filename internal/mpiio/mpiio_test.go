package mpiio

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/ext"
	"dualpar/internal/fs"
	"dualpar/internal/iosched"
	"dualpar/internal/mpi"
	"dualpar/internal/netsim"
	"dualpar/internal/pfs"
	"dualpar/internal/sim"
)

// rig is a test cluster: metadata node 0, data servers nodes 1..S, ranks on
// compute nodes 100+.
type rig struct {
	k    *sim.Kernel
	w    *mpi.World
	fsys *pfs.FileSystem
}

func newRig(t testing.TB, servers, ranks, ranksPerNode int) *rig {
	t.Helper()
	k := sim.NewKernel(1)
	net := netsim.New()
	var nodes []int
	var stores []*fs.Store
	for i := 0; i < servers; i++ {
		stores = append(stores, fs.New(k, fmt.Sprintf("s%d", i), disk.New(1<<24), iosched.NewCFQ(), fs.DefaultConfig(), 10000+i))
		nodes = append(nodes, 1+i)
	}
	fsys := pfs.New(k, net, pfs.Config{}, 0, nodes, stores)
	w := mpi.NewWorld(net, mpi.BlockPlacement(ranks, ranksPerNode, 100))
	return &rig{k: k, w: w, fsys: fsys}
}

func origins(n int) []int {
	o := make([]int, n)
	for i := range o {
		o[i] = 1 + i
	}
	return o
}

func (r *rig) open(name string, cfg Config) *File {
	return Open(r.w, r.fsys, name, cfg, nil, origins(r.w.Size()))
}

// runRanks spawns one proc per rank running fn and runs to completion.
func (r *rig) runRanks(t *testing.T, fn func(p *sim.Proc, rank int)) {
	t.Helper()
	for i := 0; i < r.w.Size(); i++ {
		i := i
		r.k.Spawn(fmt.Sprintf("rank%d", i), func(p *sim.Proc) { fn(p, i) })
	}
	r.k.RunUntil(time.Hour)
}

// create lays out size bytes of f before the timed calls, as a benchmark
// pre-creates its file.
func create(p *sim.Proc, f *File, size int64) {
	f.client(0).Create(p, f.name, size)
}

// vector is count blocks of blockLen bytes whose starts lie stride apart
// (MPI_Type_vector in byte units).
func vector(count, blockLen, stride int64) []ext.Extent {
	var xs []ext.Extent
	for i := int64(0); i < count; i++ {
		xs = append(xs, ext.Extent{Off: i * stride, Len: blockLen})
	}
	return ext.Merge(xs)
}

// indexed pairs displacements with lengths (MPI_Type_indexed in byte
// units).
func indexed(disps, lens []int64) []ext.Extent {
	xs := make([]ext.Extent, len(disps))
	for i := range disps {
		xs[i] = ext.Extent{Off: disps[i], Len: lens[i]}
	}
	return ext.Merge(xs)
}

func (r *rig) serverReadBytes() int64 {
	var total int64
	for _, s := range r.fsys.Servers() {
		total += s.Store.BytesRead()
	}
	return total
}

func TestIndependentContigRead(t *testing.T) {
	r := newRig(t, 3, 4, 2)
	f := r.open("f", DefaultConfig())
	r.runRanks(t, func(p *sim.Proc, rank int) {
		if rank == 0 {
			create(p, f, 4<<20)
		}
		r.w.Barrier(p, rank)
		f.ReadExtents(p, rank, []ext.Extent{{Off: int64(rank) << 20, Len: 1 << 20}})
	})
	if got := r.serverReadBytes(); got != 4<<20 {
		t.Fatalf("servers read %d, want 4MB", got)
	}
	in := f.Instr()
	if in.TotalBytes() != 4<<20 {
		t.Fatalf("instr bytes = %d, want 4MB", in.TotalBytes())
	}
	for rank := range in.Ranks {
		if in.Ranks[rank].IOTime == 0 {
			t.Fatalf("rank %d recorded zero IO time", rank)
		}
	}
}

func TestVanillaStridedIssuesPerSegment(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	cfg := DefaultConfig()
	cfg.ListIO = false
	f := r.open("f", cfg)
	dt := vector(8, 4<<10, 192<<10)
	msgs0 := int64(-1)
	r.runRanks(t, func(p *sim.Proc, rank int) {
		create(p, f, 4<<20)
		msgs0 = r.w.Net().Messages()
		f.ReadExtents(p, rank, dt)
	})
	msgs := r.w.Net().Messages() - msgs0
	// 8 segments, each a request+reply round trip = 16 messages.
	if msgs != 16 {
		t.Fatalf("messages = %d, want 16 (one round trip per segment)", msgs)
	}
}

func TestListIOStridedBatchesPerServer(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	cfg := DefaultConfig()
	cfg.ListIO = true
	f := r.open("f", cfg)
	dt := vector(8, 4<<10, 192<<10)
	msgs0 := int64(-1)
	r.runRanks(t, func(p *sim.Proc, rank int) {
		create(p, f, 4<<20)
		msgs0 = r.w.Net().Messages()
		f.ReadExtents(p, rank, dt)
	})
	msgs := r.w.Net().Messages() - msgs0
	// At most one round trip per server.
	if msgs > 4 {
		t.Fatalf("messages = %d, want <= 4 with list I/O", msgs)
	}
}

func TestCollectiveReadMovesAllBytes(t *testing.T) {
	r := newRig(t, 3, 8, 4)
	f := r.open("f", DefaultConfig())
	// Interleaved 4KB columns: rank i reads bytes [i*4K + j*32K, +4K).
	dt := func(rank int) []ext.Extent {
		var disps, lens []int64
		for j := int64(0); j < 16; j++ {
			disps = append(disps, int64(rank)*4<<10+j*32<<10)
			lens = append(lens, 4<<10)
		}
		return indexed(disps, lens)
	}
	r.runRanks(t, func(p *sim.Proc, rank int) {
		if rank == 0 {
			create(p, f, 1<<20)
		}
		r.w.Barrier(p, rank)
		f.ReadExtentsAll(p, rank, dt(rank))
	})
	// The 8 ranks' interleaved extents tile [0, 512K) fully; sieving may
	// read a bit more but never less.
	if got := r.serverReadBytes(); got < 512<<10 {
		t.Fatalf("servers read %d, want >= 512K", got)
	}
}

func TestCollectiveFewerDiskAccessesThanVanilla(t *testing.T) {
	// The whole point of two-phase I/O: interleaved small extents become a
	// few large contiguous accesses.
	accesses := func(collective bool) int64 {
		r := newRig(t, 2, 8, 8)
		f := r.open("f", DefaultConfig())
		dt := func(rank int) []ext.Extent {
			var disps, lens []int64
			for j := int64(0); j < 32; j++ {
				disps = append(disps, int64(rank)*2<<10+j*16<<10)
				lens = append(lens, 2<<10)
			}
			return indexed(disps, lens)
		}
		r.runRanks(t, func(p *sim.Proc, rank int) {
			if rank == 0 {
				create(p, f, 1<<20)
			}
			r.w.Barrier(p, rank)
			if collective {
				f.ReadExtentsAll(p, rank, dt(rank))
			} else {
				f.ReadExtents(p, rank, dt(rank))
			}
		})
		var acc int64
		for _, s := range r.fsys.Servers() {
			acc += s.Store.Device().Stats().Accesses
		}
		return acc
	}
	vanilla, coll := accesses(false), accesses(true)
	if coll*4 > vanilla {
		t.Fatalf("collective accesses %d vs vanilla %d: want >= 4x reduction", coll, vanilla)
	}
}

func TestCollectiveWriteRMWReadsHoles(t *testing.T) {
	r := newRig(t, 2, 2, 2)
	f := r.open("f", DefaultConfig())
	// Two ranks write 4K blocks separated by 4K holes.
	dt := func(rank int) []ext.Extent {
		var disps, lens []int64
		for j := int64(0); j < 8; j++ {
			disps = append(disps, int64(rank)*512<<10+j*8<<10)
			lens = append(lens, 4<<10)
		}
		return indexed(disps, lens)
	}
	r.runRanks(t, func(p *sim.Proc, rank int) {
		if rank == 0 {
			create(p, f, 1<<20)
		}
		r.w.Barrier(p, rank)
		f.WriteExtentsAll(p, rank, dt(rank))
	})
	if got := r.serverReadBytes(); got == 0 {
		t.Fatalf("no hole reads: data-sieving write must read-modify-write")
	}
}

func TestCollectiveCallsSynchronize(t *testing.T) {
	r := newRig(t, 2, 4, 2)
	f := r.open("f", DefaultConfig())
	var finish []time.Duration
	r.runRanks(t, func(p *sim.Proc, rank int) {
		if rank == 0 {
			create(p, f, 1<<20)
		}
		r.w.Barrier(p, rank)
		p.Sleep(time.Duration(rank) * 100 * time.Millisecond) // skewed arrival
		f.ReadExtentsAll(p, rank, []ext.Extent{{Off: int64(rank) * 64 << 10, Len: 64 << 10}})
		finish = append(finish, p.Now())
	})
	// No rank can finish before the slowest arrives (300ms).
	for _, at := range finish {
		if at < 300*time.Millisecond {
			t.Fatalf("rank finished collective at %v before last arrival", at)
		}
	}
}

// A collective call in which no rank accesses anything returns without
// the all-to-all; a rank that goes straight on to its next call must not
// change what the others read of the empty one.
func TestEmptyCollectiveThenWrite(t *testing.T) {
	r := newRig(t, 2, 4, 2)
	f := r.open("f", DefaultConfig())
	r.runRanks(t, func(p *sim.Proc, rank int) {
		f.WriteExtentsAll(p, rank, nil)
		f.WriteExtentsAll(p, rank, []ext.Extent{{Off: int64(rank) * 64 << 10, Len: 64 << 10}})
	})
	for rank, rs := range f.Instr().Ranks {
		if rs.Calls != 2 || rs.Bytes != 64<<10 {
			t.Fatalf("rank %d: %d calls, %d bytes; want 2 calls, 64K", rank, rs.Calls, rs.Bytes)
		}
	}
}

func TestComputeTimeMeasuredBetweenCalls(t *testing.T) {
	r := newRig(t, 2, 1, 1)
	f := r.open("f", DefaultConfig())
	r.runRanks(t, func(p *sim.Proc, rank int) {
		create(p, f, 1<<20)
		f.ReadExtents(p, rank, []ext.Extent{{Off: 0, Len: 64 << 10}})
		p.Sleep(500 * time.Millisecond) // compute
		f.ReadExtents(p, rank, []ext.Extent{{Off: 64 << 10, Len: 64 << 10}})
	})
	rs := f.Instr().Ranks[0]
	if rs.ComputeTime < 500*time.Millisecond {
		t.Fatalf("compute time = %v, want >= 500ms", rs.ComputeTime)
	}
	if rs.IOTime <= 0 {
		t.Fatalf("io time = %v", rs.IOTime)
	}
	ratio := rs.IORatio()
	if ratio <= 0 || ratio >= 1 {
		t.Fatalf("io ratio = %g, want in (0,1)", ratio)
	}
}

func TestBatchBy(t *testing.T) {
	xs := []ext.Extent{{Off: 0, Len: 10}, {Off: 20, Len: 25}}
	var batches [][]ext.Extent
	batchBy(nil, xs, 16, func(b []ext.Extent) { batches = append(batches, slices.Clone(b)) })
	want := [][]ext.Extent{
		{{Off: 0, Len: 10}, {Off: 20, Len: 6}},
		{{Off: 26, Len: 16}},
		{{Off: 42, Len: 3}},
	}
	if !slices.EqualFunc(batches, want, slices.Equal) {
		t.Fatalf("batches = %v, want %v", batches, want)
	}
}

func TestPartitionDomainsCoverUnion(t *testing.T) {
	r := newRig(t, 3, 8, 2)
	f := r.open("f", DefaultConfig())
	info := f.partition(64<<10, 64<<10+8<<20)
	if info.n != 4 {
		t.Fatalf("%d aggregators for 8 ranks on 4 nodes, want one per node", info.n)
	}
	lo := info.domain(0).Off
	hi := info.domain(info.n - 1).End()
	if lo > 64<<10 || hi < 64<<10+8<<20 {
		t.Fatalf("domains [%d,%d) do not cover union", lo, hi)
	}
	unit := pfs.StripeUnit
	for i := 0; i < info.n-1; i++ {
		if d := info.domain(i); d.Off%unit != 0 || d.End() != info.domain(i+1).Off {
			t.Fatalf("domain %d %v not stripe-aligned or not abutting the next", i, d)
		}
	}
	for i, want := range []int{0, 2, 4, 6} {
		if got := info.rank(i); got != want {
			t.Fatalf("aggregator %d is rank %d, want %d (one per node)", i, got, want)
		}
	}
}

func TestValidateSieveConfig(t *testing.T) {
	// The collective buffer is the sieve setting left; a nonsense value
	// must not reach the two-phase planner.
	bad := []func(*Config){
		func(c *Config) { c.CollectiveBufferBytes = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if c.Validate() == nil {
			t.Fatalf("case %d passed validation", i)
		}
	}
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config: %v", err)
	}
}

func TestAccessorsAndWritePaths(t *testing.T) {
	r := newRig(t, 2, 2, 2)
	f := r.open("acc", DefaultConfig())
	if f.Name() != "acc" || f.World() != r.w || f.FS() != r.fsys {
		t.Fatalf("accessors wrong")
	}
	r.runRanks(t, func(p *sim.Proc, rank int) {
		f.WriteExtents(p, rank, []ext.Extent{{Off: int64(rank) << 20, Len: 256 << 10}})
		f.WriteExtents(p, rank, []ext.Extent{{Off: int64(rank)*64<<10 + 4<<20, Len: 64 << 10}})
		f.WriteExtentsAll(p, rank, []ext.Extent{{Off: int64(rank)*32<<10 + 8<<20, Len: 32 << 10}})
	})
	var written int64
	for _, s := range r.fsys.Servers() {
		written += s.Store.BytesWritten()
	}
	want := int64(2) * (256<<10 + 64<<10 + 32<<10)
	if written < want {
		t.Fatalf("servers wrote %d, want >= %d", written, want)
	}
}

func TestInstrSpanAndHelpers(t *testing.T) {
	in := NewInstr(2)
	in.Span(0, 100*time.Millisecond, 150*time.Millisecond, 1000)
	in.Span(0, 250*time.Millisecond, 300*time.Millisecond, 1000)
	rs := in.Ranks[0]
	if rs.IOTime != 100*time.Millisecond {
		t.Fatalf("io time = %v", rs.IOTime)
	}
	if rs.ComputeTime != 100*time.Millisecond {
		t.Fatalf("compute time = %v (gap between spans)", rs.ComputeTime)
	}
	if rs.Bytes != 2000 || rs.Calls != 2 {
		t.Fatalf("bytes/calls = %d/%d", rs.Bytes, rs.Calls)
	}
	if got := rs.IORatio(); got != 0.5 {
		t.Fatalf("rank ratio = %g", got)
	}
	if got := in.IORatio(); got != 0.25 { // rank 1 contributes 0
		t.Fatalf("program ratio = %g", got)
	}
	if in.TotalBytes() != 2000 {
		t.Fatalf("total bytes = %d, want 2000", in.TotalBytes())
	}
	if (RankStats{}).IORatio() != 0 {
		t.Fatalf("zero stats ratio nonzero")
	}
}

func TestOpenPanicsOnBadArgs(t *testing.T) {
	r := newRig(t, 1, 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic for mismatched origins")
		}
	}()
	Open(r.w, r.fsys, "x", DefaultConfig(), nil, []int{1}) // 1 origin, 2 ranks
}
