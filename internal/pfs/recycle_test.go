package pfs

import (
	"fmt"
	"strings"
	"testing"
	"time"
	"unsafe"

	"dualpar/internal/ext"
	"dualpar/internal/fault"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// pooled is the set of transfer records a test put in the pools.
type pooled struct {
	reqs   map[*serverReq]bool
	iss    map[*issued]bool
	groups map[*xferGroup]bool
	ops    map[*xferOp]bool
}

// fillPools puts n fresh records of each kind in fsys's pools and
// returns them, so a run that never drains a pool can be checked for
// records that did not come back.
func fillPools(fsys *FileSystem, n int) pooled {
	want := pooled{map[*serverReq]bool{}, map[*issued]bool{}, map[*xferGroup]bool{}, map[*xferOp]bool{}}
	for i := 0; i < n; i++ {
		r, is, g := &serverReq{}, &issued{}, &xferGroup{}
		op := &xferOp{per: make([][]ext.Extent, fsys.NumServers())}
		fsys.reqPool.Put(r)
		fsys.issPool.Put(is)
		fsys.groupPool.Put(g)
		fsys.opPool.Put(op)
		want.reqs[r], want.iss[is], want.groups[g], want.ops[op] = true, true, true, true
	}
	return want
}

// sameSet drains pool and reports how what it held differs from the
// records put in it.
func sameSet[T any](name string, pool *sim.Pool[T], want map[*T]bool) error {
	seen := make(map[*T]bool, pool.Len())
	for pool.Len() > 0 {
		x := pool.Get()
		if !want[x] {
			return fmt.Errorf("%s: a record the test did not pool is in the pool (the pool ran dry; raise the fill)", name)
		}
		if seen[x] {
			return fmt.Errorf("%s: a record is in the pool twice", name)
		}
		seen[x] = true
	}
	if len(seen) != len(want) {
		return fmt.Errorf("%s: %d of %d records came back", name, len(seen), len(want))
	}
	return nil
}

// TestStragglersReturnTransferRecords runs R3 quorum writes whose third
// replica lags behind the op: first a short stall, so the last ack is served
// after Write returned, then a crash window that drops held attempts from a
// server's queue, mid-service, on the wire and as reissued duplicates.
// Once the kernel drains, every record ever handed out must be back in its
// pool: the last holder of each group recycled it.
func TestStragglersReturnTransferRecords(t *testing.T) {
	k, fsys := testReplicatedFS(3, 3)
	fsys.cfg.RequestTimeout = 50 * time.Millisecond
	fsys.cfg.MaxRetries = 3
	fsys.cfg.RetryBackoff = 5 * time.Millisecond
	fsys.cfg.DetectDelay = 300 * time.Millisecond
	col := obs.NewCollector()
	fsys.SetObs(col)
	fsys.net.SetObs(col)
	inj := fault.NewInjector(k, &fault.Schedule{Windows: []fault.Window{
		// Server 2's first stall leaves its acks behind the quorum; its
		// second one fills its workers and queue before the crash, which
		// the detector sees 300 ms late. Server 1's stall starves quorums
		// meanwhile, so the watchdog reissues to both laggards.
		{Kind: fault.ServerStall, Target: 2, End: 100 * time.Millisecond},
		{Kind: fault.ServerStall, Target: 2, Start: 200 * time.Millisecond, End: time.Second},
		{Kind: fault.ServerStall, Target: 1, Start: 300 * time.Millisecond, End: 450 * time.Millisecond},
		{Kind: fault.ServerCrash, Target: 2, Start: 500 * time.Millisecond, End: 2 * time.Second},
	}}, 1)
	inj.SetObs(col)
	var nodes []int
	for _, srv := range fsys.servers {
		nodes = append(nodes, srv.Node)
	}
	inj.BindServerNodes(nodes)
	fsys.net.SetFaults(inj)
	fsys.SetFaults(inj)
	want := fillPools(fsys, 1<<12)

	const writers = 8
	unit := StripeUnit
	write := func(p *sim.Proc, w int) error {
		// Three stripe units, one per primary: every op has three groups,
		// each sent to all three servers.
		extents := []ext.Extent{
			{Off: int64(3*w) * unit, Len: 4096},
			{Off: int64(3*w+1) * unit, Len: 4096},
			{Off: int64(3*w+2) * unit, Len: 4096},
		}
		return fsys.Client(100+w).Write(p, "f", extents, 1, obs.Ctx{})
	}
	writeUntil := func(p *sim.Proc, w int, end time.Duration) {
		for p.Now() < end {
			if err := write(p, w); err != nil {
				t.Errorf("writer %d: %v", w, err)
				return
			}
			p.Sleep(time.Millisecond)
		}
	}
	k.Spawn("writer0", func(p *sim.Proc) {
		fsys.Client(100).Create(p, "f", int64(3*writers)*unit)
		if err := write(p, 0); err != nil {
			t.Errorf("writer 0: %v", err)
			return
		}
		// Server 2 is stalled: the op returned at quorum and its third
		// replica's attempts still hold it.
		if n := fsys.opPool.Len(); n != len(want.ops)-1 {
			t.Errorf("%d of %d ops free after a write whose third replica is stalled, want the op held", n, len(want.ops))
		}
		for w := 1; w < writers; w++ {
			k.Spawn(fmt.Sprintf("writer%d", w), func(p *sim.Proc) { writeUntil(p, w, 1200*time.Millisecond) })
		}
		writeUntil(p, 0, 1200*time.Millisecond)
	})
	k.Run()

	if fsys.Retries() == 0 {
		t.Error("no write was reissued")
	}
	counts := map[string]int{}
	for _, in := range col.Instants() {
		counts[in.Name]++
	}
	if counts["fault.void"] == 0 || counts["pfs.lost"] == 0 {
		t.Errorf("crash window lost %d attempts on the wire and dropped %d at the server, want both > 0",
			counts["fault.void"], counts["pfs.lost"])
	}
	for _, err := range []error{
		sameSet("serverReq", &fsys.reqPool, want.reqs),
		sameSet("issued", &fsys.issPool, want.iss),
		sameSet("xferGroup", &fsys.groupPool, want.groups),
		sameSet("xferOp", &fsys.opPool, want.ops),
	} {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestReplicatedWriteAllocatesNothing pins the steady state: once the free
// lists are warm, an R3 write whose third ack lands after it returned
// allocates nothing, stragglers included.
func TestReplicatedWriteAllocatesNothing(t *testing.T) {
	k, fsys := testReplicatedFS(6, 3)
	cl := fsys.Client(100)
	unit := StripeUnit
	extents := []ext.Extent{{Off: 0, Len: 6 * unit}}
	var allocs float64
	k.Spawn("writer", func(p *sim.Proc) {
		cl.Create(p, "f", 6*unit)
		write := func() {
			if err := cl.Write(p, "f", extents, 1, obs.Ctx{}); err != nil {
				t.Error(err)
			}
		}
		for i := 0; i < 256; i++ {
			write()
		}
		allocs = testing.AllocsPerRun(200, write)
	})
	k.RunUntil(1 << 62)
	if allocs != 0 {
		t.Fatalf("an R3 write allocates %.2f objects, want 0", allocs)
	}
}

// TestReleasePanicsOnBrokenCount: releasing an attempt no server holds
// would corrupt whichever op reuses the records, so it fails loudly.
func TestReleasePanicsOnBrokenCount(t *testing.T) {
	_, fsys := testReplicatedFS(3, 1)
	req := &serverReq{file: "f.dat", g: fsys.groupPool.Get()}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "server1") || !strings.Contains(msg, `"f.dat"`) {
			t.Fatalf("panic = %q, want one naming server1 and \"f.dat\"", msg)
		}
	}()
	fsys.servers[1].release(req)
}

// TestTransferGroupSizeClass keeps xferGroup inside the runtime's 112-byte
// size class: a larger record costs every pooled group 16 more bytes.
func TestTransferGroupSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(xferGroup{}); n > 112 {
		t.Fatalf("xferGroup is %d bytes, want at most 112", n)
	}
}
