package pfs

import (
	"fmt"
	"testing"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/ext"
	"dualpar/internal/fs"
	"dualpar/internal/iosched"
	"dualpar/internal/netsim"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// testFS builds a kernel + network + file system with nservers data servers
// on nodes 1..nservers, metadata on node 0, clients on nodes 100+.
func testFS(nservers int) (*sim.Kernel, *FileSystem) {
	k := sim.NewKernel(1)
	net := netsim.New()
	var nodes []int
	var stores []*fs.Store
	for i := 0; i < nservers; i++ {
		st := fs.New(k, fmt.Sprintf("s%d", i), disk.New(1<<24), iosched.NewCFQ(), fs.DefaultConfig(), 10000+i)
		nodes = append(nodes, 1+i)
		stores = append(stores, st)
	}
	return k, New(k, net, Config{}, 0, nodes, stores)
}

func TestSplitRoundRobinStriping(t *testing.T) {
	_, fsys := testFS(3)
	unit := StripeUnit
	per := fsys.split([]ext.Extent{{Off: 0, Len: 6 * unit}})
	for i := 0; i < 3; i++ {
		if got := ext.Total(per[i]); got != 2*unit {
			t.Fatalf("server %d got %d bytes, want %d", i, got, 2*unit)
		}
		// Each server's chunks must be compacted contiguously.
		if len(per[i]) != 1 {
			t.Fatalf("server %d extents = %v, want single compacted run", i, per[i])
		}
	}
}

func TestSplitUnalignedExtent(t *testing.T) {
	_, fsys := testFS(2)
	unit := StripeUnit
	// Extent straddles the first stripe boundary, unaligned on both ends.
	per := fsys.split([]ext.Extent{{Off: unit / 2, Len: unit}})
	if ext.Total(per[0])+ext.Total(per[1]) != unit {
		t.Fatalf("split lost bytes: %v %v", per[0], per[1])
	}
	if per[0][0].Off != unit/2 || per[0][0].Len != unit/2 {
		t.Fatalf("server 0 local extent = %v", per[0])
	}
	if per[1][0].Off != 0 || per[1][0].Len != unit/2 {
		t.Fatalf("server 1 local extent = %v", per[1])
	}
}

func TestLocalOffset(t *testing.T) {
	_, fsys := testFS(3)
	unit := StripeUnit
	cases := []struct {
		off    int64
		server int
		local  int64
	}{
		{0, 0, 0},
		{unit, 1, 0},
		{2 * unit, 2, 0},
		{3 * unit, 0, unit},
		{3*unit + 5, 0, unit + 5},
	}
	for _, c := range cases {
		s, l := fsys.LocalOffset(c.off)
		if s != c.server || l != c.local {
			t.Fatalf("LocalOffset(%d) = %d,%d; want %d,%d", c.off, s, l, c.server, c.local)
		}
	}
}

func TestCreateOpenRoundTrip(t *testing.T) {
	k, fsys := testFS(3)
	cl := fsys.Client(100)
	var opened int64
	k.Spawn("client", func(p *sim.Proc) {
		cl.Create(p, "f", 10<<20)
		opened = cl.Open(p, "f")
	})
	k.RunUntil(time.Minute)
	if opened != 10<<20 {
		t.Fatalf("Open size = %d, want 10MB", opened)
	}
}

func TestReadTouchesAllServers(t *testing.T) {
	k, fsys := testFS(3)
	cl := fsys.Client(100)
	k.Spawn("client", func(p *sim.Proc) {
		cl.Create(p, "f", 3<<20)
		cl.Read(p, "f", []ext.Extent{{Off: 0, Len: 3 << 20}}, 1, obs.Ctx{})
	})
	k.RunUntil(time.Minute)
	for i, srv := range fsys.Servers() {
		if srv.Store.BytesRead() != 1<<20 {
			t.Fatalf("server %d read %d bytes, want 1MB", i, srv.Store.BytesRead())
		}
	}
}

func TestWriteReachesDisks(t *testing.T) {
	k, fsys := testFS(2)
	cl := fsys.Client(100)
	var done time.Duration
	k.Spawn("client", func(p *sim.Proc) {
		cl.Write(p, "f", []ext.Extent{{Off: 0, Len: 1 << 20}}, 1, obs.Ctx{})
		done = p.Now()
	})
	k.RunUntil(time.Minute)
	var total int64
	for _, srv := range fsys.Servers() {
		total += srv.Store.Device().Stats().BytesWritten
	}
	if total < 1<<20 {
		t.Fatalf("disks saw %d write bytes, want >= 1MB (sync writes)", total)
	}
	if done == 0 {
		t.Fatalf("write never completed")
	}
	if got := fsys.FileSize("f"); got != 1<<20 {
		t.Fatalf("metadata size = %d, want 1MB", got)
	}
}

func TestParallelismSpeedsUpLargeRead(t *testing.T) {
	run := func(n int) time.Duration {
		k, fsys := testFS(n)
		cl := fsys.Client(100)
		var took time.Duration
		k.Spawn("client", func(p *sim.Proc) {
			cl.Create(p, "f", 64<<20)
			t0 := p.Now()
			cl.Read(p, "f", []ext.Extent{{Off: 0, Len: 64 << 20}}, 1, obs.Ctx{})
			took = p.Now() - t0
		})
		k.RunUntil(10 * time.Minute)
		return took
	}
	t1 := run(1)
	t4 := run(4)
	if t4 <= 0 || t1 <= 0 {
		t.Fatalf("reads did not complete: %v %v", t1, t4)
	}
	// With a GigE client downlink the network caps the gain; just require a
	// clear speedup from striping.
	if float64(t1)/float64(t4) < 1.5 {
		t.Fatalf("4-server read %v not much faster than 1-server %v", t4, t1)
	}
}

func TestConcurrentClientsShareServers(t *testing.T) {
	k, fsys := testFS(2)
	var finished int
	for i := 0; i < 4; i++ {
		i := i
		cl := fsys.Client(100 + i)
		k.Spawn("client", func(p *sim.Proc) {
			name := fmt.Sprintf("f%d", i)
			cl.Create(p, name, 1<<20)
			cl.Read(p, name, []ext.Extent{{Off: 0, Len: 1 << 20}}, i, obs.Ctx{})
			finished++
		})
	}
	k.RunUntil(10 * time.Minute)
	if finished != 4 {
		t.Fatalf("finished = %d, want 4", finished)
	}
}

func TestListIOSingleRequestPerServer(t *testing.T) {
	// A strided extent list within one client call becomes one server
	// request per data server (list I/O), not one per extent.
	k, fsys := testFS(2)
	cl := fsys.Client(100)
	var extents []ext.Extent
	for i := 0; i < 16; i++ {
		// 192 KB stride = 3 stripe units: alternates between the 2 servers.
		extents = append(extents, ext.Extent{Off: int64(i) * 192 << 10, Len: 4 << 10})
	}
	msgsBefore := int64(-1)
	k.Spawn("client", func(p *sim.Proc) {
		cl.Create(p, "f", 8<<20)
		msgsBefore = fsysNet(fsys).Messages()
		cl.Read(p, "f", extents, 1, obs.Ctx{})
	})
	k.RunUntil(time.Minute)
	msgs := fsysNet(fsys).Messages() - msgsBefore
	// 2 requests + 2 replies.
	if msgs != 4 {
		t.Fatalf("messages = %d, want 4 (one round trip per server)", msgs)
	}
}

func fsysNet(fsys *FileSystem) *netsim.Network { return fsys.net }

func TestValidateConfig(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.RequestTimeout = -1 },
		func(c *Config) { c.MaxRetries = -1 },
		func(c *Config) { c.RetryBackoff = -1 },
		func(c *Config) { c.Replicas = -1 },
		func(c *Config) { c.DetectDelay = -1 },
	}
	for i, mutate := range bad {
		c := Config{}
		mutate(&c)
		if c.Validate() == nil {
			t.Fatalf("case %d passed", i)
		}
	}
}
