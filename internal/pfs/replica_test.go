package pfs

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"dualpar/internal/disk"
	"dualpar/internal/ext"
	"dualpar/internal/fault"
	"dualpar/internal/fs"
	"dualpar/internal/iosched"
	"dualpar/internal/netsim"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

func TestReplicaOffsetsDistinct(t *testing.T) {
	cases := []struct{ n, replicas int }{
		{9, 2}, {9, 3}, {9, 9}, {3, 2}, {3, 3}, {4, 2}, {5, 3}, {7, 3},
	}
	for _, c := range cases {
		offs := replicaOffsets(c.n, c.replicas)
		if len(offs) != max(c.replicas, 1) {
			t.Fatalf("n=%d r=%d: %d offsets", c.n, c.replicas, len(offs))
		}
		seen := map[int]bool{}
		for _, off := range offs {
			if off < 0 || off >= c.n {
				t.Fatalf("n=%d r=%d: offset %d out of range", c.n, c.replicas, off)
			}
			if seen[off] {
				t.Fatalf("n=%d r=%d: offset %d repeated in %v — two ranks on one server", c.n, c.replicas, off, offs)
			}
			seen[off] = true
		}
		if offs[0] != 0 {
			t.Fatalf("rank 0 offset = %d, want 0 (primary placement must not move)", offs[0])
		}
	}
}

func TestReplicaOffsetsRackStride(t *testing.T) {
	// With 9 servers and rack size 3, ranks land one rack apart.
	offs := replicaOffsets(9, 3)
	want := []int{0, 3, 6}
	for i, off := range offs {
		if off != want[i] {
			t.Fatalf("offsets = %v, want %v", offs, want)
		}
	}
}

func TestReplicaFileRoundTrip(t *testing.T) {
	for _, name := range []string{"a.dat", "dir#r/b", "x#r2.old"} {
		for rank := 0; rank < 4; rank++ {
			base, r := replicaBase(replicaFile(name, rank))
			if base != name || r != rank {
				t.Fatalf("replicaBase(replicaFile(%q, %d)) = %q, %d", name, rank, base, r)
			}
		}
	}
	if got := replicaFile("f", 0); got != "f" {
		t.Fatalf("rank 0 must keep the plain name, got %q", got)
	}
}

func TestWriteQuorumDefaults(t *testing.T) {
	// A write completes on a majority of replicas; 0 and 1 both mean one.
	cases := []struct{ replicas, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {5, 3},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Replicas = c.replicas
		fsys := &FileSystem{cfg: cfg}
		if got := fsys.writeQuorum(); got != c.want {
			t.Fatalf("writeQuorum(replicas=%d) = %d, want %d", c.replicas, got, c.want)
		}
	}
}

func TestRetryErrorWrapsSentinel(t *testing.T) {
	err := fmt.Errorf("crm: %w", &RetryError{Op: "write", File: "f.dat", Server: 3})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatal("RetryError does not unwrap to ErrRetriesExhausted through wrapping")
	}
	var re *RetryError
	if !errors.As(err, &re) || re.Server != 3 || re.Op != "write" {
		t.Fatalf("errors.As lost the typed fields: %+v", re)
	}
}

func TestOverlaySegsMaxWins(t *testing.T) {
	var segs []VersionSeg
	segs = overlaySegs(segs, ext.Extent{Off: 0, Len: 100}, 5, false)
	// A stale lower version must not regress stamped bytes.
	segs = overlaySegs(segs, ext.Extent{Off: 20, Len: 30}, 3, false)
	if len(segs) != 1 || segs[0].Ver != 5 || segs[0].Ext != (ext.Extent{Off: 0, Len: 100}) {
		t.Fatalf("lower version regressed stamps: %+v", segs)
	}
	// A newer version splits the range.
	segs = overlaySegs(segs, ext.Extent{Off: 40, Len: 10}, 9, false)
	want := []VersionSeg{
		{Ext: ext.Extent{Off: 0, Len: 40}, Ver: 5},
		{Ext: ext.Extent{Off: 40, Len: 10}, Ver: 9},
		{Ext: ext.Extent{Off: 50, Len: 50}, Ver: 5},
	}
	if len(segs) != len(want) {
		t.Fatalf("segs = %+v, want %+v", segs, want)
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segs[%d] = %+v, want %+v", i, segs[i], want[i])
		}
	}
	// force overwrites regardless of ordering (the corruption path).
	segs = overlaySegs(segs, ext.Extent{Off: 0, Len: 100}, -1, true)
	if len(segs) != 1 || segs[0].Ver != -1 {
		t.Fatalf("force overlay did not overwrite: %+v", segs)
	}
}

func TestOverlaySegsGapFill(t *testing.T) {
	segs := overlaySegs(nil, ext.Extent{Off: 100, Len: 50}, 2, false)
	segs = overlaySegs(segs, ext.Extent{Off: 0, Len: 200}, 1, false)
	want := []VersionSeg{
		{Ext: ext.Extent{Off: 0, Len: 100}, Ver: 1},
		{Ext: ext.Extent{Off: 100, Len: 50}, Ver: 2},
		{Ext: ext.Extent{Off: 150, Len: 50}, Ver: 1},
	}
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segs = %+v, want %+v", segs, want)
		}
	}
}

func TestCoalesceSegsMergesEqualRuns(t *testing.T) {
	segs := coalesceSegs([]VersionSeg{
		{Ext: ext.Extent{Off: 0, Len: 10}, Ver: 4},
		{Ext: ext.Extent{Off: 10, Len: 10}, Ver: 4},
		{Ext: ext.Extent{Off: 20, Len: 10}, Ver: 5},
		{Ext: ext.Extent{Off: 40, Len: 10}, Ver: 5}, // gap: must not merge
	})
	if len(segs) != 3 || segs[0].Ext.Len != 20 {
		t.Fatalf("coalesce = %+v", segs)
	}
}

// testReplicatedFS is testFS with a replica count.
func testReplicatedFS(nservers, replicas int) (*sim.Kernel, *FileSystem) {
	k := sim.NewKernel(1)
	net := netsim.New()
	var nodes []int
	var stores []*fs.Store
	for i := 0; i < nservers; i++ {
		p := disk.DefaultParams()
		p.Sectors = 1 << 24
		st := fs.New(k, fmt.Sprintf("s%d", i), disk.New(p), iosched.NewCFQ(), fs.DefaultConfig(), 10000+i)
		nodes = append(nodes, 1+i)
		stores = append(stores, st)
	}
	cfg := DefaultConfig()
	cfg.Replicas = replicas
	return k, New(k, net, cfg, 0, nodes, stores)
}

func TestReplicatedWriteStampsEveryReplica(t *testing.T) {
	k, fsys := testReplicatedFS(3, 2)
	tr := fsys.EnableIntegrity()
	cl := fsys.Client(100)
	unit := fsys.cfg.StripeUnit
	k.Spawn("writer", func(p *sim.Proc) {
		cl.Create(p, "f", 3*unit)
		if err := cl.Write(p, "f", []ext.Extent{{Off: 0, Len: 3 * unit}}, 1, obs.Ctx{}); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	k.RunUntil(time.Minute)
	// Every stripe's bytes must carry the same stamp on both its replicas.
	for primary := 0; primary < 3; primary++ {
		pSrv := fsys.replicaServer(primary, 0).Index
		rSrv := fsys.replicaServer(primary, 1).Index
		local := ext.Extent{Off: 0, Len: unit}
		p0 := tr.query(pSrv, "f", local)
		p1 := tr.query(rSrv, replicaFile("f", 1), local)
		if len(p0) != 1 || p0[0].Ver == 0 {
			t.Fatalf("primary %d (server %d) not stamped: %+v", primary, pSrv, p0)
		}
		if len(p1) != 1 || p1[0].Ver != p0[0].Ver {
			t.Fatalf("replica of primary %d (server %d) = %+v, want ver %d", primary, rSrv, p1, p0[0].Ver)
		}
	}
	exp := tr.Expected("f")
	if len(exp) != 1 || exp[0].Ext != (ext.Extent{Off: 0, Len: 3 * unit}) || exp[0].Ver == 0 {
		t.Fatalf("expected content = %+v", exp)
	}
}

func TestReadVersionsRoundTrip(t *testing.T) {
	k, fsys := testReplicatedFS(3, 2)
	fsys.EnableIntegrity()
	cl := fsys.Client(100)
	unit := fsys.cfg.StripeUnit
	var got []VersionSeg
	k.Spawn("rw", func(p *sim.Proc) {
		cl.Create(p, "f", 4*unit)
		if err := cl.Write(p, "f", []ext.Extent{{Off: unit / 2, Len: 2 * unit}}, 1, obs.Ctx{}); err != nil {
			t.Errorf("write: %v", err)
			return
		}
		var err error
		got, err = cl.ReadVersions(p, "f", []ext.Extent{{Off: unit / 2, Len: 2 * unit}}, 1)
		if err != nil {
			t.Errorf("read versions: %v", err)
		}
	})
	k.RunUntil(time.Minute)
	var total int64
	for _, s := range got {
		if s.Ver == 0 {
			t.Fatalf("unwritten gap in read-back of a fully written range: %+v", got)
		}
		total += s.Ext.Len
	}
	if total != 2*unit {
		t.Fatalf("read back %d bytes of stamps, want %d", total, 2*unit)
	}
}

func TestReplicasExceedServersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Replicas > servers must panic at construction")
		}
	}()
	testReplicatedFS(2, 3)
}

// TestWriteRetrySleepsBeforeReissue pins Config.RetryBackoff's contract on
// the replicated write path: when the watchdog fires, the retry is counted
// at the deadline, RetryBackoff is slept, and only then is the duplicate
// sent — the order the read path follows. One replica of the write stalls
// for a second, so the quorum of two needs the reissue.
func TestWriteRetrySleepsBeforeReissue(t *testing.T) {
	const timeout, backoff = 100 * time.Millisecond, 40 * time.Millisecond
	k, fsys := testReplicatedFS(3, 2)
	fsys.cfg.RequestTimeout = timeout
	fsys.cfg.MaxRetries = 1
	fsys.cfg.RetryBackoff = backoff
	col := obs.NewCollector()
	fsys.SetObs(col)
	stalled := fsys.replicaServer(0, 1).Index
	inj := fault.NewInjector(k, &fault.Schedule{Windows: []fault.Window{
		{Kind: fault.ServerStall, Target: stalled, End: time.Second},
	}}, 1)
	inj.SetObs(col)
	fsys.SetFaults(inj)
	cl := fsys.Client(100)
	unit := fsys.cfg.StripeUnit
	var rc obs.Ctx
	k.Spawn("writer", func(p *sim.Proc) {
		cl.Create(p, "f", unit)
		rc = col.StartRequest("client100")
		if err := cl.Write(p, "f", []ext.Extent{{Off: 0, Len: unit}}, 1, rc); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	k.RunUntil(time.Minute)

	var retryAt []time.Duration
	for _, in := range col.Instants() {
		if in.Name == "retry" {
			retryAt = append(retryAt, in.At)
		}
	}
	if len(retryAt) != 1 {
		t.Fatalf("retry instants at %v, want exactly one", retryAt)
	}
	// Enqueue times of the stalled replica's attempts, from the server spans
	// (span start minus its queue wait).
	prefix := fmt.Sprintf("server%d/", stalled)
	var enq []time.Duration
	for _, s := range col.Spans() {
		if s.ID != rc.ID || s.Stage != obs.StageServer || !strings.HasPrefix(s.Track, prefix) {
			continue
		}
		for _, a := range s.Args {
			if a.Key == "queue_ns" {
				q, err := strconv.ParseInt(a.Val, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				enq = append(enq, s.Start-time.Duration(q))
			}
		}
	}
	if len(enq) != 2 {
		t.Fatalf("stalled replica served %d attempts, want the original and one reissue", len(enq))
	}
	reissued := max(enq[0], enq[1])
	if reissued < retryAt[0]+backoff {
		t.Fatalf("reissue enqueued at %v, %v after the retry at %v: want at least the %v backoff first",
			reissued, reissued-retryAt[0], retryAt[0], backoff)
	}
	if first := min(enq[0], enq[1]); retryAt[0]-first < timeout {
		t.Fatalf("retry fired %v after the original enqueue, want at least the %v timeout", retryAt[0]-first, timeout)
	}
}
