package mpi

import (
	"testing"
	"time"

	"dualpar/internal/netsim"
	"dualpar/internal/sim"
)

func newWorld(t *testing.T, ranks, perNode int) (*sim.Kernel, *World) {
	t.Helper()
	k := sim.NewKernel(1)
	net := netsim.New()
	return k, NewWorld(net, BlockPlacement(ranks, perNode, 100))
}

func TestBlockPlacement(t *testing.T) {
	nodes := BlockPlacement(8, 4, 10)
	want := []int{10, 10, 10, 10, 11, 11, 11, 11}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("placement = %v, want %v", nodes, want)
		}
	}
}

func TestBarrierHoldsEarlyRanks(t *testing.T) {
	k, w := newWorld(t, 4, 2)
	var releases []time.Duration
	for r := 0; r < 4; r++ {
		r := r
		k.Spawn("rank", func(p *sim.Proc) {
			p.Sleep(time.Duration(r) * time.Second) // rank 3 arrives last
			w.Barrier(p, r)
			releases = append(releases, p.Now())
		})
	}
	k.Run()
	for _, at := range releases {
		if at < 3*time.Second {
			t.Fatalf("a rank left the barrier at %v, before the last arrival", at)
		}
	}
	if w.Barriers() != 1 {
		t.Fatalf("barriers = %d, want 1", w.Barriers())
	}
}

func TestBarrierRepeats(t *testing.T) {
	k, w := newWorld(t, 3, 3)
	counts := make([]int, 3)
	for r := 0; r < 3; r++ {
		r := r
		k.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				p.Sleep(time.Duration(r+1) * time.Millisecond)
				w.Barrier(p, r)
				counts[r]++
			}
		})
	}
	k.Run()
	for r, c := range counts {
		if c != 5 {
			t.Fatalf("rank %d passed %d barriers, want 5", r, c)
		}
	}
	if w.Barriers() != 5 {
		t.Fatalf("barrier generations = %d, want 5", w.Barriers())
	}
}

func TestBarrierCostGrowsWithRanks(t *testing.T) {
	cost := func(n int) time.Duration {
		k, w := newWorld(t, n, 8)
		var done time.Duration
		for r := 0; r < n; r++ {
			r := r
			k.Spawn("rank", func(p *sim.Proc) {
				w.Barrier(p, r)
				if p.Now() > done {
					done = p.Now()
				}
			})
		}
		k.Run()
		return done
	}
	if c16, c256 := cost(16), cost(256); c256 <= c16 {
		t.Fatalf("barrier cost did not grow: 16 ranks %v vs 256 ranks %v", c16, c256)
	}
}

func TestAllgatherValsExchanges(t *testing.T) {
	k, w := newWorld(t, 4, 2)
	for r := 0; r < 4; r++ {
		r := r
		k.Spawn("rank", func(p *sim.Proc) {
			out := w.AllgatherVals(p, r, r*10, 8)
			for i := 0; i < 4; i++ {
				if out[i].(int) != i*10 {
					t.Errorf("rank %d saw out[%d]=%v", r, i, out[i])
				}
			}
		})
	}
	k.Run()
}

func TestAlltoallvVolumes(t *testing.T) {
	k, w := newWorld(t, 3, 1)
	recvs := make([]int64, 3)
	for r := 0; r < 3; r++ {
		r := r
		k.Spawn("rank", func(p *sim.Proc) {
			send := make([]int64, 3)
			for d := 0; d < 3; d++ {
				send[d] = int64(100*r + d) // distinct volumes
			}
			recvs[r] = w.Alltoallv(p, r, send)
		})
	}
	k.Run()
	// recv[d] = sum over r of (100r + d)
	for d := 0; d < 3; d++ {
		want := int64(100*(0+1+2) + 3*d)
		if recvs[d] != want {
			t.Fatalf("rank %d received %d, want %d", d, recvs[d], want)
		}
	}
}

func TestAlltoallvIntraNodeFree(t *testing.T) {
	// All ranks on one node: no NIC traffic, so time is latency-only.
	k, w := newWorld(t, 4, 4)
	var latest time.Duration
	for r := 0; r < 4; r++ {
		r := r
		k.Spawn("rank", func(p *sim.Proc) {
			send := []int64{1 << 20, 1 << 20, 1 << 20, 1 << 20}
			w.Alltoallv(p, r, send)
			if p.Now() > latest {
				latest = p.Now()
			}
		})
	}
	k.Run()
	if latest > time.Millisecond {
		t.Fatalf("intra-node alltoallv took %v, want latency-only", latest)
	}
}

func TestMeetGenerationsBounded(t *testing.T) {
	k, w := newWorld(t, 2, 1)
	for r := 0; r < 2; r++ {
		r := r
		k.Spawn("rank", func(p *sim.Proc) {
			for i := 0; i < 100; i++ {
				w.Barrier(p, r)
			}
		})
	}
	k.Run()
	if n := len(w.rend["barrier"].outs); n > 2 {
		t.Fatalf("rendezvous retained %d generations, want <= 2", n)
	}
}
