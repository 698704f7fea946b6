// Package mpi models the MPI runtime pieces the paper's software stack
// needs: a world of ranks placed on compute nodes, barriers, and the
// allgather and all-to-all-v data exchanges of two-phase collective I/O.
//
// Collective operations synchronize all ranks (every rank must call every
// collective in the same order) and charge time with standard cost models:
// latency terms scale with log2(P), bandwidth terms with the bytes crossing
// each node's NIC.
package mpi

import (
	"fmt"
	"math"
	"time"

	"dualpar/internal/netsim"
	"dualpar/internal/sim"
)

// World is a communicator over a set of ranks.
type World struct {
	k     *sim.Kernel
	net   *netsim.Network
	nodes []int // nodes[rank] = network node hosting that rank

	rend map[string]*rendezvous

	barriers int64
}

// NewWorld creates a world with the given rank-to-node placement.
func NewWorld(k *sim.Kernel, net *netsim.Network, nodes []int) *World {
	if len(nodes) == 0 {
		panic("mpi: empty world")
	}
	return &World{
		k:     k,
		net:   net,
		nodes: nodes,
		rend:  make(map[string]*rendezvous),
	}
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.nodes) }

// Node returns the network node hosting rank r.
func (w *World) Node(r int) int { return w.nodes[r] }

// Net returns the network the world communicates over.
func (w *World) Net() *netsim.Network { return w.net }

// Barriers reports how many barrier generations completed.
func (w *World) Barriers() int64 { return w.barriers }

// rendezvous synchronizes all ranks at a named point and exchanges one value
// per rank. All ranks must reach the same tags in the same order.
type rendezvous struct {
	gen    int
	count  int
	vals   []interface{}
	outs   map[int][]interface{} // completed generations still being read
	signal *sim.Signal
}

// meet blocks until every rank has called meet with the same tag, then
// returns the slice of all ranks' values indexed by rank. A rank can lag
// the completing rank by at most one generation (generation g+1 cannot
// complete before every rank passed g), so only two generations of results
// are retained.
func (w *World) meet(p *sim.Proc, tag string, rank int, val interface{}) []interface{} {
	rd := w.rend[tag]
	if rd == nil {
		rd = &rendezvous{signal: w.k.NewSignal(), outs: make(map[int][]interface{})}
		w.rend[tag] = rd
	}
	if rd.vals == nil {
		rd.vals = make([]interface{}, w.Size())
	}
	gen := rd.gen
	rd.vals[rank] = val
	rd.count++
	if rd.count == w.Size() {
		rd.outs[gen] = rd.vals
		delete(rd.outs, gen-2)
		rd.vals = nil
		rd.count = 0
		rd.gen++
		rd.signal.Broadcast()
		return rd.outs[gen]
	}
	for rd.gen <= gen {
		rd.signal.Wait(p)
	}
	return rd.outs[gen]
}

// logP returns ceil(log2(P)), at least 1.
func (w *World) logP() int {
	p := w.Size()
	if p <= 1 {
		return 1
	}
	return int(math.Ceil(math.Log2(float64(p))))
}

// Barrier blocks rank until all ranks arrive. Cost: an arrival and a release
// latency plus a small per-rank serialization at the coordinator, growing
// with world size as on a real cluster.
func (w *World) Barrier(p *sim.Proc, rank int) {
	// Arrival message to the coordinator (rank 0's node).
	w.net.Send(p, w.nodes[rank], w.nodes[0], 64)
	w.meet(p, "barrier", rank, nil)
	if rank == 0 {
		w.barriers++
	}
	// Release notification.
	w.net.Delay(p)
}

// AllgatherVals synchronizes all ranks, exchanging an arbitrary value per
// rank (metadata exchange; bytes models its wire size per rank).
func (w *World) AllgatherVals(p *sim.Proc, rank int, val interface{}, bytes int64) []interface{} {
	out := w.meet(p, "allgatherv", rank, val)
	p.Sleep(time.Duration(w.logP())*netsim.Latency + time.Duration(w.Size()-1)*netsim.Xfer(bytes))
	return out
}

// Alltoallv performs a personalized exchange: send[d] is the number of
// bytes this rank sends to rank d. It returns the bytes this rank receives.
// Cost: P-1 latency rounds — MPICH implements the v-variant as a pairwise
// exchange with no logarithmic optimization, which is why two-phase
// collective I/O gets increasingly expensive at scale (paper §V-C) — plus
// each node's total traffic through its NIC (ranks sharing a node share its
// links).
func (w *World) Alltoallv(p *sim.Proc, rank int, send []int64) (recv int64) {
	if len(send) != w.Size() {
		panic(fmt.Sprintf("mpi: Alltoallv send vector len %d, world %d", len(send), w.Size()))
	}
	all := w.meet(p, "alltoallv", rank, send)
	// Bytes received by this rank.
	var recvB int64
	for src := 0; src < w.Size(); src++ {
		recvB += all[src].([]int64)[rank]
	}
	// Node-level NIC traffic: everything sent or received by ranks on this
	// rank's node that crosses node boundaries. Computed in O(P) per rank:
	// outbound from co-located ranks to other nodes, plus inbound from
	// other nodes to co-located ranks.
	var nodeBytes int64
	myNode := w.nodes[rank]
	for r := 0; r < w.Size(); r++ {
		sv := all[r].([]int64)
		if w.nodes[r] == myNode {
			for d := 0; d < w.Size(); d++ {
				if w.nodes[d] != myNode {
					nodeBytes += sv[d]
				}
			}
		} else {
			for d := 0; d < w.Size(); d++ {
				if w.nodes[d] == myNode {
					nodeBytes += sv[d]
				}
			}
		}
	}
	p.Sleep(time.Duration(w.Size()-1)*netsim.Latency + netsim.Xfer(nodeBytes))
	return recvB
}

// Placement helpers.

// BlockPlacement places ranks on nodes in contiguous blocks of
// ranksPerNode, using node ids firstNode, firstNode+1, ...
func BlockPlacement(ranks, ranksPerNode, firstNode int) []int {
	if ranksPerNode <= 0 {
		panic("mpi: ranksPerNode must be positive")
	}
	nodes := make([]int, ranks)
	for r := range nodes {
		nodes[r] = firstNode + r/ranksPerNode
	}
	return nodes
}
