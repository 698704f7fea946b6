// Package netsim models a switched, full-duplex Ethernet: each node has a
// transmit and a receive link of fixed bandwidth, messages pay a one-way
// latency, and the switch fabric itself is non-blocking (as on the paper's
// Gigabit Ethernet cluster). Contention appears exactly where it does in
// practice: at the sender's uplink and at the receiver's downlink (incast).
package netsim

import (
	"fmt"
	"time"

	"dualpar/internal/fault"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// The link model approximates switched Gigabit Ethernet: ~940 Mb/s goodput
// and 100 µs one-way latency.
const (
	// Latency is the one-way message latency (propagation, switching, and
	// protocol stack). Exported for the MPI layer's collective cost models.
	Latency = 100 * time.Microsecond
	// bandwidth is the per-direction link rate in bytes/second.
	bandwidth = 117e6
	// retransmitTimeout is what a sender pays before retrying a message the
	// fault layer dropped (the transport's RTO; TCP's floor of the era).
	retransmitTimeout = 200 * time.Millisecond
)

// Xfer returns the serialization time of a message of the given size on one
// link: the cost the MPI layer's collective models charge per NIC, too.
func Xfer(bytes int64) time.Duration {
	return time.Duration(float64(bytes) / bandwidth * float64(time.Second))
}

// Network charges virtual time for messages between nodes. Nodes are dense
// small integers assigned by the cluster layer.
type Network struct {
	tx []time.Duration // per-node transmit link free time, indexed by node
	rx []time.Duration // per-node receive link free time, indexed by node

	bytesSent int64
	messages  int64
	drops     int64

	faults *fault.Injector

	// One-entry serialization-time memo: message sizes repeat heavily
	// (headers, stripe units, page batches), and the float division in xfer
	// shows up on the per-message hot path. Caching the last (bytes, xfer)
	// pair returns the exact same Duration the division would, so the event
	// timeline is unchanged.
	lastBytes int64
	lastXfer  time.Duration

	obs       *obs.Collector
	cBytes    *obs.Counter
	cMessages *obs.Counter
	cDrops    *obs.Counter
}

// New creates a network.
func New() *Network {
	return &Network{lastBytes: -1}
}

// SetObs attaches the observability collector. The counter handles are
// resolved once here; a nil collector yields nil handles whose Add is a
// no-op.
func (n *Network) SetObs(c *obs.Collector) {
	n.obs = c
	n.cBytes = c.Metrics().Counter("net.bytes")
	n.cMessages = c.Metrics().Counter("net.messages")
	n.cDrops = c.Metrics().Counter("net.drops")
}

// SetFaults attaches a fault injector; messages then suffer the schedule's
// link degradation and transient drops. A nil injector is a no-op.
func (n *Network) SetFaults(inj *fault.Injector) { n.faults = inj }

// BytesSent and Messages report cumulative wire traffic (same-node
// messages never touch the wire and count toward neither).
func (n *Network) BytesSent() int64 { return n.bytesSent }
func (n *Network) Messages() int64  { return n.messages }

// Drops reports messages lost to injected link faults (each cost the
// sender a retransmit timeout).
func (n *Network) Drops() int64 { return n.drops }

// grow ensures the link free-time slices cover node. Node ids are dense
// small integers, so flat slices beat maps on the per-message hot path.
func (n *Network) grow(node int) {
	for len(n.tx) <= node {
		n.tx = append(n.tx, 0)
		n.rx = append(n.rx, 0)
	}
}

// xfer returns the serialization time of a message.
func (n *Network) xfer(bytes int64) time.Duration {
	if bytes == n.lastBytes {
		return n.lastXfer
	}
	x := Xfer(bytes)
	n.lastBytes, n.lastXfer = bytes, x
	return x
}

// maxRetransmits bounds how often one message retries after injected
// drops; past the cap it is delivered regardless (the link is degraded,
// not partitioned).
const maxRetransmits = 16

// Send blocks p until a message of the given size from node from is fully
// delivered at node to. Local (same-node) messages never touch the wire:
// they cost nothing and count toward neither traffic counter.
func (n *Network) Send(p *sim.Proc, from, to int, bytes int64) {
	if bytes < 0 {
		panic(fmt.Sprintf("netsim: negative message size %d", bytes))
	}
	if from == to {
		return
	}
	// Transport-level loss: a dropped message costs the sender a retransmit
	// timeout before the next attempt.
	for attempt := 0; attempt < maxRetransmits && n.faults.Drop(from, to, p.Now()); attempt++ {
		n.drops++
		n.cDrops.Add(1)
		if n.obs.Enabled() {
			n.obs.Instant("fault.drop", "net", p.Now(),
				obs.I64("from", int64(from)), obs.I64("to", int64(to)),
				obs.I64("bytes", bytes))
		}
		p.Sleep(retransmitTimeout)
	}
	n.messages++
	n.cMessages.Add(1)
	n.bytesSent += bytes
	n.cBytes.Add(bytes)
	if from > to {
		n.grow(from)
	} else {
		n.grow(to)
	}
	now := p.Now()
	x := n.xfer(bytes)
	if f := n.faults.LinkFactor(from, to, now); f > 1 {
		x = time.Duration(float64(x) * f)
	}

	start := now
	if n.tx[from] > start {
		start = n.tx[from]
	}
	n.tx[from] = start + x

	// Bits begin arriving after the latency; the receive link serializes
	// delivery at link rate.
	arrive := start + Latency
	if n.rx[to] > arrive {
		arrive = n.rx[to]
	}
	done := arrive + x
	n.rx[to] = done

	p.Sleep(done - now)
}

// SendLossy is Send for crash-aware callers: when either endpoint is a
// crash-stopped data server the message vanishes — the sender still pays
// serialization and latency (the bits leave the NIC before anyone can know
// the peer is dead), but nothing is delivered and no retransmission
// happens. It reports whether the message arrived. rc carries the traced
// request for the StageNet span (zero Ctx = untraced).
func (n *Network) SendLossy(p *sim.Proc, from, to int, bytes int64, rc obs.Ctx) bool {
	if n.faults.NodeCrashed(from, p.Now()) || n.faults.NodeCrashed(to, p.Now()) {
		if n.obs.Enabled() {
			n.obs.Instant("fault.void", "net", p.Now(),
				obs.I64("from", int64(from)), obs.I64("to", int64(to)),
				obs.I64("bytes", bytes))
		}
		n.SendTraced(p, from, to, bytes, rc)
		return false
	}
	n.SendTraced(p, from, to, bytes, rc)
	return true
}

// SendTraced is Send plus a StageNet span against rc's request, recorded on
// rc's track. Untraced contexts fall through to plain Send.
func (n *Network) SendTraced(p *sim.Proc, from, to int, bytes int64, rc obs.Ctx) {
	if !rc.Traced() {
		n.Send(p, from, to, bytes)
		return
	}
	start := p.Now()
	n.Send(p, from, to, bytes)
	n.obs.Span(rc.ID, obs.StageNet, rc.Track, start, p.Now(),
		obs.I64("bytes", bytes), obs.I64("from", int64(from)), obs.I64("to", int64(to)))
}

// Delay charges the one-way latency only, for zero-payload control messages
// whose serialization is negligible.
func (n *Network) Delay(p *sim.Proc) {
	p.Sleep(Latency)
}
