package pfs

import (
	"fmt"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// Client is a node-local handle to the file system. PVFS2 keeps no
// client-side data cache, so every call reaches the servers.
type Client struct {
	fsys *FileSystem
	Node int
}

// Client returns a client bound to the given network node.
func (fsys *FileSystem) Client(node int) *Client {
	return &Client{fsys: fsys, Node: node}
}

// Create registers the file with the metadata server and pre-allocates
// layout for size bytes on the data servers (every replica rank).
func (c *Client) Create(p *sim.Proc, name string, size int64) {
	fsys := c.fsys
	fsys.net.Send(p, c.Node, fsys.meta.Node, headerBytes)
	p.Sleep(metaOpCPU)
	if size > fsys.meta.sizes[name] {
		fsys.meta.sizes[name] = size
	}
	// The metadata server instructs each data server to reserve layout;
	// modeled as a metadata-time operation (no data movement).
	per := fsys.split([]ext.Extent{{Off: 0, Len: size}})
	for i := range fsys.servers {
		if len(per[i]) == 0 {
			continue
		}
		end := per[i][len(per[i])-1].End()
		for rank := 0; rank < fsys.replicas(); rank++ {
			fsys.replicaServer(i, rank).Store.Create(replicaFile(name, rank), end)
		}
	}
	fsys.net.Send(p, fsys.meta.Node, c.Node, headerBytes)
}

// Open contacts the metadata server and returns the file size it records.
func (c *Client) Open(p *sim.Proc, name string) int64 {
	fsys := c.fsys
	fsys.net.Send(p, c.Node, fsys.meta.Node, headerBytes)
	p.Sleep(metaOpCPU)
	size := fsys.meta.sizes[name]
	fsys.net.Send(p, fsys.meta.Node, c.Node, headerBytes)
	return size
}

// Read performs a list-I/O read of the given file-global extents, blocking
// p until all data has arrived. origin tags the disk requests for the I/O
// scheduler (CFQ queues by origin); rc carries the originating traced
// request (zero Ctx = untraced). Each stripe group is served by its
// preferred live replica and fails over to the next one when the
// per-request watchdog fires or the failure detector declares the target
// dead; it returns an error wrapping ErrRetriesExhausted only when every
// replica of some needed stripe is down.
func (c *Client) Read(p *sim.Proc, name string, extents []ext.Extent, origin int, rc obs.Ctx) error {
	op, err := c.transfer(p, name, extents, origin, rc, false)
	c.fsys.putOp(op)
	return err
}

// Write performs a list-I/O write; see Read. The write fans out to every
// live replica and completes at the write quorum; replicas that missed it
// are noted for the online rebuild.
func (c *Client) Write(p *sim.Proc, name string, extents []ext.Extent, origin int, rc obs.Ctx) error {
	op, err := c.transfer(p, name, extents, origin, rc, true)
	c.fsys.putOp(op)
	if err != nil {
		return err
	}
	fsys := c.fsys
	if n := ext.Total(extents); n > 0 {
		hi := int64(0)
		for _, e := range extents {
			if e.End() > hi {
				hi = e.End()
			}
		}
		if hi > fsys.meta.sizes[name] {
			fsys.meta.sizes[name] = hi
		}
	}
	return nil
}

// issued is one replica's attempts at a stripe group: the request sent to
// that rank's server plus every reissue to the same server.
type issued struct {
	srv      *Server
	rank     int
	attempts []*serverReq // all reissues share the group's done signal
}

func (is *issued) finished() bool {
	for _, a := range is.attempts {
		if a.fin {
			return true
		}
	}
	return false
}

// xferGroup is the per-primary-server unit of a transfer: the local extent
// list, one done signal shared by every replica attempt, and the
// per-replica outstanding requests. held counts the attempts a server
// queue or worker still holds: send adds one when a message reaches a
// queue (none for one lost on the wire), and the worker's release takes it
// back once it has dropped or served the attempt. op is nil while the op
// runs; putOp sets it on a group still held when the op returns, and the
// release that brings held to zero then recycles the group. primary and
// held are int32 so that the record stays in the 112-byte size class.
type xferGroup struct {
	primary int32
	held    int32
	file    string
	lst     []ext.Extent
	msg     int64
	done    sim.Signal // shared by every replica attempt (see issueTo)
	reps    []*issued
	op      *xferOp
}

func (g *xferGroup) winner() *issued {
	for _, is := range g.reps {
		if is.finished() {
			return is
		}
	}
	return nil
}

// xferOp is the per-operation transfer record: the per-server split of the
// extents and the stripe groups built over it. Once the op has returned,
// groups holds only those a server still holds (see putOp).
type xferOp struct {
	per    [][]ext.Extent
	groups []*xferGroup
}

// transfer splits the extents into one stripe group per data server and
// serves each group through its replicas: a write goes to every live
// replica and waits for the write quorum, a read goes to the preferred
// live replica and fails over. With one replica and no crash windows both
// reduce to the plain PVFS2 list-I/O client: one request per server, and
// the retry watchdog when RequestTimeout is armed. The returned record
// goes back to the pool with putOp once the caller is done with it.
func (c *Client) transfer(p *sim.Proc, name string, extents []ext.Extent, origin int, rc obs.Ctx, write bool) (*xferOp, error) {
	fsys := c.fsys
	op := fsys.opPool.Get()
	if op.per == nil {
		op.per = make([][]ext.Extent, fsys.NumServers())
	}
	fsys.splitInto(op.per, extents)
	var ver int64
	if write && fsys.tracker != nil {
		fsys.verCounter++
		ver = fsys.verCounter
	}
	for i, lst := range op.per {
		if len(lst) == 0 {
			continue
		}
		g := fsys.groupPool.Get()
		g.primary, g.file, g.lst = int32(i), name, lst
		g.msg = headerBytes + extentDescBytes*int64(len(lst))
		if write {
			g.msg += ext.Total(lst) // write payload travels with the request
			for rank := 0; rank < fsys.replicas(); rank++ {
				srv := fsys.replicaServer(i, rank)
				if fsys.down[srv.Index] {
					// Known-dead replica: skip the wire, note it for rebuild.
					fsys.ledger.add(srv.Index, fsys.storeFile(name, rank), lst)
					continue
				}
				c.issueTo(p, g, rank, true, ver, origin, rc)
			}
		} else {
			c.issueTo(p, g, fsys.preferredRank(i), false, 0, origin, rc)
		}
		op.groups = append(op.groups, g)
	}
	for _, g := range op.groups {
		var err error
		if write {
			err = c.awaitQuorum(p, g)
		} else {
			err = c.awaitRead(p, g, origin, rc)
		}
		if err != nil {
			return op, err
		}
	}
	if ver != 0 {
		fsys.tracker.recordExpected(name, extents, ver)
	}
	return op, nil
}

// issueTo sends one replica attempt of the group to the given rank's
// server, stamped with the op's integrity write version ver (0 =
// untracked). The message may vanish en route to a crashed server; the
// attempt is still recorded (the client cannot know) and the watchdog or
// view change recovers.
func (c *Client) issueTo(p *sim.Proc, g *xferGroup, rank int, write bool, ver int64, origin int, rc obs.Ctx) {
	fsys := c.fsys
	is := fsys.issPool.Get()
	is.srv, is.rank = fsys.replicaServer(int(g.primary), rank), rank
	g.reps = append(g.reps, is)
	req := fsys.reqPool.Get()
	req.file = fsys.storeFile(g.file, rank)
	req.extents = g.lst
	req.write = write
	req.origin = origin
	req.client = c.Node
	req.g = g
	req.rc = rc
	req.ver = ver
	c.send(p, g, is, req)
}

// reissue duplicates an unanswered attempt to the same server (write
// retries). The abandoned original keeps running server-side — duplicate
// service costs time, as real retries do — and whichever attempt finishes
// first counts.
func (c *Client) reissue(p *sim.Proc, g *xferGroup, is *issued) {
	dup := c.fsys.reqPool.Get()
	*dup = *is.attempts[0]
	dup.fin, dup.enq = false, 0
	c.send(p, g, is, dup)
}

// send records the attempt and puts it on the wire. A message that
// reaches the server's queue is held there until a worker releases it. A
// message voided by a crashed but not yet detected server never reaches
// its queue, so no worker will note a voided write for the rebuild: send
// does, as the worker does for a write voided in the queue.
func (c *Client) send(p *sim.Proc, g *xferGroup, is *issued, req *serverReq) {
	fsys := c.fsys
	is.attempts = append(is.attempts, req)
	if fsys.net.SendLossy(p, c.Node, is.srv.Node, g.msg, req.rc) {
		req.enq = p.Now()
		g.held++
		is.srv.queue.Put(req)
	} else if req.write {
		fsys.ledger.add(is.srv.Index, req.file, req.extents)
	}
}

// waitStep blocks until the group's done signal fires, a watchdog
// deadline passes (deadline > 0), or — on crash-aware runs — a poll tick
// elapses so the waiter re-reads the failure detector's view. Crash-free
// runs never poll: their waits are pure signal and timeout.
func (c *Client) waitStep(p *sim.Proc, g *xferGroup, deadline time.Duration) {
	fsys := c.fsys
	switch {
	case deadline > 0:
		w := deadline - p.Now()
		if fsys.crashAware() && w > pollEvery {
			w = pollEvery
		}
		if w > 0 {
			g.done.WaitTimeout(p, w)
		}
	case fsys.crashAware():
		g.done.WaitTimeout(p, pollEvery)
	default:
		g.done.Wait(p)
	}
}

// awaitQuorum blocks until enough replicas of one stripe group ack the
// write: the configured quorum, shrunk to the number of issued replicas
// still live (so a crash detected mid-wait unblocks the writer). It fails
// with ErrRetriesExhausted only when no replica of the group can take the
// write. With RequestTimeout armed, unacked live replicas are reissued
// after the timeout: the retry is counted, then RetryBackoff is slept, then
// the duplicates go out; both the timeout and the backoff double per retry.
func (c *Client) awaitQuorum(p *sim.Proc, g *xferGroup) error {
	fsys := c.fsys
	timeout := fsys.cfg.RequestTimeout
	backoff := fsys.cfg.RetryBackoff
	retry := 0
	var deadline time.Duration
	if timeout > 0 {
		deadline = p.Now() + timeout
	}
	for {
		acks, possible := 0, 0
		for _, is := range g.reps {
			switch {
			case is.finished():
				acks++
				possible++
			case !fsys.down[is.srv.Index]:
				possible++
			}
		}
		if possible == 0 {
			return &RetryError{Op: "write", File: g.file, Server: int(g.primary)}
		}
		need := fsys.writeQuorum()
		if possible < need {
			need = possible
		}
		if acks >= need {
			// Quorum met. Anything unacked on a dead server missed the
			// write; note it so the rebuild re-copies from a peer.
			for _, is := range g.reps {
				if !is.finished() && fsys.down[is.srv.Index] {
					fsys.ledger.add(is.srv.Index, fsys.storeFile(g.file, is.rank), g.lst)
				}
			}
			return nil
		}
		if deadline > 0 && p.Now() >= deadline {
			if retry >= fsys.cfg.MaxRetries {
				deadline = 0 // watchdog exhausted; wait on acks and the view
				continue
			}
			retry++
			var due []*issued
			for _, is := range g.reps {
				if is.finished() || fsys.down[is.srv.Index] {
					continue
				}
				fsys.retries++
				if fsys.obs.Enabled() {
					fsys.obs.Instant("retry", fmt.Sprintf("client%d", c.Node), p.Now(),
						obs.I64("server", int64(is.srv.Index)), obs.I64("attempt", int64(retry)),
						obs.Str("file", g.file))
				}
				due = append(due, is)
			}
			if backoff > 0 {
				p.Sleep(backoff)
				backoff *= 2
			}
			for _, is := range due {
				c.reissue(p, g, is)
			}
			timeout *= 2
			deadline = p.Now() + timeout
			continue
		}
		c.waitStep(p, g, deadline)
	}
}

// awaitRead blocks until one replica of the stripe group has served the
// read. A target the failure detector declares dead is failed over
// immediately, without spending the retry budget; with RequestTimeout
// armed an unanswered target is retried on the next live replica (the
// same server when there is only one) after RetryBackoff.
func (c *Client) awaitRead(p *sim.Proc, g *xferGroup, origin int, rc obs.Ctx) error {
	fsys := c.fsys
	timeout := fsys.cfg.RequestTimeout
	backoff := fsys.cfg.RetryBackoff
	retry := 0
	var deadline time.Duration
	if timeout > 0 {
		deadline = p.Now() + timeout
	}
	for {
		if g.winner() != nil {
			return nil
		}
		if fsys.allReplicasDown(int(g.primary)) {
			return &RetryError{Op: "read", File: g.file, Server: int(g.primary)}
		}
		cur := g.reps[len(g.reps)-1]
		if fsys.down[cur.srv.Index] {
			// The failure detector declared the current target dead: fail
			// over to the next live replica immediately. View-triggered
			// failover does not consume the retry budget.
			next, ok := fsys.nextRank(int(g.primary), cur.rank)
			if !ok {
				continue // allReplicasDown catches it next iteration
			}
			fsys.failovers++
			if fsys.obs.Enabled() {
				fsys.obs.Instant("failover", fmt.Sprintf("client%d", c.Node), p.Now(),
					obs.I64("from", int64(cur.srv.Index)),
					obs.I64("to", int64(fsys.replicaServer(int(g.primary), next).Index)),
					obs.Str("file", g.file))
			}
			c.issueTo(p, g, next, false, 0, origin, rc)
			if timeout > 0 {
				deadline = p.Now() + timeout
			}
			continue
		}
		if deadline > 0 && p.Now() >= deadline {
			if retry >= fsys.cfg.MaxRetries {
				deadline = 0
				continue
			}
			retry++
			fsys.retries++
			next, ok := fsys.nextRank(int(g.primary), cur.rank)
			if !ok {
				continue
			}
			nsrv := fsys.replicaServer(int(g.primary), next)
			if fsys.obs.Enabled() {
				fsys.obs.Instant("retry", fmt.Sprintf("client%d", c.Node), p.Now(),
					obs.I64("server", int64(nsrv.Index)), obs.I64("attempt", int64(retry)),
					obs.Str("file", g.file))
			}
			if nsrv.Index != cur.srv.Index {
				fsys.failovers++
			}
			if backoff > 0 {
				p.Sleep(backoff)
				backoff *= 2
			}
			c.issueTo(p, g, next, false, 0, origin, rc)
			timeout *= 2
			deadline = p.Now() + timeout
			continue
		}
		c.waitStep(p, g, deadline)
	}
}

// ReadVersions is the integrity oracle's read: it performs a full
// failover read of the extents (paying the same simulated cost as Read)
// and returns the version stamps the serving replicas hold for every
// byte, in global coordinates. Requires EnableIntegrity.
func (c *Client) ReadVersions(p *sim.Proc, name string, extents []ext.Extent, origin int) ([]VersionSeg, error) {
	fsys := c.fsys
	if fsys.tracker == nil {
		return nil, fmt.Errorf("pfs: ReadVersions without EnableIntegrity")
	}
	op, err := c.transfer(p, name, extents, origin, obs.Ctx{}, false)
	defer fsys.putOp(op)
	if err != nil {
		return nil, err
	}
	winners := make([]*issued, fsys.NumServers())
	for _, g := range op.groups {
		winners[g.primary] = g.winner()
	}
	// Re-walk the split piece by piece so each local range maps back to
	// its global offset (split() merges adjacent local pieces, which would
	// lose the correspondence).
	var out []VersionSeg
	ext.VisitSplit(extents, StripeUnit, func(piece ext.Extent) {
		primary, local := fsys.LocalOffset(piece.Off)
		win := winners[primary]
		if win == nil {
			return
		}
		served := replicaFile(name, win.rank)
		for _, s := range fsys.tracker.query(win.srv.Index, served, ext.Extent{Off: local, Len: piece.Len}) {
			out = append(out, VersionSeg{
				Ext: ext.Extent{Off: piece.Off + (s.Ext.Off - local), Len: s.Ext.Len},
				Ver: s.Ver,
			})
		}
	})
	return out, nil
}
