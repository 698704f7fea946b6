package pfs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
)

// Replication, failover, and online rebuild (DESIGN §10).
//
// Replica rank r of the stripes whose primary is server i lives on server
// (i + offsets[r]) mod n, where offsets[r] prefers r*rackSize — one
// rack apart per rank, so a whole-rack failure cannot take out every copy.
// A write completes on a majority of replicas (writeQuorum).
// Replica data reuses the primary's local stripe layout under a rank-
// namespaced file name ("name#r1", "name#r2", …): the placement map is a
// bijection per rank, so namespaced local offsets never collide.

// pollEvery is how often quorum waiters and failover readers re-examine
// the failure detector's view while blocked. Only crash-aware runs poll;
// crash-free schedules keep pure-signal waits.
const pollEvery = 50 * time.Millisecond

const (
	// rackSize is the paper cluster's servers per rack; replica ranks are
	// placed rackSize servers apart.
	rackSize = 3
	// rebuildBandwidth throttles the online rebuild's background copy, in
	// bytes/second; rebuildChunk is its copy granularity.
	rebuildBandwidth = 32 << 20
	rebuildChunk     = 1 << 20
)

// replicaOffsets computes the per-rank server offsets: rank r prefers
// r*rackSize mod n, falling forward to the next unused offset so every rank
// maps to a distinct server (requires replicas <= n, checked in New).
func replicaOffsets(n, replicas int) []int {
	if replicas < 1 {
		replicas = 1
	}
	offs := []int{0}
	used := map[int]bool{0: true}
	for r := 1; r < replicas; r++ {
		off := (r * rackSize) % n
		for used[off] {
			off = (off + 1) % n
		}
		offs = append(offs, off)
		used[off] = true
	}
	return offs
}

// replicas reports the effective replica count (Config 0 and 1 both mean
// unreplicated).
func (fsys *FileSystem) replicas() int {
	if fsys.cfg.Replicas > 1 {
		return fsys.cfg.Replicas
	}
	return 1
}

// writeQuorum reports how many replica acks complete a write: a majority.
// A crashed replica detected down is excluded from the quorum denominator
// so writes keep completing.
func (fsys *FileSystem) writeQuorum() int { return fsys.replicas()/2 + 1 }

func (fsys *FileSystem) detectDelay() time.Duration { return fsys.cfg.DetectDelay }

// crashAware reports whether the schedule can kill servers, i.e. whether
// views can change mid-run. Crash-free runs never poll, so their waits
// wake only on completions and watchdog deadlines.
func (fsys *FileSystem) crashAware() bool { return fsys.faults.HasCrashWindows() }

// replicaServer returns the data server holding replica rank r of the
// stripes whose primary is server primary.
func (fsys *FileSystem) replicaServer(primary, rank int) *Server {
	return fsys.servers[(primary+fsys.offsets[rank])%len(fsys.servers)]
}

// replicaFile namespaces a logical file per replica rank.
func replicaFile(name string, rank int) string {
	if rank == 0 {
		return name
	}
	return name + "#r" + strconv.Itoa(rank)
}

// storeFile is replicaFile(name, rank), formatted once per file and kept,
// so that issuing a request to a replica formats no name.
func (fsys *FileSystem) storeFile(name string, rank int) string {
	if rank == 0 {
		return name
	}
	names := fsys.storeNames[name]
	if names == nil {
		if fsys.storeNames == nil {
			fsys.storeNames = make(map[string][]string)
		}
		names = make([]string, fsys.replicas())
		for r := range names {
			names[r] = replicaFile(name, r)
		}
		fsys.storeNames[name] = names
	}
	return names[rank]
}

// replicaBase splits a possibly rank-namespaced store file back into the
// logical name and replica rank.
func replicaBase(file string) (string, int) {
	i := strings.LastIndex(file, "#r")
	if i < 0 {
		return file, 0
	}
	rank, err := strconv.Atoi(file[i+2:])
	if err != nil || rank <= 0 {
		return file, 0
	}
	return file[:i], rank
}

// setDown records a failure-detector view transition and wakes every
// blocked quorum waiter and failover reader so they recompute. A recovery
// additionally starts the online rebuild.
func (fsys *FileSystem) setDown(server int, down bool) {
	if fsys.down[server] == down {
		return
	}
	fsys.down[server] = down
	if fsys.obs.Enabled() {
		state := "up"
		if down {
			state = "down"
		}
		fsys.obs.Instant("pfs.view", "pfs", fsys.k.Now(),
			obs.I64("server", int64(server)), obs.Str("state", state))
	}
	if !down {
		fsys.startRebuild(server)
	}
}

// nextRank returns the first live rank after cur in cyclic rank order
// (possibly cur itself when every other replica is down but cur is live).
// ok is false when every replica of the primary's stripes is down.
func (fsys *FileSystem) nextRank(primary, cur int) (rank int, ok bool) {
	r := fsys.replicas()
	for i := 1; i <= r; i++ {
		cand := (cur + i) % r
		if !fsys.down[fsys.replicaServer(primary, cand).Index] {
			return cand, true
		}
	}
	return 0, false
}

// preferredRank picks where a read goes first: the lowest rank whose
// server is live and not rebuilding, else the lowest live rank, else 0.
func (fsys *FileSystem) preferredRank(primary int) int {
	r := fsys.replicas()
	for rank := 0; rank < r; rank++ {
		s := fsys.replicaServer(primary, rank).Index
		if !fsys.down[s] && !fsys.rebuilding[s] {
			return rank
		}
	}
	for rank := 0; rank < r; rank++ {
		if !fsys.down[fsys.replicaServer(primary, rank).Index] {
			return rank
		}
	}
	return 0
}

// allReplicasDown reports whether every replica of the primary's stripes
// is down in the current view.
func (fsys *FileSystem) allReplicasDown(primary int) bool {
	for rank := 0; rank < fsys.replicas(); rank++ {
		if !fsys.down[fsys.replicaServer(primary, rank).Index] {
			return false
		}
	}
	return true
}

// rebuildLedger accumulates, per server, the replica-file extents that
// missed writes while the server was crashed. Entries are added by the
// worker (requests voided mid-crash) and by quorum completion (replicas
// that never acked); duplicates are harmless — rebuild re-copies from a
// peer whose state is at least as new.
type rebuildLedger struct {
	perServer []map[string][]ext.Extent
}

func newRebuildLedger(n int) *rebuildLedger {
	l := &rebuildLedger{perServer: make([]map[string][]ext.Extent, n)}
	for i := range l.perServer {
		l.perServer[i] = make(map[string][]ext.Extent)
	}
	return l
}

func (l *rebuildLedger) add(server int, file string, extents []ext.Extent) {
	m := l.perServer[server]
	xs := m[file]
	for _, x := range extents {
		xs = ext.Insert(xs, x)
	}
	m[file] = xs
}

// dirtyFile is one rebuild work item.
type dirtyFile struct {
	file    string
	extents []ext.Extent
}

// take drains and returns the server's dirty set in deterministic order.
func (l *rebuildLedger) take(server int) []dirtyFile {
	m := l.perServer[server]
	if len(m) == 0 {
		return nil
	}
	l.perServer[server] = make(map[string][]ext.Extent)
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]dirtyFile, 0, len(names))
	for _, name := range names {
		out = append(out, dirtyFile{file: name, extents: m[name]})
	}
	return out
}

// Rebuilding reports whether a server's online rebuild is in progress.
func (fsys *FileSystem) Rebuilding(server int) bool {
	return server >= 0 && server < len(fsys.rebuilding) && fsys.rebuilding[server]
}

// startRebuild launches the online rebuild for a freshly recovered server:
// every stripe range it missed while down is re-copied from a live peer
// replica at a throttled background rate. Reads prefer other replicas
// until the rebuild finishes.
func (fsys *FileSystem) startRebuild(server int) {
	dirty := fsys.ledger.take(server)
	if len(dirty) == 0 {
		return
	}
	fsys.rebuilding[server] = true
	fsys.k.Spawn(fmt.Sprintf("pfs/rebuild/server%d", server), func(p *sim.Proc) {
		fsys.rebuildLoop(p, server, dirty)
	})
}

func (fsys *FileSystem) rebuildLoop(p *sim.Proc, server int, dirty []dirtyFile) {
	srv := fsys.servers[server]
	n := len(fsys.servers)
	if fsys.obs.Enabled() {
		var total int64
		for _, df := range dirty {
			total += ext.Total(df.extents)
		}
		fsys.obs.Instant("rebuild.begin", "pfs", p.Now(),
			obs.I64("server", int64(server)), obs.I64("files", int64(len(dirty))),
			obs.I64("bytes", total))
	}
	var copied int64
	for _, df := range dirty {
		base, rank := replicaBase(df.file)
		primary := (server - fsys.offsets[rank]%n + n) % n
		for _, e := range df.extents {
			for off := e.Off; off < e.End(); off += rebuildChunk {
				if fsys.faults.Crashed(server, p.Now()) {
					// Crashed again mid-rebuild: put the remainder back and
					// let the next recovery restart it.
					fsys.requeueRebuild(server, df, dirty, off, e)
					fsys.rebuilding[server] = false
					return
				}
				piece := ext.Extent{Off: off, Len: min(rebuildChunk, e.End()-off)}
				src := fsys.rebuildSource(primary, rank, p.Now())
				if src < 0 {
					if fsys.obs.Enabled() {
						fsys.obs.Instant("rebuild.lost", "pfs", p.Now(),
							obs.I64("server", int64(server)), obs.Str("file", df.file),
							obs.I64("bytes", piece.Len))
					}
					continue
				}
				peer := fsys.servers[src]
				srcRank := fsys.rankOn(primary, src)
				srcFile := replicaFile(base, srcRank)
				lst := []ext.Extent{piece}
				peer.Store.ReadMulti(p, srcFile, lst, serverOriginBase+peer.Index, obs.Ctx{})
				fsys.net.Send(p, peer.Node, srv.Node, headerBytes+piece.Len)
				srv.Store.WriteMulti(p, df.file, lst, serverOriginBase+srv.Index, obs.Ctx{})
				if fsys.auditRebuild != nil {
					fsys.auditRebuild[peer.Index] += piece.Len
					fsys.auditRebuild[srv.Index] += piece.Len
				}
				fsys.tracker.copyApplied(peer.Index, srcFile, srv.Index, df.file, piece)
				copied += piece.Len
				// Background throttle: cap the copy rate so rebuild traffic
				// cannot starve foreground I/O.
				p.Sleep(time.Duration(float64(piece.Len) / rebuildBandwidth * float64(time.Second)))
			}
		}
	}
	fsys.rebuilding[server] = false
	if fsys.obs.Enabled() {
		fsys.obs.Instant("rebuild.end", "pfs", p.Now(),
			obs.I64("server", int64(server)), obs.I64("bytes", copied))
	}
}

// rebuildSource picks the live peer replica to copy from: any rank whose
// server is actually up (ground truth — the rebuilder is a server, not a
// client) and not itself mid-rebuild, else any up rank.
func (fsys *FileSystem) rebuildSource(primary, excludeRank int, now time.Duration) int {
	var fallback = -1
	for r := 0; r < fsys.replicas(); r++ {
		if r == excludeRank {
			continue
		}
		s := fsys.replicaServer(primary, r).Index
		if fsys.faults.Crashed(s, now) {
			continue
		}
		if !fsys.rebuilding[s] {
			return s
		}
		if fallback < 0 {
			fallback = s
		}
	}
	return fallback
}

// rankOn reports which replica rank of primary's stripes server holds.
func (fsys *FileSystem) rankOn(primary, server int) int {
	n := len(fsys.servers)
	for r, off := range fsys.offsets {
		if (primary+off)%n == server {
			return r
		}
	}
	return 0
}

// requeueRebuild returns unfinished work to the ledger after a mid-rebuild
// crash: the rest of the current extent, the current file's remaining
// extents, and every later file.
func (fsys *FileSystem) requeueRebuild(server int, cur dirtyFile, all []dirtyFile, off int64, e ext.Extent) {
	if off < e.End() {
		fsys.ledger.add(server, cur.file, []ext.Extent{{Off: off, Len: e.End() - off}})
	}
	seenCur := false
	for _, df := range all {
		if df.file == cur.file {
			seenCur = true
			past := false
			for _, x := range df.extents {
				if x == e {
					past = true
					continue
				}
				if past {
					fsys.ledger.add(server, df.file, []ext.Extent{x})
				}
			}
			continue
		}
		if seenCur {
			fsys.ledger.add(server, df.file, df.extents)
		}
	}
}
