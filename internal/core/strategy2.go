package core

import (
	"fmt"
	"time"

	"dualpar/internal/ext"
	"dualpar/internal/obs"
	"dualpar/internal/sim"
	"dualpar/internal/workloads"
)

// strategy2 implements the paper's Strategy 2 baseline (§II):
// application-level prefetching by pre-execution with the computation
// stripped out, issuing each prefetch request to the data servers
// immediately after it is generated, aiming to hide I/O behind computation.
// Requests reach the servers in per-process order with gaps — exactly the
// stream the disk scheduler struggles to sort (Fig 1c).
type strategy2 struct {
	pr       *ProgramRun
	issued   []int64 // per rank
	consumed []int64 // per rank
	moved    sim.Signal
}

func newStrategy2(pr *ProgramRun) *strategy2 {
	n := pr.prog.Ranks()
	return &strategy2{
		pr:       pr,
		issued:   make([]int64, n),
		consumed: make([]int64, n),
	}
}

// start launches one prefetcher per rank.
func (s *strategy2) start() {
	k := s.pr.r.cl.K
	for rank := 0; rank < s.pr.prog.Ranks(); rank++ {
		rank := rank
		k.Spawn(fmt.Sprintf("prog%d/s2-prefetch%d", s.pr.id, rank), func(p *sim.Proc) {
			s.prefetchLoop(p, rank)
		})
	}
}

// prefetchLoop replays the rank's generator, skipping computation,
// synchronization, and writes, and issuing each read immediately. It stays
// at most its share of WindowBytes ahead of the rank's own consumption.
func (s *strategy2) prefetchLoop(p *sim.Proc, rank int) {
	gen := s.pr.prog.NewRank(rank)
	env := workloads.TrueEnv{}
	node := s.pr.world.Node(rank)
	cl := s.pr.r.cl.FS.Client(node)
	// A request larger than the window still goes out (the check precedes
	// the increment), so even a tiny window cannot deadlock the prefetcher.
	window := s.pr.r.cfg.Strategy2WindowBytes / int64(s.pr.prog.Ranks())
	for {
		op := gen.Next(env)
		switch op.Kind {
		case workloads.OpDone:
			return
		case workloads.OpRead:
			// Each prefetch request goes out individually and
			// *non-blockingly*, immediately after it is generated (§II,
			// following the pre-execution prefetching of refs [5,7]):
			// Strategy 2 makes no attempt to batch or reorder, which is why
			// its request stream is no better sorted than the
			// computation-driven one (Fig 1c). The window caps how far
			// issuance runs ahead of consumption.
			for _, e := range op.Extents {
				for s.issued[rank]-s.consumed[rank] > window {
					s.moved.Wait(p)
				}
				e := e
				file := op.File
				s.issued[rank] += e.Len
				s.pr.r.cl.K.Spawn(fmt.Sprintf("prog%d/s2-req%d", s.pr.id, rank), func(rp *sim.Proc) {
					one := []ext.Extent{e}
					var rc obs.Ctx
					if o := s.pr.obs(); o.Enabled() {
						rc = o.StartRequest(fmt.Sprintf("prog%d/s2/rank%d", s.pr.id, rank))
					}
					start := rp.Now()
					endSpan := func() {
						if rc.Traced() {
							s.pr.obs().Span(rc.ID, obs.StageRequest, rc.Track, start, rp.Now(),
								obs.Str("verb", "s2-prefetch"), obs.I64("bytes", e.Len))
						}
					}
					err := cl.Read(rp, file, one, s.pr.origins[rank], rc)
					if err != nil {
						// A failed prefetch must not seed the cache; the
						// consumer's own read will surface the error.
						endSpan()
						s.pr.fail(err)
						return
					}
					// The cache insertion belongs to the prefetch request, so
					// the span closes after it (its StageCache child must nest).
					s.pr.cache.PutClean(rp, node, rc, file, one)
					endSpan()
				})
				// Issuing itself is not free: the pre-execution thread
				// spends a moment per request.
				p.Sleep(20 * time.Microsecond)
			}
		case workloads.OpCompute, workloads.OpWrite, workloads.OpBarrier:
			// Computation is excluded from the pre-execution (§II cites
			// [5]); writes and synchronization produce no prefetches.
		}
	}
}

// noteConsumed advances a rank's consumption watermark.
func (s *strategy2) noteConsumed(rank int, bytes int64) {
	s.consumed[rank] += bytes
	s.moved.Broadcast()
}

// read serves a main-process read: cache hits are free of server traffic;
// misses fall through to vanilla synchronous requests.
func (s *strategy2) read(p *sim.Proc, rank int, op workloads.Op) {
	start := p.Now()
	node := s.pr.world.Node(rank)
	rc := s.pr.rankRequest(rank)
	endSpan := func(outcome string) {
		if rc.Traced() {
			s.pr.obs().Span(rc.ID, obs.StageRequest, rc.Track, start, p.Now(),
				obs.Str("verb", "s2-read"), obs.I64("bytes", op.Bytes()),
				obs.Str("outcome", outcome))
		}
	}
	missing := s.pr.cache.Get(p, node, rc, op.File, s.pr.miss[rank], op.Extents...)
	s.pr.miss[rank] = missing
	s.noteConsumed(rank, op.Bytes())
	if len(missing) == 0 {
		s.pr.instr.Span(rank, start, p.Now(), op.Bytes())
		endSpan("cache")
		return
	}
	// The cache-served portion is accounted here; ReadExtents accounts the
	// bytes it fetches itself. The s2-read span closes before ReadExtents
	// opens its own request on the same track.
	s.pr.instr.Span(rank, start, p.Now(), op.Bytes()-ext.Total(missing))
	endSpan("fallback")
	s.pr.file(op.File).ReadExtents(p, rank, missing)
}
