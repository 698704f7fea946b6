package fs

import "dualpar/internal/sim"

// Engine names, for Config.Engine.
const (
	// EngineExtent is the contiguous-extent allocator the paper's data
	// servers model (update-in-place, allocation-unit extents, inter-file
	// gaps). The default; "" selects it too.
	EngineExtent = "extent"
	// EngineBPTree is the aged layout: the extent engine's map with an
	// allocator that deliberately fragments files into small, gapped
	// extents, modeling an aged file system whose free space is scattered.
	// The name, from the B+tree index the layout once had, stays the
	// selector and printed label for output compatibility.
	EngineBPTree = "bptree"
	// EngineLSM is a log-structured store: writebacks append sequentially
	// to the head of a segmented log and a background compactor rewrites
	// fragmented segments at a throttled disk rate. Reads of overwritten
	// data chase pages into the log.
	EngineLSM = "lsm"
)

// Engines lists the selectable storage engines in canonical order.
func Engines() []string { return []string{EngineExtent, EngineBPTree, EngineLSM} }

// validEngine reports whether name selects a known engine ("" = default).
func validEngine(name string) bool {
	switch name {
	case "", EngineExtent, EngineBPTree, EngineLSM:
		return true
	}
	return false
}

// A StorageEngine decides where file bytes live in the device's LBN space:
// how layout is allocated, where reads find data, and where writes land.
// The Store above it owns everything engine-independent — the page cache,
// the dirty-page throttle, the flusher, and the block-layer dispatcher —
// and consults the engine exactly where the old hard-wired extent allocator
// sat, so engines see identical request streams and differ only in layout
// and background traffic.
//
// Engines are driven from simulation Procs (single-threaded between parks)
// and need no locking.
type StorageEngine interface {
	// Kind returns the engine name (one of the Engine* constants).
	Kind() string
	// Open touches a file, applying first-touch layout side effects (the
	// inter-file allocation gap) without growing it.
	Open(file string)
	// Ensure grows file's layout to cover [0, size). Reading unwritten
	// space still has layout, so the read path calls it too.
	Ensure(file string, size int64)
	// AllocatedSize reports the bytes of layout allocated to file (its
	// high-water mark rounded up to allocation granularity; 0 if absent).
	// It must not create the file.
	AllocatedSize(file string) int64
	// ReadRuns appends the contiguous LBN runs currently holding
	// [off, off+n) of file to out (callers pass a reusable scratch slice).
	ReadRuns(out []lbnRun, file string, off, n int64) []lbnRun
	// WriteRuns appends the LBN runs a write of [off, off+n) occupies and
	// commits any relocation (a log-structured engine assigns fresh
	// tail-of-log locations here; update-in-place engines return the same
	// runs as ReadRuns). The store calls it at data-reaching-disk time:
	// sync writes and writeback, never on dirtying a cache page.
	WriteRuns(out []lbnRun, file string, off, n int64) []lbnRun
	// CheckInvariants is the engine's audit oracle: layout bookkeeping
	// must be self-consistent (extent maps contiguous and non-overlapping,
	// log byte ledgers conserve). Wired as a final audit probe per store.
	CheckInvariants() error
}

// engineIO is the slice of Store a background engine may drive: submitting
// device traffic through the store's dispatcher (so the elevator, audit
// ledgers, and disk stats all see it) from its own Proc.
type engineIO interface {
	engineSubmit(p *sim.Proc, runs []lbnRun, write bool)
}

// backgroundEngine is implemented by engines that run background work
// (LSM compaction). start is called once from Store.New.
type backgroundEngine interface {
	start(k *sim.Kernel, name string, io engineIO)
}

// newEngine builds the engine Config.Engine selects. Config is validated
// before this runs, so unknown names are unreachable.
func newEngine(cfg Config) StorageEngine {
	switch cfg.Engine {
	case "", EngineExtent:
		return newExtentEngine(cfg)
	case EngineBPTree:
		return newAgedEngine(cfg)
	case EngineLSM:
		return newLSMEngine(cfg)
	}
	panic("fs: unknown engine " + cfg.Engine)
}
