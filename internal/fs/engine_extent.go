package fs

import (
	"cmp"
	"fmt"
	"slices"

	"dualpar/internal/disk"
)

// extentEngine is the update-in-place layout behind both the extent and
// the bptree engines. A growing file claims unit bytes of LBN space per
// step from a single upward cursor, the cursor skips gap bytes after each
// step, and a step adjacent on disk to the file's previous extent merges
// into it; a fileGapBytes hole separates different files' regions. Reads
// and writes resolve through one sorted per-file extent slice with a
// binary-search lookup; writes are update in place.
//
// The extent engine (unit AllocUnitBytes, no gap) is the contiguous
// allocator the paper's data servers model: steps always merge unless
// another file claimed space in between. The bptree engine keeps its name
// for output compatibility and models an aged file system: small steps
// (AllocUnitBytes/128, page-rounded), each followed by a gap wide enough
// to defeat the disk's forward-skip window, so no two steps merge, a
// file's data is scattered forward across the LBN space, and every
// fragment boundary costs a real head repositioning.
type extentEngine struct {
	kind  string
	unit  int64 // bytes claimed per allocation step
	gap   int64 // dead bytes the cursor skips after each step
	files map[string]*fileMeta
	nexts int64 // next free sector for allocation
}

// extent maps a contiguous file range to contiguous LBNs.
type extent struct {
	fileOff int64 // byte offset in the (server-local) file
	lbn     int64
	bytes   int64
}

type fileMeta struct {
	size    int64    // bytes allocated (high-water of writes/creates)
	extents []extent // contiguous in file space, in file order
}

func newExtentEngine(cfg Config) *extentEngine {
	return &extentEngine{kind: EngineExtent, unit: cfg.AllocUnitBytes, files: make(map[string]*fileMeta)}
}

// newAgedEngine builds the fragmenting layout the bptree engine names.
func newAgedEngine(cfg Config) *extentEngine {
	e := newExtentEngine(cfg)
	e.kind = EngineBPTree
	e.unit = max((cfg.AllocUnitBytes/128+pageSize-1)/pageSize*pageSize, pageSize)
	// The gap must exceed the disk's streamed forward-skip window (256 KB
	// on the default geometry) or sequential scans would glide over it.
	e.gap = max(cfg.AllocUnitBytes/16, 8*e.unit)
	return e
}

func (e *extentEngine) Kind() string { return e.kind }

// file looks a file up, creating it (and leaving the inter-file gap) on
// first touch.
func (e *extentEngine) file(name string) *fileMeta {
	f := e.files[name]
	if f == nil {
		f = &fileMeta{}
		e.files[name] = f
		// Leave a gap before a new file's region.
		e.nexts += fileGapBytes / disk.SectorSize
	}
	return f
}

func (e *extentEngine) Open(file string) { e.file(file) }

// Ensure extends file's extents to cover [0, size), one step at a time.
func (e *extentEngine) Ensure(file string, size int64) {
	f := e.file(file)
	for f.size < size {
		if n := len(f.extents); n > 0 && f.extents[n-1].lbn+f.extents[n-1].bytes/disk.SectorSize == e.nexts {
			f.extents[n-1].bytes += e.unit
		} else {
			f.extents = append(f.extents, extent{fileOff: f.size, lbn: e.nexts, bytes: e.unit})
		}
		f.size += e.unit
		e.nexts += (e.unit + e.gap) / disk.SectorSize
	}
}

func (e *extentEngine) AllocatedSize(file string) int64 {
	if f, ok := e.files[file]; ok {
		return f.size
	}
	return 0
}

// find returns the index of the first extent of f ending past off: the
// extent holding off when off is allocated, len(f.extents) past the end.
func (f *fileMeta) find(off int64) int {
	lo, hi := 0, len(f.extents)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if x := &f.extents[m]; x.fileOff+x.bytes <= off {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// appendRuns maps the byte range [off, off+n) of file f to contiguous LBN
// runs, one per extent it overlaps, appending them to out.
func (f *fileMeta) appendRuns(out []lbnRun, off, n int64) []lbnRun {
	end := off + n
	for i := f.find(off); i < len(f.extents) && f.extents[i].fileOff < end; i++ {
		x := &f.extents[i]
		lo, hi := max(off, x.fileOff), min(end, x.fileOff+x.bytes)
		out = append(out, lbnRun{lbn: x.lbn + (lo-x.fileOff)/disk.SectorSize, bytes: hi - lo})
	}
	return out
}

func (e *extentEngine) ReadRuns(out []lbnRun, file string, off, n int64) []lbnRun {
	return e.file(file).appendRuns(out, off, n)
}

// WriteRuns: update in place — writes land exactly where reads look.
func (e *extentEngine) WriteRuns(out []lbnRun, file string, off, n int64) []lbnRun {
	return e.ReadRuns(out, file, off, n)
}

// locate returns the extent of file containing byte offset off.
func (e *extentEngine) locate(file string, off int64) (extent, bool) {
	f, ok := e.files[file]
	if !ok {
		return extent{}, false
	}
	if i := f.find(off); i < len(f.extents) && f.extents[i].fileOff <= off {
		return f.extents[i], true
	}
	return extent{}, false
}

// CheckInvariants verifies the extent maps are self-consistent: each
// file's extents are contiguous in file space, sum to its allocated size,
// and no two extents of any files overlap in LBN space.
func (e *extentEngine) CheckInvariants() error {
	type span struct {
		lo, hi int64
		file   string
	}
	var spans []span
	for name, f := range e.files {
		var covered, next int64
		for _, x := range f.extents {
			if x.fileOff != next {
				return fmt.Errorf("%s engine: file %s extent at %d, want contiguous at %d", e.kind, name, x.fileOff, next)
			}
			if x.bytes <= 0 || x.bytes%disk.SectorSize != 0 {
				return fmt.Errorf("%s engine: file %s extent bytes %d", e.kind, name, x.bytes)
			}
			covered += x.bytes
			next = x.fileOff + x.bytes
			spans = append(spans, span{lo: x.lbn, hi: x.lbn + x.bytes/disk.SectorSize, file: name})
		}
		if covered != f.size {
			return fmt.Errorf("%s engine: file %s extents cover %d bytes, size %d", e.kind, name, covered, f.size)
		}
	}
	// Sorted by start, nonempty spans overlap somewhere only if some
	// neighbouring pair does. An aged file holds thousands of extents.
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if a, b := spans[i-1], spans[i]; b.lo < a.hi {
			return fmt.Errorf("%s engine: LBN overlap between %s [%d,%d) and %s [%d,%d)",
				e.kind, a.file, a.lo, a.hi, b.file, b.lo, b.hi)
		}
	}
	return nil
}
