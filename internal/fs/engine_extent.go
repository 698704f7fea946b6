package fs

import (
	"fmt"

	"dualpar/internal/disk"
)

// extentEngine is the contiguous-extent allocator carved out of the
// original Store: a growing file claims AllocUnitBytes of contiguous LBN
// space at a time from a single upward cursor, adjacent allocations merge,
// and a fileGapBytes hole separates different files' regions. Reads and
// writes resolve through a flat per-file extent slice; writes are update
// in place. Behavior is bit-for-bit the pre-engine Store's (pinned by the
// baseline-guard goldens).
type extentEngine struct {
	cfg   Config
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
	name    string
	size    int64 // bytes allocated (high-water of writes/creates)
	extents []extent
}

func newExtentEngine(cfg Config) *extentEngine {
	return &extentEngine{cfg: cfg, files: make(map[string]*fileMeta)}
}

func (e *extentEngine) Kind() string { return EngineExtent }

// file looks a file up, creating it (and leaving the inter-file gap) on
// first touch.
func (e *extentEngine) file(name string) *fileMeta {
	f := e.files[name]
	if f == nil {
		f = &fileMeta{name: name}
		e.files[name] = f
		// Leave a gap before a new file's region.
		e.nexts += fileGapBytes / disk.SectorSize
	}
	return f
}

func (e *extentEngine) Open(file string) { e.file(file) }

func (e *extentEngine) Ensure(file string, size int64) {
	e.ensureAllocated(e.file(file), size)
}

func (e *extentEngine) AllocatedSize(file string) int64 {
	if f, ok := e.files[file]; ok {
		return f.size
	}
	return 0
}

// ensureAllocated extends f's extents to cover [0, size).
func (e *extentEngine) ensureAllocated(f *fileMeta, size int64) {
	for f.size < size {
		need := size - f.size
		unit := e.cfg.AllocUnitBytes
		if need > unit {
			unit = (need + e.cfg.AllocUnitBytes - 1) / e.cfg.AllocUnitBytes * e.cfg.AllocUnitBytes
		}
		sectors := unit / disk.SectorSize
		// Merge with the previous extent when the allocation is adjacent
		// (no other file claimed space in between).
		if n := len(f.extents); n > 0 {
			last := &f.extents[n-1]
			if last.lbn+last.bytes/disk.SectorSize == e.nexts {
				last.bytes += unit
				f.size += unit
				e.nexts += sectors
				continue
			}
		}
		f.extents = append(f.extents, extent{fileOff: f.size, lbn: e.nexts, bytes: unit})
		f.size += unit
		e.nexts += sectors
	}
}

// appendRuns maps the byte range [off, off+n) of file f to contiguous LBN
// runs, appending them to out.
func (f *fileMeta) appendRuns(out []lbnRun, off, n int64) []lbnRun {
	end := off + n
	for _, e := range f.extents {
		eEnd := e.fileOff + e.bytes
		if eEnd <= off || e.fileOff >= end {
			continue
		}
		lo, hi := off, end
		if lo < e.fileOff {
			lo = e.fileOff
		}
		if hi > eEnd {
			hi = eEnd
		}
		out = append(out, lbnRun{
			lbn:   e.lbn + (lo-e.fileOff)/disk.SectorSize,
			bytes: hi - lo,
		})
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
	for _, x := range f.extents {
		if x.fileOff <= off && off < x.fileOff+x.bytes {
			return x, true
		}
	}
	return extent{}, false
}

// CheckInvariants verifies the flat extent maps are self-consistent: each
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
				return fmt.Errorf("extent engine: file %s extent at %d, want contiguous at %d", name, x.fileOff, next)
			}
			if x.bytes <= 0 || x.bytes%disk.SectorSize != 0 {
				return fmt.Errorf("extent engine: file %s extent bytes %d", name, x.bytes)
			}
			covered += x.bytes
			next = x.fileOff + x.bytes
			spans = append(spans, span{lo: x.lbn, hi: x.lbn + x.bytes/disk.SectorSize, file: name})
		}
		if covered != f.size {
			return fmt.Errorf("extent engine: file %s extents cover %d bytes, size %d", name, covered, f.size)
		}
	}
	// O(n^2) overlap walk is fine: files hold a handful of extents.
	for i := range spans {
		for j := i + 1; j < len(spans); j++ {
			if spans[i].lo < spans[j].hi && spans[j].lo < spans[i].hi {
				return fmt.Errorf("extent engine: LBN overlap between %s [%d,%d) and %s [%d,%d)",
					spans[i].file, spans[i].lo, spans[i].hi, spans[j].file, spans[j].lo, spans[j].hi)
			}
		}
	}
	return nil
}
