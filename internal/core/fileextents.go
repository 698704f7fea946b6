package core

import (
	"slices"

	"dualpar/internal/ext"
)

// fileExtents is a per-file request list: files in first-seen order, each
// with its requests' extent slices in arrival order. It is CRM's wish
// list, each EMC-managed program's request log, and EMC's pooled slot
// sample. The slices are held by reference, never copied: a generator's
// op extents are immutable once returned (workloads.Op.Extents), and
// ext.Merger reads the lists in offset order without sorting them. A file
// is listed exactly when one of its requests has a non-empty extent.
type fileExtents struct {
	files  []string
	byFile map[string][][]ext.Extent
}

// add appends a reference to one request's extents unless none of them is
// non-empty.
func (fe *fileExtents) add(file string, extents []ext.Extent) {
	if slices.ContainsFunc(extents, func(e ext.Extent) bool { return e.Len > 0 }) {
		fe.put(file, extents)
	}
}

// addAll appends every file's requests of o, in o's file order.
func (fe *fileExtents) addAll(o *fileExtents) {
	for _, f := range o.files {
		fe.put(f, o.byFile[f]...)
	}
}

// put appends reqs to file's requests, listing the file if it had none.
func (fe *fileExtents) put(file string, reqs ...[]ext.Extent) {
	rs := fe.byFile[file]
	if len(rs) == 0 {
		if fe.byFile == nil {
			fe.byFile = make(map[string][][]ext.Extent)
		}
		fe.files = append(fe.files, file)
	}
	fe.byFile[file] = append(rs, reqs...)
}

// reset empties the list but keeps each file's key and slice capacity, so
// a request log or EMC's pool refills without regrowing every slot. It
// clears the references, so a recycled list keeps no request alive.
func (fe *fileExtents) reset() {
	for _, f := range fe.files {
		rs := fe.byFile[f]
		clear(rs)
		fe.byFile[f] = rs[:0]
	}
	fe.files = fe.files[:0]
}
