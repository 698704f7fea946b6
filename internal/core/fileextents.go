package core

import "dualpar/internal/ext"

// fileExtents is a per-file extent list: files in first-seen order, each
// with its non-empty extents in arrival order. It is CRM's wish list, each
// EMC-managed program's request log, and EMC's pooled slot sample. A file
// is listed exactly when its extent list is non-empty.
type fileExtents struct {
	files  []string
	byFile map[string][]ext.Extent
}

// add appends file's non-empty extents.
func (fe *fileExtents) add(file string, extents []ext.Extent) {
	xs := fe.byFile[file]
	n := len(xs)
	for _, e := range extents {
		if e.Len > 0 {
			xs = append(xs, e)
		}
	}
	if len(xs) == n {
		return
	}
	if n == 0 {
		if fe.byFile == nil {
			fe.byFile = make(map[string][]ext.Extent)
		}
		fe.files = append(fe.files, file)
	}
	fe.byFile[file] = xs
}

// addAll appends every file's extents of o, in o's file order.
func (fe *fileExtents) addAll(o *fileExtents) {
	for _, f := range o.files {
		fe.add(f, o.byFile[f])
	}
}

// reset empties the list but keeps each file's key and slice capacity, so
// a request log or EMC's pool refills without regrowing every slot. Only
// reset lists whose extent slices nothing else holds.
func (fe *fileExtents) reset() {
	for _, f := range fe.files {
		fe.byFile[f] = fe.byFile[f][:0]
	}
	fe.files = fe.files[:0]
}
