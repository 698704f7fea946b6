package fs

import (
	"fmt"

	"dualpar/internal/disk"
)

// bptreeEngine is an index-organized layout modeling an aged file system:
// allocation hands out deliberately small extents (AllocUnitBytes/128,
// page-rounded) and leaves a dead gap after every one wide enough to
// defeat the disk's forward-skip window, so a file's data is scattered
// forward across the LBN space and every fragment boundary costs a real
// head repositioning (seek + rotation). The file-offset → extent map lives
// in a B+tree (logarithmic range lookup); a flat sorted mirror of every
// insertion is kept alongside, and the audit oracle replays the tree
// against it — B+tree lookups and the flat map must agree exactly.
type bptreeEngine struct {
	cfg      Config
	files    map[string]*bptFile
	nexts    int64 // next free sector for allocation
	fragUnit int64 // allocation granularity, bytes
	fragGap  int64 // dead space after every allocation, bytes
}

type bptFile struct {
	name string
	size int64
	tree *bptree
	// shadow mirrors every extent insertion in file-offset order — the
	// equivalence oracle's flat source of truth.
	shadow []extent
}

func newBPTreeEngine(cfg Config) *bptreeEngine {
	unit := cfg.AllocUnitBytes / 128
	unit = (unit + pageSize - 1) / pageSize * pageSize
	if unit < pageSize {
		unit = pageSize
	}
	// The gap must exceed the disk's streamed forward-skip window (256 KB
	// on the default geometry) or sequential scans would glide over it.
	gap := cfg.AllocUnitBytes / 16
	if gap < 8*unit {
		gap = 8 * unit
	}
	return &bptreeEngine{
		cfg:      cfg,
		files:    make(map[string]*bptFile),
		fragUnit: unit,
		fragGap:  gap,
	}
}

func (e *bptreeEngine) Kind() string { return EngineBPTree }

func (e *bptreeEngine) file(name string) *bptFile {
	f := e.files[name]
	if f == nil {
		f = &bptFile{name: name, tree: newBptree()}
		e.files[name] = f
		e.nexts += fileGapBytes / disk.SectorSize
	}
	return f
}

func (e *bptreeEngine) Open(file string) { e.file(file) }

func (e *bptreeEngine) Ensure(file string, size int64) {
	f := e.file(file)
	for f.size < size {
		unit := e.fragUnit
		x := extent{fileOff: f.size, lbn: e.nexts, bytes: unit}
		f.tree.insert(x)
		f.shadow = append(f.shadow, x)
		f.size += unit
		// Never merge: burn the gap so the next extent is discontiguous,
		// like free space on an aged FS.
		e.nexts += (unit + e.fragGap) / disk.SectorSize
	}
}

func (e *bptreeEngine) AllocatedSize(file string) int64 {
	if f, ok := e.files[file]; ok {
		return f.size
	}
	return 0
}

func (e *bptreeEngine) ReadRuns(out []lbnRun, file string, off, n int64) []lbnRun {
	f := e.file(file)
	end := off + n
	f.tree.visitRange(off, end, func(x extent) {
		lo, hi := off, end
		if lo < x.fileOff {
			lo = x.fileOff
		}
		if hi > x.fileOff+x.bytes {
			hi = x.fileOff + x.bytes
		}
		if hi <= lo {
			return
		}
		run := lbnRun{lbn: x.lbn + (lo-x.fileOff)/disk.SectorSize, bytes: hi - lo}
		// Adjacent file offsets are discontiguous on disk by construction,
		// so runs never merge across extents.
		out = append(out, run)
	})
	return out
}

// WriteRuns: update in place, like the extent engine — only the lookup
// path (tree vs flat scan) and the layout differ.
func (e *bptreeEngine) WriteRuns(out []lbnRun, file string, off, n int64) []lbnRun {
	return e.ReadRuns(out, file, off, n)
}

// CheckInvariants replays the B+tree against the flat shadow map: an
// in-order walk must yield exactly the shadow, and a point lookup through
// the tree must agree with a linear scan for every extent boundary.
func (e *bptreeEngine) CheckInvariants() error {
	for name, f := range e.files {
		var walked []extent
		f.tree.visitRange(0, f.size+1, func(x extent) { walked = append(walked, x) })
		if len(walked) != len(f.shadow) {
			return fmt.Errorf("bptree engine: file %s tree walk has %d extents, flat map %d", name, len(walked), len(f.shadow))
		}
		var covered int64
		for i, x := range walked {
			if x != f.shadow[i] {
				return fmt.Errorf("bptree engine: file %s extent %d diverges: tree %+v flat %+v", name, i, x, f.shadow[i])
			}
			if i > 0 && x.fileOff != f.shadow[i-1].fileOff+f.shadow[i-1].bytes {
				return fmt.Errorf("bptree engine: file %s extent %d not contiguous in file space", name, i)
			}
			covered += x.bytes
		}
		if covered != f.size {
			return fmt.Errorf("bptree engine: file %s extents cover %d bytes, size %d", name, covered, f.size)
		}
		if err := f.tree.check(); err != nil {
			return fmt.Errorf("bptree engine: file %s: %w", name, err)
		}
	}
	return nil
}

// --- B+tree over fileOff → extent ---

// bptOrder is the fan-out: max keys per node. Small enough that splits are
// exercised by ordinary workloads, large enough to stay shallow.
const bptOrder = 16

// bptNode is a node of the tree. Leaves hold extents (keys mirror
// exts[i].fileOff) and chain through next; internal nodes hold separator
// keys with len(kids) == len(keys)+1.
type bptNode struct {
	leaf bool
	keys []int64
	kids []*bptNode // internal only
	exts []extent   // leaf only
	next *bptNode   // leaf chain for range scans
}

type bptree struct {
	root   *bptNode
	height int
}

func newBptree() *bptree {
	return &bptree{root: &bptNode{leaf: true}, height: 1}
}

// insert adds an extent keyed by its fileOff. Extents are inserted with
// strictly increasing, non-overlapping file offsets (the allocator's
// contract), but insert handles arbitrary key order for generality.
func (t *bptree) insert(x extent) {
	mid, right := t.root.insert(x)
	if right != nil {
		t.root = &bptNode{keys: []int64{mid}, kids: []*bptNode{t.root, right}}
		t.height++
	}
}

// insert descends to a leaf; on overflow the node splits and returns the
// separator key plus the new right sibling for the parent to absorb.
func (n *bptNode) insert(x extent) (int64, *bptNode) {
	if n.leaf {
		i := lowerBound(n.keys, x.fileOff)
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = x.fileOff
		n.exts = append(n.exts, extent{})
		copy(n.exts[i+1:], n.exts[i:])
		n.exts[i] = x
		if len(n.keys) <= bptOrder {
			return 0, nil
		}
		h := len(n.keys) / 2
		right := &bptNode{leaf: true, keys: append([]int64(nil), n.keys[h:]...), exts: append([]extent(nil), n.exts[h:]...), next: n.next}
		n.keys, n.exts, n.next = n.keys[:h:h], n.exts[:h:h], right
		return right.keys[0], right
	}
	i := upperBound(n.keys, x.fileOff)
	mid, right := n.kids[i].insert(x)
	if right == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[i+1:], n.keys[i:])
	n.keys[i] = mid
	n.kids = append(n.kids, nil)
	copy(n.kids[i+2:], n.kids[i+1:])
	n.kids[i+1] = right
	if len(n.keys) <= bptOrder {
		return 0, nil
	}
	h := len(n.keys) / 2
	sep := n.keys[h]
	rightN := &bptNode{keys: append([]int64(nil), n.keys[h+1:]...), kids: append([]*bptNode(nil), n.kids[h+1:]...)}
	n.keys, n.kids = n.keys[:h:h], n.kids[:h+1:h+1]
	return sep, rightN
}

// visitRange calls fn for every extent overlapping [off, end), in file
// order: descend to the leaf that could hold off, then walk the chain.
func (t *bptree) visitRange(off, end int64, fn func(extent)) {
	n := t.root
	for !n.leaf {
		n = n.kids[upperBound(n.keys, off)]
	}
	for ; n != nil; n = n.next {
		for _, x := range n.exts {
			if x.fileOff >= end {
				return
			}
			if x.fileOff+x.bytes <= off {
				continue
			}
			fn(x)
		}
	}
}

// check verifies structural invariants: sorted keys, balanced height,
// separator ordering, and the leaf chain covering every leaf.
func (t *bptree) check() error {
	var depth func(n *bptNode, d int, lo, hi int64) (int, error)
	depth = func(n *bptNode, d int, lo, hi int64) (int, error) {
		for i, k := range n.keys {
			if i > 0 && n.keys[i-1] >= k {
				return 0, fmt.Errorf("keys out of order at depth %d", d)
			}
			if k < lo || k >= hi {
				return 0, fmt.Errorf("key %d outside separator bounds [%d,%d)", k, lo, hi)
			}
		}
		if n.leaf {
			if len(n.exts) != len(n.keys) {
				return 0, fmt.Errorf("leaf with %d keys, %d extents", len(n.keys), len(n.exts))
			}
			return d, nil
		}
		if len(n.kids) != len(n.keys)+1 {
			return 0, fmt.Errorf("internal node with %d keys, %d kids", len(n.keys), len(n.kids))
		}
		want := -1
		for i, kid := range n.kids {
			klo, khi := lo, hi
			if i > 0 {
				klo = n.keys[i-1]
			}
			if i < len(n.keys) {
				khi = n.keys[i]
			}
			got, err := depth(kid, d+1, klo, khi)
			if err != nil {
				return 0, err
			}
			if want == -1 {
				want = got
			} else if got != want {
				return 0, fmt.Errorf("unbalanced: leaf depths %d and %d", want, got)
			}
		}
		return want, nil
	}
	const maxKey = int64(1) << 62
	d, err := depth(t.root, 1, -maxKey, maxKey)
	if err != nil {
		return err
	}
	if d != t.height {
		return fmt.Errorf("height %d, leaves at depth %d", t.height, d)
	}
	return nil
}

// lowerBound returns the first index i with keys[i] >= k.
func lowerBound(keys []int64, k int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := (lo + hi) / 2
		if keys[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// upperBound returns the first index i with keys[i] > k — the child to
// descend into for key k.
func upperBound(keys []int64, k int64) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		m := (lo + hi) / 2
		if keys[m] <= k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}
