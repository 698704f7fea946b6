package pfs

import (
	"fmt"
	"sort"

	"dualpar/internal/ext"
)

// VerifyDurable is the audit coherence oracle: it checks that every byte of
// the given logical extents — typically the merged ranges a CRM writeback
// cycle just flushed — is durably stored with a version at least as new as
// the one the writers recorded. Two failure shapes surface:
//
//   - an expected-version gap (version 0): the write was marked clean in the
//     cache but never recorded against the file system — a dropped writeback;
//   - a stale or missing replica stamp: no replica of a stripe holds an
//     applied version >= the expected one — the durable state lags the
//     acknowledged write.
//
// The applied comparison is >= rather than ==: a racing writer's stamp can
// land on a replica before that writer's own recordExpected runs, so newer
// durable data is coherent, older is not. The walk is pure bookkeeping over
// the integrity tracker — no simulation events, so auditing does not perturb
// the timeline. It requires EnableIntegrity; with no tracker it reports
// nothing.
func (fsys *FileSystem) VerifyDurable(name string, extents []ext.Extent) error {
	if fsys.tracker == nil {
		return nil
	}
	var err error
	ext.VisitSplit(ext.Merge(extents), StripeUnit, func(piece ext.Extent) {
		if err == nil {
			err = fsys.verifyPiece(name, piece)
		}
	})
	return err
}

// verifyPiece is VerifyDurable over one piece that lies within a stripe.
func (fsys *FileSystem) verifyPiece(name string, piece ext.Extent) error {
	t := fsys.tracker
	primary, localBase := fsys.LocalOffset(piece.Off)
	for _, exp := range segsOver(t.Expected(name), piece) {
		if exp.Ver <= 0 {
			return fmt.Errorf("%s [%d,%d): %d bytes marked clean but never recorded as written",
				name, exp.Ext.Off, exp.Ext.End(), exp.Ext.Len)
		}
		// Best applied version per byte across the stripe's replicas,
		// in the servers' local coordinates.
		local := ext.Extent{Off: localBase + (exp.Ext.Off - piece.Off), Len: exp.Ext.Len}
		var best []VersionSeg
		for rank := 0; rank < fsys.replicas(); rank++ {
			srv := fsys.replicaServer(primary, rank)
			for _, s := range t.query(srv.Index, replicaFile(name, rank), local) {
				if s.Ver > 0 {
					best = overlaySegs(best, s.Ext, s.Ver, false)
				}
			}
		}
		cur := local.Off
		for _, b := range best {
			if b.Ext.Off > cur {
				break
			}
			if b.Ver < exp.Ver {
				return fmt.Errorf("%s [%d,%d): durable version %d older than expected %d on primary %d",
					name, exp.Ext.Off, exp.Ext.End(), b.Ver, exp.Ver, primary)
			}
			cur = b.Ext.End()
		}
		if cur < local.End() {
			return fmt.Errorf("%s [%d,%d): %d durable bytes missing on primary %d (expected version %d)",
				name, exp.Ext.Off, exp.Ext.End(), local.End()-cur, primary, exp.Ver)
		}
	}
	return nil
}

// segsOver returns the slices of a sorted seg list overlapping e, with
// uncovered gaps reported as version 0 (the same contract as Tracker.query,
// for an arbitrary seg list).
func segsOver(segs []VersionSeg, e ext.Extent) []VersionSeg {
	var out []VersionSeg
	cur := e.Off
	// The list is sorted and non-overlapping: binary-search the first
	// overlapping seg and stop at the first one past the extent.
	i := sort.Search(len(segs), func(i int) bool { return segs[i].Ext.End() > e.Off })
	for ; i < len(segs); i++ {
		s := segs[i]
		if s.Ext.Off >= e.End() {
			break
		}
		off := max(s.Ext.Off, e.Off)
		end := min(s.Ext.End(), e.End())
		if off > cur {
			out = append(out, VersionSeg{Ext: ext.Extent{Off: cur, Len: off - cur}})
		}
		out = append(out, VersionSeg{Ext: ext.Extent{Off: off, Len: end - off}, Ver: s.Ver})
		cur = end
	}
	if cur < e.End() {
		out = append(out, VersionSeg{Ext: ext.Extent{Off: cur, Len: e.End() - cur}})
	}
	return out
}
