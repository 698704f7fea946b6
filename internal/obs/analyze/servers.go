package analyze

import (
	"sort"
	"time"

	"dualpar/internal/obs"
)

// serverUtilization builds per-server busy/idle decompositions and bucketed
// timelines from StageDisk spans. Untraced spans (background flusher
// writebacks) count too: the device was busy regardless of who asked.
func serverUtilization(spans []obs.Span, horizon time.Duration, buckets int) ([]ServerUtil, time.Duration) {
	byServer := make(map[string][]obs.Span)
	var names []string
	for _, s := range spans {
		if s.Stage != obs.StageDisk {
			continue
		}
		name := obs.ProcessOf(s.Track)
		if _, ok := byServer[name]; !ok {
			names = append(names, name)
		}
		byServer[name] = append(byServer[name], s)
	}
	sort.Strings(names)

	var bucketDur time.Duration
	if horizon > 0 && buckets > 0 {
		bucketDur = (horizon + time.Duration(buckets) - 1) / time.Duration(buckets)
	}

	out := make([]ServerUtil, 0, len(names))
	for _, name := range names {
		su := ServerUtil{Name: name}
		var timeline []UtilBucket
		if bucketDur > 0 {
			timeline = make([]UtilBucket, buckets)
			for i := range timeline {
				timeline[i].Start = time.Duration(i) * bucketDur
			}
		}
		for _, s := range byServer[name] {
			su.Spans++
			su.Busy += s.End - s.Start
			for _, iv := range diskIntervals(s) {
				d := iv.hi - iv.lo
				switch iv.phase {
				case PhaseOverhead:
					su.Overhead += d
				case PhaseSeek:
					su.Seek += d
				case PhaseRotation:
					su.Rotation += d
				case PhaseTransfer:
					su.Transfer += d
				}
				spreadBuckets(timeline, bucketDur, iv)
			}
		}
		if horizon > su.Busy {
			su.Idle = horizon - su.Busy
		}
		if horizon > 0 {
			su.Util = float64(su.Busy) / float64(horizon)
		}
		for i := range timeline {
			end := timeline[i].Start + bucketDur
			if end > horizon {
				end = horizon
			}
			if width := end - timeline[i].Start; width > timeline[i].Busy {
				timeline[i].Idle = width - timeline[i].Busy
			}
		}
		su.Timeline = timeline
		out = append(out, su)
	}
	return out, bucketDur
}

// spreadBuckets distributes one phase interval across the bucketed timeline.
func spreadBuckets(timeline []UtilBucket, bucketDur time.Duration, iv interval) {
	if bucketDur <= 0 || len(timeline) == 0 {
		return
	}
	first := int(iv.lo / bucketDur)
	for i := first; i < len(timeline); i++ {
		bLo := time.Duration(i) * bucketDur
		bHi := bLo + bucketDur
		if bLo >= iv.hi {
			break
		}
		lo, hi := iv.lo, iv.hi
		if lo < bLo {
			lo = bLo
		}
		if hi > bHi {
			hi = bHi
		}
		if hi <= lo {
			continue
		}
		d := hi - lo
		timeline[i].Busy += d
		switch iv.phase {
		case PhaseSeek:
			timeline[i].Seek += d
		case PhaseRotation:
			timeline[i].Rotation += d
		case PhaseTransfer:
			timeline[i].Transfer += d
		}
	}
}
