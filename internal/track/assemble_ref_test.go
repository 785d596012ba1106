package track

// The gather-and-sort track assembly that served requests before the index
// kept a sighting timeline, preserved as the oracle for the timeline path:
// gather every member of the given records inside the window, sort by
// (frame, object, cluster), drop duplicates, associate. It shares only the
// association primitive (matchPrev) with Assemble; how the sighting
// sequence is obtained, how tracks are stored and how the dominant cluster
// is counted are all independent.

import (
	"cmp"
	"slices"

	"focus/internal/index"
	"focus/internal/video"
)

// sealedClustersRef is the record selection the old path assembled from:
// the records visible at the watermark that overlap the window, ascending
// by ID, capped at maxClusters.
func sealedClustersRef(ix *index.Index, startSec, endSec, maxSealSec float64, maxClusters int) []*index.ClusterRecord {
	var out []*index.ClusterRecord
	for _, rec := range ix.ClustersSealedBy(maxSealSec) {
		if maxClusters > 0 && len(out) >= maxClusters {
			break
		}
		if endSec > 0 && rec.MinTime > endSec || rec.MaxTime < startSec {
			continue
		}
		out = append(out, rec)
	}
	return out
}

func assembleRef(recs []*index.ClusterRecord, startSec, endSec float64) []*Track {
	total := 0
	for _, rec := range recs {
		total += len(rec.Members)
	}
	all := make([]Sighting, 0, total)
	for _, rec := range recs {
		for i := range rec.Members {
			m := &rec.Members[i]
			if m.TimeSec < startSec {
				continue
			}
			if endSec > 0 && m.TimeSec > endSec {
				continue
			}
			all = append(all, Sighting{
				Frame:   m.Frame,
				TimeSec: m.TimeSec,
				Object:  m.Object,
				BBox:    m.BBox,
				Cluster: rec.ID,
			})
		}
	}
	slices.SortFunc(all, func(a, b Sighting) int {
		return cmp.Or(cmp.Compare(a.Frame, b.Frame), cmp.Compare(a.Object, b.Object), cmp.Compare(a.Cluster, b.Cluster))
	})
	// Each ingest sighting lands in exactly one cluster, so (frame, object)
	// is unique; drop duplicates defensively to keep association
	// well-defined on hand-built indexes.
	dedup := all[:0]
	for i, s := range all {
		if i > 0 && s.Frame == all[i-1].Frame && s.Object == all[i-1].Object {
			continue
		}
		dedup = append(dedup, s)
	}
	all = dedup
	if len(all) == 0 {
		return nil
	}

	// The observed stride: the smallest gap between consecutive distinct
	// frames. The ingest worker knows its configured FrameStride; here it
	// is recovered from the data so assembly stays a pure function of the
	// sealed records.
	stride := video.FrameID(0)
	for i := 1; i < len(all); i++ {
		if d := all[i].Frame - all[i-1].Frame; d > 0 && (stride == 0 || d < stride) {
			stride = d
		}
	}
	if stride == 0 {
		stride = 1
	}

	var tracks []*Track
	var prev, cur []prevEntry
	prevFrame := video.FrameID(-1)
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].Frame == all[i].Frame {
			j++
		}
		// A gap other than one stride means the association table describes
		// a frame the current one was never adjacent to: clear it, breaking
		// open tracks (mirrors ingest.ProcessFrame).
		if prevFrame >= 0 && all[i].Frame-prevFrame != stride {
			prev = prev[:0]
		}
		prevFrame = all[i].Frame
		for _, s := range all[i:j] {
			ti := -1
			if p := matchPrev(prev, s.BBox, s.Object); p >= 0 {
				ti = int(prev[p].track)
				tracks[ti].Sightings = append(tracks[ti].Sightings, s)
			} else {
				ti = len(tracks)
				tracks = append(tracks, &Track{ID: int64(ti), Sightings: []Sighting{s}})
			}
			cur = append(cur, prevEntry{s.BBox, s.Object, int32(ti)})
		}
		// Rotate the association table, exactly as ingest does.
		prev, cur = cur, prev[:0]
		i = j
	}

	for _, tr := range tracks {
		tr.Dominant = dominantClusterRef(tr.Sightings)
	}
	return tracks
}

func dominantClusterRef(ss []Sighting) index.ClusterID {
	counts := make(map[index.ClusterID]int, 4)
	for _, s := range ss {
		counts[s.Cluster]++
	}
	bestID, bestN := index.ClusterID(-1), 0
	for id, n := range counts {
		if n > bestN || (n == bestN && id < bestID) {
			bestID, bestN = id, n
		}
	}
	return bestID
}
