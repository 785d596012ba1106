// Package track assembles object sightings into per-stream tracks and
// executes temporal predicates — Seq/Within spatial matchers plus
// duration, region, and velocity leaves — over them, following the
// coarse-then-refine idiom of MIRIS-style temporal video queries: track
// assembly is cheap (index-only bbox association across adjacent frames,
// no GPU time), and expensive GT-CNN refinement is spent only on clusters
// whose class predicates are still three-valued, through the query
// engine's shared BatchVerifier and per-cluster verdict cache.
//
// Tracks are a pure function of the pinned ingest watermark: the
// population is assembled from exactly the clusters sealed at or before
// the watermark, associated deterministically, so an execution pinned to
// a watermark vector returns bit-identical answers no matter how far
// ingestion has advanced — the same consistency contract the boolean
// plan path gives the serve cache and the router.
//
// Execution mirrors internal/plan: class leaves resolve three-valued
// against each track's dominant cluster (index rejection is free,
// confirmation costs one memoized GT verdict), results are ranked by
// aggregate class confidence, and a threshold cursor emits a track only
// once its rank is provably final, so paged reads concatenate to exactly
// the one-shot ranking.
package track

import (
	"cmp"
	"slices"

	"focus/internal/index"
	"focus/internal/video"
)

// Sighting is one detection belonging to a track: where one object was in
// one frame, and which sealed cluster contributed it.
type Sighting struct {
	// Frame and TimeSec locate the sighting on the stream.
	Frame   video.FrameID
	TimeSec float64
	// Object is the physical object's identity.
	Object video.ObjectID
	// BBox is the detection's bounding box in frame coordinates.
	BBox video.Rect
	// Cluster is the sealed cluster whose member this sighting is.
	Cluster index.ClusterID
}

// Track is one assembled object track: a chain of sightings of the same
// physical object across adjacent frames, in frame order.
type Track struct {
	// ID is dense per assembly (0..n-1) in creation order — deterministic
	// for a given cluster population, hence for a given watermark.
	ID int64
	// Sightings are the track's detections, ascending by frame.
	Sightings []Sighting
	// Dominant is the cluster contributing the plurality of the track's
	// sightings (ties break to the lowest cluster ID). Class predicates
	// over the track are answered by this cluster's index standing and,
	// when still three-valued, one GT-CNN verdict of its representative.
	Dominant index.ClusterID
}

// StartSec returns the first sighting's timestamp.
func (t *Track) StartSec() float64 { return t.Sightings[0].TimeSec }

// EndSec returns the last sighting's timestamp.
func (t *Track) EndSec() float64 { return t.Sightings[len(t.Sightings)-1].TimeSec }

// DurationSec returns the track's time span (0 for single-sighting tracks).
func (t *Track) DurationSec() float64 { return t.EndSec() - t.StartSec() }

// Assemble builds the track population from a set of sealed cluster
// records, keeping only sightings within [startSec, endSec] (endSec <= 0
// means unbounded). Association mirrors the ingest pipeline's pixel-diff
// adjacency: sightings in consecutive frames (at the observed frame
// stride) join the same track when their bounding boxes overlap best and
// they are the same physical object — the identity check standing in for
// the pixel comparison a real tracker performs, exactly as in ingest
// deduplication. A frame gap other than one stride breaks every open
// track, like the ingest worker clearing its association table.
//
// The result is deterministic: records are consumed in ascending cluster
// ID, sightings sort by (frame, object, cluster), and track IDs are
// assigned in creation order.
func Assemble(recs []*index.ClusterRecord, startSec, endSec float64) []*Track {
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
			if p := matchPrev(prev, s); p >= 0 {
				ti = prev[p].track
				tracks[ti].Sightings = append(tracks[ti].Sightings, s)
			} else {
				ti = len(tracks)
				tracks = append(tracks, &Track{ID: int64(ti), Sightings: []Sighting{s}})
			}
			cur = append(cur, prevEntry{s.BBox, s.Object, ti})
		}
		// Rotate the association table, exactly as ingest does.
		prev, cur = cur, prev[:0]
		i = j
	}

	for _, tr := range tracks {
		tr.Dominant = dominantCluster(tr.Sightings)
	}
	return tracks
}

// prevEntry is the track layer's association-table entry, mirroring the
// ingest worker's: the previous frame's bounding boxes with the object
// and open track behind each.
type prevEntry struct {
	bbox   video.Rect
	object video.ObjectID
	track  int
}

// matchPrev returns the index of the previous-frame entry whose bounding
// box overlaps s best, provided it is the same physical object, or -1.
// This is the ingest worker's matchPrev over the track layer's table: the
// identity check stands in for the pixel comparison a real system
// performs (two different objects in the same region have very different
// pixels).
func matchPrev(prev []prevEntry, s Sighting) int {
	best := -1
	bestArea := 0
	for i := range prev {
		if a := intersectionArea(prev[i].bbox, s.BBox); a > bestArea {
			bestArea = a
			best = i
		}
	}
	if best < 0 || prev[best].object != s.Object {
		return -1
	}
	return best
}

// dominantCluster returns the cluster contributing the most sightings,
// ties to the lowest ID.
func dominantCluster(ss []Sighting) index.ClusterID {
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

func intersectionArea(a, b video.Rect) int {
	x0 := maxInt(a.X, b.X)
	y0 := maxInt(a.Y, b.Y)
	x1 := minInt(a.X+a.W, b.X+b.W)
	y1 := minInt(a.Y+a.H, b.Y+b.H)
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	return (x1 - x0) * (y1 - y0)
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
