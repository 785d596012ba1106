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

// Assemble builds the track population of an index timeline: the sightings
// of one time window, from the clusters visible at one watermark, which the
// timeline already holds in (frame, object, cluster) order — so assembly
// costs O(sightings in the window), with no gather over whole clusters and
// no sort. Association mirrors the ingest pipeline's pixel-diff adjacency:
// sightings in consecutive frames (at the observed frame stride) join the
// same track when their bounding boxes overlap best and they are the same
// physical object — the identity check standing in for the pixel comparison
// a real tracker performs, exactly as in ingest deduplication. A frame gap
// other than one stride breaks every open track, like the ingest worker
// clearing its association table.
//
// The result is deterministic: the timeline's order is total, and track IDs
// are assigned in creation order.
func Assemble(tl *index.Timeline) []*Track {
	refs := tl.Sightings()
	if len(refs) == 0 {
		return nil
	}

	// The observed stride: the smallest gap between consecutive distinct
	// frames. The ingest worker knows its configured FrameStride; here it
	// is recovered from the data so assembly stays a pure function of the
	// sealed records.
	stride := video.FrameID(0)
	for i := 1; i < len(refs); i++ {
		if d := refs[i].Frame - refs[i-1].Frame; d > 0 && (stride == 0 || d < stride) {
			stride = d
		}
	}
	if stride == 0 {
		stride = 1
	}

	// First pass: associate. trackOf[i] is the track sighting i joins and
	// sizes[t] how many sightings track t ends up with, so the second pass
	// can carve every track's Sightings out of one array.
	trackOf := make([]int32, len(refs))
	var sizes []int32
	var prev, cur []prevEntry
	prevFrame := video.FrameID(-1)
	kept := 0
	for i := 0; i < len(refs); {
		j := i
		for j < len(refs) && refs[j].Frame == refs[i].Frame {
			j++
		}
		// A gap other than one stride means the association table describes
		// a frame the current one was never adjacent to: clear it, breaking
		// open tracks (mirrors ingest.ProcessFrame).
		if prevFrame >= 0 && refs[i].Frame-prevFrame != stride {
			prev = prev[:0]
		}
		prevFrame = refs[i].Frame
		for k := i; k < j; k++ {
			m := tl.Member(refs[k])
			// Each ingest sighting lands in exactly one cluster, so (frame,
			// object) is unique; on a hand-built index only the first copy
			// counts, which keeps association well defined.
			if n := len(cur); n > 0 && cur[n-1].object == m.Object {
				trackOf[k] = -1
				continue
			}
			ti := int32(len(sizes))
			if p := matchPrev(prev, m.BBox, m.Object); p >= 0 {
				ti = prev[p].track
				sizes[ti]++
			} else {
				sizes = append(sizes, 1)
			}
			trackOf[k] = ti
			cur = append(cur, prevEntry{m.BBox, m.Object, ti})
			kept++
		}
		// Rotate the association table, exactly as ingest does.
		prev, cur = cur, prev[:0]
		i = j
	}

	// Second pass: fill. Each track's slice is capped at its final size, so
	// the appends below never grow or run into a neighbour.
	arena := make([]Sighting, kept)
	block := make([]Track, len(sizes))
	tracks := make([]*Track, len(sizes))
	off := int32(0)
	for ti, n := range sizes {
		block[ti] = Track{ID: int64(ti), Sightings: arena[off : off : off+n]}
		tracks[ti] = &block[ti]
		off += n
	}
	for k, ref := range refs {
		if trackOf[k] < 0 {
			continue
		}
		m := tl.Member(ref)
		tr := &block[trackOf[k]]
		tr.Sightings = append(tr.Sightings, Sighting{
			Frame:   m.Frame,
			TimeSec: m.TimeSec,
			Object:  m.Object,
			BBox:    m.BBox,
			Cluster: index.ClusterID(ref.Cluster),
		})
	}
	var tally []clusterTally
	for _, tr := range tracks {
		tr.Dominant, tally = dominantCluster(tr.Sightings, tally[:0])
	}
	return tracks
}

// prevEntry is the track layer's association-table entry, mirroring the
// ingest worker's: the previous frame's bounding boxes with the object
// and open track behind each.
type prevEntry struct {
	bbox   video.Rect
	object video.ObjectID
	track  int32
}

// matchPrev returns the index of the previous-frame entry whose bounding
// box overlaps bbox best, provided it is the same physical object, or -1.
// This is the ingest worker's matchPrev over the track layer's table: the
// identity check stands in for the pixel comparison a real system
// performs (two different objects in the same region have very different
// pixels).
func matchPrev(prev []prevEntry, bbox video.Rect, object video.ObjectID) int {
	best := -1
	bestArea := 0
	for i := range prev {
		if a := intersectionArea(prev[i].bbox, bbox); a > bestArea {
			bestArea = a
			best = i
		}
	}
	if best < 0 || prev[best].object != object {
		return -1
	}
	return best
}

// clusterTally counts one cluster's sightings within a track.
type clusterTally struct {
	id index.ClusterID
	n  int
}

// dominantCluster returns the cluster contributing the most sightings,
// ties to the lowest ID. A track draws on a handful of clusters, mostly in
// stretches, so the tally is a short list searched from the last hit; the
// caller passes it back in (emptied) for the next track.
func dominantCluster(ss []Sighting, tally []clusterTally) (index.ClusterID, []clusterTally) {
	at := 0
	for _, s := range ss {
		if at >= len(tally) || tally[at].id != s.Cluster {
			at = slices.IndexFunc(tally, func(t clusterTally) bool { return t.id == s.Cluster })
			if at < 0 {
				at = len(tally)
				tally = append(tally, clusterTally{id: s.Cluster})
			}
		}
		tally[at].n++
	}
	best := clusterTally{id: -1}
	for _, t := range tally {
		if t.n > best.n || (t.n == best.n && t.id < best.id) {
			best = t
		}
	}
	return best.id, tally
}

func intersectionArea(a, b video.Rect) int {
	// Most pairs miss on the first axis; test it before touching the other.
	x0, x1 := max(a.X, b.X), min(a.X+a.W, b.X+b.W)
	if x1 <= x0 {
		return 0
	}
	y0, y1 := max(a.Y, b.Y), min(a.Y+a.H, b.Y+b.H)
	if y1 <= y0 {
		return 0
	}
	return (x1 - x0) * (y1 - y0)
}
