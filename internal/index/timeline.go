package index

import (
	"cmp"
	"slices"

	"focus/internal/cluster"
	"focus/internal/video"
)

// The sighting timeline: every member of every record, by reference, in the
// order a time-windowed reader wants them. Sightings are grouped into
// one-second runs (run k holds the members with SegmentOf(TimeSec) == k),
// each run ordered by (frame, object, cluster). A stream's clock is a
// non-decreasing function of its frame counter, so the runs of a window,
// read in turn, are in (frame, object, cluster) order overall — the order
// track assembly used to obtain by gathering every member of every cluster
// overlapping the window and sorting them, per request.
//
// Maintenance is incremental and lazy. A record entering the index appends
// its references to the pending tail of the runs its members fall in
// (addToTimelineLocked): O(members), no ordering work. A run is put in
// order only when a reader's window reaches it, and only if it gained
// references since it was last read: the pending tail is sorted and merged
// with the ordered body into a new array (a run read for the first time has
// no body yet, and its tail simply becomes it). The ordered body is never
// written again after it is published — copy-on-sort — so a reader keeps
// the slice headers it took under the lock and walks them after releasing
// it, while ingest goes on adding to the same runs. Which sightings a
// reader then *counts* is decided per reference by the record's SealSec
// against the reader's watermark, so a read pinned to watermark W returns
// the same sequence however many later clusters have landed in its runs.
//
// Nothing here is persisted: Load and LoadBounded rebuild the timeline by
// construction, because they add records through addRecordLocked too.

// memberRef is a timeline entry: member member of cluster cluster. Cluster
// IDs are dense table positions, so 32 bits hold them, and a record holds at
// most 2^31 members: eight bytes per sighting, which is what the timeline
// adds to the resident index (a layout that repeated the frame, or copied
// the member, cost 2× and 9× that).
type memberRef struct {
	cluster int32
	member  int32
}

// timelineRun is one second of the timeline.
type timelineRun struct {
	// sorted is ordered by (frame, object, cluster, member) and immutable
	// once assigned; readers hold on to it without the lock.
	sorted []memberRef
	// pending are the references added since sorted was built, in arrival
	// order. Only writers (under the write lock) touch it.
	pending []memberRef
}

// runOf maps a timestamp to its run. Timestamps before the stream's origin
// share run 0; within a run order is by frame, so they still read first.
func runOf(timeSec float64) int {
	return max(0, int(video.SegmentOf(timeSec)))
}

func (ix *Index) addToTimelineLocked(rec *ClusterRecord) {
	if len(rec.Members) == 0 {
		return
	}
	// Members are in time order: the last one names the highest run.
	if last := runOf(rec.Members[len(rec.Members)-1].TimeSec); last >= len(ix.runs) {
		ix.runs = append(ix.runs, make([]timelineRun, last+1-len(ix.runs))...)
	}
	for i := range rec.Members {
		run := &ix.runs[runOf(rec.Members[i].TimeSec)]
		run.pending = append(run.pending, memberRef{cluster: int32(rec.ID), member: int32(i)})
	}
}

func (ix *Index) refCompare(a, b memberRef) int {
	ma, mb := &ix.clusters[a.cluster].Members[a.member], &ix.clusters[b.cluster].Members[b.member]
	return cmp.Or(cmp.Compare(ma.Frame, mb.Frame), cmp.Compare(ma.Object, mb.Object),
		cmp.Compare(a.cluster, b.cluster), cmp.Compare(a.member, b.member))
}

// sortRunsLocked folds the pending references of runs[lo:hi] into their
// ordered bodies. Callers hold the write lock.
func (ix *Index) sortRunsLocked(lo, hi int) {
	for i := lo; i < hi; i++ {
		run := &ix.runs[i]
		if len(run.pending) == 0 {
			continue
		}
		slices.SortFunc(run.pending, ix.refCompare)
		if len(run.sorted) == 0 {
			// Nothing published yet (a restored stream's first read): no
			// reader has ever held the pending array, so it becomes the body
			// as it is, without a copy.
			run.sorted, run.pending = run.pending, nil
			continue
		}
		merged := make([]memberRef, 0, len(run.sorted)+len(run.pending))
		a, b := run.sorted, run.pending
		for len(a) > 0 && len(b) > 0 {
			if ix.refCompare(b[0], a[0]) < 0 {
				merged, b = append(merged, b[0]), b[1:]
			} else {
				merged, a = append(merged, a[0]), a[1:]
			}
		}
		merged = append(append(merged, a...), b...)
		run.sorted, run.pending = merged, nil
	}
}

func (ix *Index) runsSortedLocked(lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if len(ix.runs[i].pending) > 0 {
			return false
		}
	}
	return true
}

// Timeline is a consistent view of one time window of a stream's sightings
// at one watermark. It holds no lock: it is made of the immutable parts of
// the index as they stood when it was taken.
type Timeline struct {
	clusters []*ClusterRecord
	runs     [][]memberRef

	startSec, endSec float64
	maxSealSec       float64
	// cutoff is the first cluster ID a MaxClusters budget leaves out.
	cutoff ClusterID
}

// Timeline returns the view of the sightings with startSec <= TimeSec <=
// endSec (endSec <= 0 means unbounded) that belong to clusters visible at
// maxSealSec — the ClustersSealedBy convention: 0 is everything indexed so
// far, negative is the empty horizon. maxClusters > 0 further keeps only the
// first maxClusters visible clusters that overlap the window, ascending by
// ID; it is applied as an ID cut-off on the same scan.
func (ix *Index) Timeline(startSec, endSec, maxSealSec float64, maxClusters int) *Timeline {
	tl := &Timeline{startSec: startSec, endSec: endSec, maxSealSec: maxSealSec}
	if maxSealSec < 0 {
		return tl
	}
	// The window's runs, ordered on demand. As in Lookup, a reader that has
	// to order a run takes its snapshot before letting go of the write
	// lock, or a concurrent AddCluster could leave new references pending
	// in between.
	ix.mu.RLock()
	lo, hi := ix.runRangeLocked(startSec, endSec)
	if ix.runsSortedLocked(lo, hi) {
		tl.snapshotLocked(ix, lo, hi)
		ix.mu.RUnlock()
	} else {
		ix.mu.RUnlock()
		ix.mu.Lock()
		lo, hi = ix.runRangeLocked(startSec, endSec)
		ix.sortRunsLocked(lo, hi)
		tl.snapshotLocked(ix, lo, hi)
		ix.mu.Unlock()
	}

	tl.cutoff = ClusterID(len(tl.clusters))
	if maxClusters > 0 {
		n := 0
		for _, rec := range tl.clusters {
			if rec.visibleAt(maxSealSec) && rec.Overlaps(startSec, endSec) {
				if n++; n == maxClusters {
					tl.cutoff = rec.ID + 1
					break
				}
			}
		}
	}
	return tl
}

// runRangeLocked returns the half-open range of runs a window touches.
func (ix *Index) runRangeLocked(startSec, endSec float64) (lo, hi int) {
	lo, hi = runOf(startSec), len(ix.runs)
	if endSec > 0 {
		hi = min(hi, runOf(endSec)+1)
	}
	return min(lo, hi), hi
}

func (tl *Timeline) snapshotLocked(ix *Index, lo, hi int) {
	tl.clusters = ix.clusters
	tl.runs = make([][]memberRef, hi-lo)
	for i := range tl.runs {
		tl.runs[i] = ix.runs[lo+i].sorted
	}
}

// SightingRef is one sighting of a Timeline: member Member of cluster
// Cluster, with the member's frame alongside so that grouping by frame and
// gap detection read the sequence alone.
type SightingRef struct {
	Frame   video.FrameID
	Cluster int32
	Member  int32
}

// Sightings returns the view's sightings in (frame, object, cluster) order:
// those of its window, from the clusters visible at its watermark and
// inside its cluster budget. Where several such clusters hold the same
// (frame, object) — ingest puts each sighting in exactly one, a hand-built
// index may not — the copies are adjacent, lowest cluster first; because
// invisible clusters are dropped here, which copy leads never depends on
// what has been indexed since the watermark.
func (tl *Timeline) Sightings() []SightingRef {
	total := 0
	for _, run := range tl.runs {
		total += len(run)
	}
	out := make([]SightingRef, 0, total)
	for i, run := range tl.runs {
		// Only the window's first and last run can hold members outside it.
		edge := i == 0 || i == len(tl.runs)-1
		for _, ref := range run {
			if ClusterID(ref.cluster) >= tl.cutoff {
				continue
			}
			rec := tl.clusters[ref.cluster]
			if !rec.visibleAt(tl.maxSealSec) {
				continue
			}
			m := &rec.Members[ref.member]
			if edge && (m.TimeSec < tl.startSec || (tl.endSec > 0 && m.TimeSec > tl.endSec)) {
				continue
			}
			out = append(out, SightingRef{Frame: m.Frame, Cluster: ref.cluster, Member: ref.member})
		}
	}
	return out
}

// Member resolves a reference returned by Sightings.
func (tl *Timeline) Member(ref SightingRef) *cluster.Member {
	return &tl.clusters[ref.Cluster].Members[ref.Member]
}

// Cluster returns the record with the given ID as of the view, or nil.
func (tl *Timeline) Cluster(id ClusterID) *ClusterRecord {
	if id < 0 || id >= ClusterID(len(tl.clusters)) {
		return nil
	}
	return tl.clusters[id]
}
