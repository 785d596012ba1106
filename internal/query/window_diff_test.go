package query_test

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"focus/internal/query"
	"focus/internal/video"
	"focus/internal/vision"
)

// refFramesAndSegments is how Query derived its answer before records could
// be cut by time: a linear test of every member of every matching candidate
// into two sets, each then sorted.
func refFramesAndSegments(e *query.Engine, gtFn query.GTFunc, c vision.ClassID, opts query.Options) ([]video.FrameID, []video.SegmentID, error) {
	cands, _, err := e.Candidates(c, opts)
	if err != nil {
		return nil, nil, err
	}
	frameSet := map[video.FrameID]struct{}{}
	segSet := map[video.SegmentID]struct{}{}
	for _, rec := range cands {
		if gtFn(rec.Rep) != c {
			continue
		}
		for _, m := range rec.Members {
			if m.TimeSec < opts.StartSec || (opts.EndSec > 0 && m.TimeSec > opts.EndSec) {
				continue
			}
			frameSet[m.Frame] = struct{}{}
			segSet[video.SegmentOf(m.TimeSec)] = struct{}{}
		}
	}
	frames := make([]video.FrameID, 0, len(frameSet))
	for f := range frameSet {
		frames = append(frames, f)
	}
	sort.Slice(frames, func(i, j int) bool { return frames[i] < frames[j] })
	segs := make([]video.SegmentID, 0, len(segSet))
	for s := range segSet {
		segs = append(segs, s)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	return frames, segs, nil
}

// TestQueryFramesMatchMapAndSort: over random hand-built indexes — members
// added out of time order, clusters sharing frames, windows that start and
// end between members or miss them all — Query's Frames and Segments equal
// the map-and-sort reference, empty answers included (empty, not nil: the
// wire encodes the difference).
func TestQueryFramesMatchMapAndSort(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	// The GT model and class space only price verification here; building
	// them is the slow part of an engine, so every seed shares one pair.
	gt, space := vision.NewZoo().GT, vision.NewSpace(1)
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		span := 5 + rng.Float64()*60
		specs := make([]clusterSpec, rng.Intn(12))
		for i := range specs {
			specs[i] = clusterSpec{topK: []vision.ClassID{7, 8}[:1+rng.Intn(2)], verdict: vision.ClassID(7 + rng.Intn(2))}
			// Times drawn from a coarse grid, unordered: clusters share
			// frames with one another and repeat their own.
			for j, n := 0, 1+rng.Intn(50); j < n; j++ {
				specs[i].times = append(specs[i].times, float64(rng.Intn(int(span*4)))/4)
			}
		}
		ix, gtFn := buildIndex(t, 2, nil, specs)
		e, err := query.NewEngine(ix, gt, space, gtFn, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			var opts query.Options
			switch rng.Intn(4) {
			case 0: // unbounded
			case 1:
				opts.StartSec = rng.Float64() * span
			case 2:
				opts.StartSec = rng.Float64() * span
				opts.EndSec = opts.StartSec + rng.Float64()*span/2
			case 3: // between two grid points: matches no member
				opts.StartSec = float64(rng.Intn(int(span*4)))/4 + 0.05
				opts.EndSec = opts.StartSec + 0.1
			}
			if rng.Intn(3) == 0 {
				opts.MaxClusters = 1 + rng.Intn(4)
			}
			res, err := e.Query(7, opts)
			if err != nil {
				t.Fatal(err)
			}
			frames, segs, err := refFramesAndSegments(e, gtFn, 7, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Frames, frames) || !reflect.DeepEqual(res.Segments, segs) {
				t.Fatalf("seed %d window [%g, %g] maxClusters %d:\n frames   %v\n want     %v\n segments %v\n want     %v",
					seed, opts.StartSec, opts.EndSec, opts.MaxClusters, res.Frames, frames, res.Segments, segs)
			}
		}
	}
}
