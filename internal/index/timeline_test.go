package index

import (
	"cmp"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"focus/internal/cluster"
	"focus/internal/kvstore"
	"focus/internal/video"
	"focus/internal/vision"
)

// randTimedIndex builds an index whose clusters hold members added out of
// time order, on a stream clock of fps frames per second.
func randTimedIndex(t *testing.T, rng *rand.Rand, fps float64) *Index {
	t.Helper()
	ix := New(IngestMeta{Stream: "timed", ModelName: "m", K: 2, FPS: fps})
	f := make(vision.FeatureVec, vision.FeatureDim)
	for c, n := 0, 1+rng.Intn(10); c < n; c++ {
		e, err := cluster.NewEngine(cluster.Config{Threshold: 1000, MaxActive: 4}, ix.AddCluster)
		if err != nil {
			t.Fatal(err)
		}
		ix.SetIngestSec(float64(c + 1))
		for m, n := 0, 1+rng.Intn(60); m < n; m++ {
			frame := rng.Intn(400)
			e.Add(f, cluster.Member{
				Object:  video.ObjectID(rng.Intn(6)),
				Frame:   video.FrameID(frame),
				TimeSec: float64(frame) / fps,
				Seed:    int64(c),
			}, []vision.Prediction{{Class: vision.ClassID(1 + c%3), Confidence: 1}})
		}
		e.Flush()
	}
	return ix
}

// linearWindow is the filter every reader ran over all of a record's
// members before Window existed.
func linearWindow(ms []cluster.Member, startSec, endSec float64) []cluster.Member {
	var out []cluster.Member
	for _, m := range ms {
		if m.TimeSec < startSec {
			continue
		}
		if endSec > 0 && m.TimeSec > endSec {
			continue
		}
		out = append(out, m)
	}
	return out
}

// TestWindowMatchesLinearFilter: records in an index hold their members in
// time order whatever order they arrived in, and Window returns exactly the
// members the linear filter keeps, in the same order.
func TestWindowMatchesLinearFilter(t *testing.T) {
	seeds := 200
	if testing.Short() {
		seeds = 25
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		fps := []float64{1, 7.5, 30}[rng.Intn(3)]
		ix := randTimedIndex(t, rng, fps)
		span := 400 / fps
		for _, rec := range ix.ClustersSealedBy(0) {
			if !slices.IsSortedFunc(rec.Members, memberTimeCompare) {
				t.Fatalf("seed %d: cluster %d's members are not in time order", seed, rec.ID)
			}
			for i := 0; i < 20; i++ {
				start, end := 0.0, 0.0
				switch rng.Intn(5) {
				case 0: // whole record
				case 1: // open-ended
					start = rng.Float64() * span
				case 2: // ends before it starts
					start = rng.Float64() * span
					end = start / 2
				case 3: // on a member's own timestamp, both ends
					start = rec.Members[rng.Intn(len(rec.Members))].TimeSec
					end = start
				default:
					start = rng.Float64()*span*1.2 - 0.1*span
					end = start + rng.Float64()*span/2
				}
				got, want := rec.Window(start, end), linearWindow(rec.Members, start, end)
				if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
					t.Fatalf("seed %d cluster %d window [%g, %g]: Window returned %d members, the linear filter %d",
						seed, rec.ID, start, end, len(got), len(want))
				}
			}
		}
	}
}

// TestTimelineOrderAndRebuild: the timeline yields exactly the window's
// members of the visible clusters, in (frame, object, cluster) order — and
// an index read back from a store yields the same sequence, having rebuilt
// its timeline from the records alone.
func TestTimelineOrderAndRebuild(t *testing.T) {
	type sighting struct {
		frame   video.FrameID
		object  video.ObjectID
		cluster ClusterID
	}
	for seed := 0; seed < 40; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ix := randTimedIndex(t, rng, 30)
		store, err := kvstore.Open("")
		if err != nil {
			t.Fatal(err)
		}
		if err := ix.Save(store); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(store, "timed")
		if err != nil {
			t.Fatal(err)
		}
		store.Close()

		for i := 0; i < 10; i++ {
			start := rng.Float64() * 10
			end := start + rng.Float64()*8
			wm := float64(rng.Intn(12)) // 0 = everything
			budget := rng.Intn(4)       // 0 = every cluster
			tl := ix.Timeline(start, end, wm, budget)
			refs := tl.Sightings()

			var want []sighting
			n := 0
			for _, rec := range ix.ClustersSealedBy(wm) {
				if !rec.Overlaps(start, end) {
					continue
				}
				if n++; budget > 0 && n > budget {
					break
				}
				for _, m := range linearWindow(rec.Members, start, end) {
					want = append(want, sighting{m.Frame, m.Object, rec.ID})
				}
			}
			slices.SortFunc(want, func(a, b sighting) int {
				return cmp.Or(cmp.Compare(a.frame, b.frame), cmp.Compare(a.object, b.object), cmp.Compare(a.cluster, b.cluster))
			})
			got := make([]sighting, len(refs))
			for j, ref := range refs {
				m := tl.Member(ref)
				if m.Frame != ref.Frame {
					t.Fatalf("seed %d: reference %d carries frame %d, its member %d", seed, j, ref.Frame, m.Frame)
				}
				got[j] = sighting{m.Frame, m.Object, ClusterID(ref.Cluster)}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("seed %d window [%g, %g] watermark %g budget %d:\n got  %v\n want %v", seed, start, end, wm, budget, got, want)
			}
			if got := loaded.Timeline(start, end, wm, budget).Sightings(); !reflect.DeepEqual(got, refs) {
				t.Fatalf("seed %d: the reloaded index's timeline differs", seed)
			}
		}
	}
}

// TestTimelineViewSurvivesLaterAdds: a view taken before a cluster lands in
// its runs keeps yielding what it yielded — the ordered run bodies it holds
// are never written again.
func TestTimelineViewSurvivesLaterAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ix := randTimedIndex(t, rng, 30)
	tl := ix.Timeline(0, 0, 0, 0)
	before := slices.Clone(tl.Sightings())

	e, err := cluster.NewEngine(cluster.Config{Threshold: 1000, MaxActive: 4}, ix.AddCluster)
	if err != nil {
		t.Fatal(err)
	}
	f := make(vision.FeatureVec, vision.FeatureDim)
	for frame := 0; frame < 400; frame += 3 {
		e.Add(f, cluster.Member{Object: 99, Frame: video.FrameID(frame), TimeSec: float64(frame) / 30}, nil)
	}
	e.Flush()
	after := ix.Timeline(0, 0, 0, 0).Sightings() // orders every run the cluster landed in
	if len(after) <= len(before) {
		t.Fatalf("the new cluster's sightings are missing: %d before, %d after", len(before), len(after))
	}
	if got := tl.Sightings(); !reflect.DeepEqual(got, before) {
		t.Error("a view changed after a later AddCluster")
	}
}

// TestCheckpointedPrefixRebuildsTimeline: the checkpoint path — SaveDelta
// rounds, then LoadBounded below a high-water mark — restores exactly the
// committed prefix, timeline included; and a store with a hole in the dense
// ID range is refused rather than loaded into the wrong table slots.
func TestCheckpointedPrefixRebuildsTimeline(t *testing.T) {
	ix := randTimedIndex(t, rand.New(rand.NewSource(3)), 30)
	store, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	mid := ix.NextID() / 2
	next, err := ix.SaveDelta(store, 0)
	if err != nil || next != ix.NextID() {
		t.Fatalf("SaveDelta = %d, %v; want %d", next, err, ix.NextID())
	}

	// The prefix below mid: the records a checkpoint cut at mid vouches for.
	prefix, err := LoadBounded(store, "timed", mid)
	if err != nil {
		t.Fatal(err)
	}
	if prefix.NextID() != mid {
		t.Fatalf("restored %d records, want %d", prefix.NextID(), mid)
	}
	// Restricted to those records, the full index reads the same.
	want := ix.Timeline(0, 0, 0, 0).Sightings()
	want = slices.DeleteFunc(want, func(ref SightingRef) bool { return ClusterID(ref.Cluster) >= mid })
	if got := prefix.Timeline(0, 0, 0, 0).Sightings(); !reflect.DeepEqual(got, want) {
		t.Errorf("the restored prefix's timeline has %d sightings, want %d", len(got), len(want))
	}
	if _, err := LoadBounded(store, "timed", ix.NextID()+1); err == nil {
		t.Error("LoadBounded accepted a high-water mark past the stored records")
	}

	if err := store.Delete(clusterKey("timed", 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(store, "timed"); err == nil {
		t.Error("Load accepted a store missing cluster 0")
	}
	if _, err := LoadBounded(store, "timed", mid); err == nil {
		t.Error("LoadBounded accepted a store missing cluster 0")
	}
}
