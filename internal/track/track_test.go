package track_test

import (
	"reflect"
	"testing"

	"focus/internal/cluster"
	"focus/internal/gpu"
	"focus/internal/index"
	"focus/internal/plan"
	"focus/internal/query"
	"focus/internal/track"
	"focus/internal/video"
	"focus/internal/vision"
)

// sighting describes one member for the fixture: frame, object, and a
// bbox moving along X (bboxes overlap between adjacent frames when the
// per-frame step is below the width).
type sighting struct {
	frame  int64
	object int64
	x, y   int
}

// clusterSpec is one hand-built sealed cluster.
type clusterSpec struct {
	topK      []vision.ClassID
	verdict   vision.ClassID
	seal      float64
	sightings []sighting
}

const fps = 1.0 // timeSec == frame for readability

func bboxAt(x, y int) video.Rect { return video.Rect{X: x, Y: y, W: 60, H: 60} }

// buildIndex constructs an index whose clusters, members, bboxes, and
// seal times are exactly as specified, plus the matching GT oracle.
func buildIndex(t *testing.T, k int, specs []clusterSpec) (*index.Index, query.GTFunc) {
	t.Helper()
	ix := index.New(index.IngestMeta{Stream: "s", ModelName: "m", K: k, FPS: fps})
	verdicts := map[int64]vision.ClassID{}
	for i, cs := range specs {
		e, err := cluster.NewEngine(cluster.Config{Threshold: 1000, MaxActive: 10}, ix.AddCluster)
		if err != nil {
			t.Fatal(err)
		}
		ranked := make([]vision.Prediction, len(cs.topK))
		for j, c := range cs.topK {
			ranked[j] = vision.Prediction{Class: c, Confidence: float32(len(cs.topK) - j)}
		}
		f := make(vision.FeatureVec, vision.FeatureDim)
		for _, sg := range cs.sightings {
			m := cluster.Member{
				Object:  video.ObjectID(sg.object),
				Frame:   video.FrameID(sg.frame),
				TimeSec: float64(sg.frame) / fps,
				BBox:    bboxAt(sg.x, sg.y),
				Seed:    int64(i), // rep seed identifies the cluster to the oracle
			}
			e.Add(f, m, ranked)
		}
		ix.SetIngestSec(cs.seal)
		e.Flush()
		verdicts[int64(i)] = cs.verdict
	}
	gtFn := func(m cluster.Member) vision.ClassID { return verdicts[m.Seed] }
	return ix, gtFn
}

func newEngine(t *testing.T, ix *index.Index, gtFn query.GTFunc, meter *gpu.Meter) *query.Engine {
	t.Helper()
	e, err := query.NewEngine(ix, vision.NewZoo().GT, vision.NewSpace(1), gtFn, meter)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

const (
	carID    vision.ClassID = 3
	personID vision.ClassID = 4
	busID    vision.ClassID = 5
)

func resolver(name string) (vision.ClassID, error) {
	switch name {
	case "car":
		return carID, nil
	case "person":
		return personID, nil
	case "bus":
		return busID, nil
	}
	return 0, &unknownClassError{name}
}

type unknownClassError struct{ name string }

func (e *unknownClassError) Error() string { return "unknown class " + e.name }

func compile(t *testing.T, expr string) *track.Plan {
	t.Helper()
	ast, err := plan.Parse(expr)
	if err != nil {
		t.Fatalf("Parse(%q): %v", expr, err)
	}
	p, err := track.Compile(ast, resolver)
	if err != nil {
		t.Fatalf("Compile(%q): %v", expr, err)
	}
	return p
}

// crossingSpecs is the shared scenario: object 1 crosses the frame
// left-to-right over frames 1..6, its sightings split across two clusters
// sealed at different times (seal 3 and seal 6); object 2 loiters at a
// fixed position over frames 1..5 in a third cluster; object 1 reappears
// at frames 20..21 after a gap, in a fourth cluster.
func crossingSpecs() []clusterSpec {
	return []clusterSpec{
		{topK: []vision.ClassID{carID, busID}, verdict: carID, seal: 3,
			sightings: []sighting{{1, 1, 0, 0}, {2, 1, 50, 0}, {3, 1, 100, 0}}},
		{topK: []vision.ClassID{carID, busID}, verdict: carID, seal: 6,
			sightings: []sighting{{4, 1, 150, 0}, {5, 1, 200, 0}, {6, 1, 250, 0}}},
		{topK: []vision.ClassID{personID, carID}, verdict: personID, seal: 5,
			sightings: []sighting{{1, 2, 0, 500}, {2, 2, 0, 500}, {3, 2, 0, 500}, {4, 2, 0, 500}, {5, 2, 0, 500}}},
		{topK: []vision.ClassID{carID, busID}, verdict: busID, seal: 21,
			sightings: []sighting{{20, 1, 300, 0}, {21, 1, 350, 0}}},
	}
}

func targetsAt(e *query.Engine, wm float64) []plan.Target {
	return []plan.Target{{Stream: "s", Engine: e, Watermark: wm, NumGPUs: 1}}
}

// TestAssembleAcrossClusterSeals verifies that adjacent-frame association
// joins sightings from different clusters into one track (the "Seq across
// cluster seals" case) and that the gap at frame 20 starts a new track.
func TestAssembleAcrossClusterSeals(t *testing.T) {
	ix, _ := buildIndex(t, 2, crossingSpecs())
	tracks := track.Assemble(ix.Timeline(0, 0, 0, 0))
	if len(tracks) != 3 {
		t.Fatalf("%d tracks, want 3 (crossing, loiterer, reappearance)", len(tracks))
	}
	// Track 0: object 1 frames 1..6 across clusters 0 and 1.
	tr := tracks[0]
	if got := len(tr.Sightings); got != 6 {
		t.Errorf("track 0 has %d sightings, want 6", got)
	}
	if tr.StartSec() != 1 || tr.EndSec() != 6 {
		t.Errorf("track 0 spans [%g,%g], want [1,6]", tr.StartSec(), tr.EndSec())
	}
	if tr.Dominant != 0 {
		// 3 sightings each from clusters 0 and 1: plurality ties to the
		// lower ID.
		t.Errorf("track 0 dominant = %d, want 0 (tie to lowest)", tr.Dominant)
	}
	// Track 2: object 1 reappearing at frame 20 — the frame gap broke the
	// association, so it is a fresh track despite the same object.
	if got := tracks[2].Sightings[0].Frame; got != 20 {
		t.Errorf("track 2 starts at frame %d, want 20", got)
	}
}

// TestAssembleWatermark pins the pure-function-of-watermark contract: at
// watermark 3 only the first cluster is visible, so the crossing track is
// truncated; negative watermark is the empty horizon.
func TestAssembleWatermark(t *testing.T) {
	ix, _ := buildIndex(t, 2, crossingSpecs())
	tracks := track.Assemble(ix.Timeline(0, 0, 3, 0))
	if len(tracks) != 1 {
		t.Fatalf("%d tracks at watermark 3, want 1", len(tracks))
	}
	if got := len(tracks[0].Sightings); got != 3 {
		t.Errorf("truncated track has %d sightings, want 3", got)
	}
	if tracks := track.Assemble(ix.Timeline(0, 0, -1, 0)); len(tracks) != 0 {
		t.Errorf("negative watermark assembled %d tracks, want 0", len(tracks))
	}
}

func executeAt(t *testing.T, e *query.Engine, expr string, wm float64) *track.Result {
	t.Helper()
	res, err := track.Execute(compile(t, expr), targetsAt(e, wm), track.Options{})
	if err != nil {
		t.Fatalf("Execute(%q): %v", expr, err)
	}
	return res
}

func trackIDs(items []track.Item) []int64 {
	out := make([]int64, len(items))
	for i, it := range items {
		out[i] = it.Track
	}
	return out
}

// TestTemporalPredicates exercises each leaf and matcher against the
// crossing scenario.
func TestTemporalPredicates(t *testing.T) {
	ix, gtFn := buildIndex(t, 2, crossingSpecs())
	e := newEngine(t, ix, gtFn, nil)

	left := "region(0,0,120,100)"    // covers x 0..100 at y 0
	right := "region(200,0,400,100)" // covers x 200..350 at y 0
	cases := []struct {
		expr string
		want []int64 // expected track IDs, any order checked via set
	}{
		{"dur(4)", []int64{0, 1}},                                   // crossing spans 5s, loiterer 4s, reappearance 1s
		{"dur(0,2)", []int64{2}},                                    // only the short reappearance
		{"vel(30)", []int64{0, 2}},                                  // movers: 50 px/s
		{"vel(0,1)", []int64{1}},                                    // the loiterer
		{left, []int64{0}},                                          // loiterer is at y 500, reappearance at x >= 300: outside
		{"seq(" + left + "," + right + ")", []int64{0}},             // crosses left then right
		{"seq(" + right + "," + left + ")", []int64{}},              // never right-to-left
		{"within(3, seq(" + left + "," + right + "))", []int64{0}},  // frames 3→5 span 2s ≤ 3
		{"within(1, seq(" + left + "," + right + "))", []int64{0}},  // tightest crossing: frame 3 -> 4
		{"within(0.5, seq(" + left + "," + right + "))", []int64{}}, // no sub-second crossing
		{"car & dur(4)", []int64{0}},                                // loiterer's dominant is person
		{"person & dur(4)", []int64{1}},
		{"!car & dur(0)", []int64{1, 2}}, // reappearance verdict is bus
		{"bus & dur(0)", []int64{2}},
	}
	for _, tc := range cases {
		res := executeAt(t, e, tc.expr, 0)
		got := trackIDs(res.Items)
		if len(got) != len(tc.want) {
			t.Errorf("%q matched tracks %v, want %v", tc.expr, got, tc.want)
			continue
		}
		set := map[int64]bool{}
		for _, id := range got {
			set[id] = true
		}
		for _, id := range tc.want {
			if !set[id] {
				t.Errorf("%q matched tracks %v, want %v", tc.expr, got, tc.want)
				break
			}
		}
	}
}

// TestWithinAcrossWatermarkBoundary pins the watermark-purity of temporal
// matches: a within(...) that needs sightings from the cluster sealed at
// 6 fails at watermark 3 (the track is truncated to the sealed prefix)
// and succeeds at 6 — and the watermark-3 answer never changes as the
// index grows.
func TestWithinAcrossWatermarkBoundary(t *testing.T) {
	ix, gtFn := buildIndex(t, 2, crossingSpecs())
	e := newEngine(t, ix, gtFn, nil)
	expr := "within(5, seq(region(0,0,120,100), region(200,0,400,100)))"
	if res := executeAt(t, e, expr, 3); len(res.Items) != 0 {
		t.Errorf("watermark 3: matched %v, want none (right half not sealed)", trackIDs(res.Items))
	}
	if res := executeAt(t, e, expr, 6); len(res.Items) != 1 {
		t.Errorf("watermark 6: matched %v, want the crossing track", trackIDs(res.Items))
	}
	// Replay at the old watermark after the index has advanced: identical.
	if res := executeAt(t, e, expr, 3); len(res.Items) != 0 {
		t.Errorf("watermark 3 replay: matched %v, want none", trackIDs(res.Items))
	}
}

// TestSingleSightingTrack covers the single-sighting edge cases: duration
// and speed are 0, a region matcher can match, and a two-step seq cannot.
func TestSingleSightingTrack(t *testing.T) {
	ix, gtFn := buildIndex(t, 2, []clusterSpec{
		{topK: []vision.ClassID{carID}, verdict: carID, seal: 1,
			sightings: []sighting{{1, 1, 0, 0}}},
	})
	e := newEngine(t, ix, gtFn, nil)
	for expr, want := range map[string]int{
		"dur(0,0)":            1,
		"vel(0,0)":            1,
		"dur(1)":              0,
		"region(0,0,100,100)": 1,
		"seq(region(0,0,100,100), region(0,0,100,100))": 0, // needs two sightings
	} {
		if res := executeAt(t, e, expr, 0); len(res.Items) != want {
			t.Errorf("%q matched %d tracks, want %d", expr, len(res.Items), want)
		}
	}
}

// TestEmptyPopulation covers the no-tracks edge cases: empty horizon and
// a window excluding everything.
func TestEmptyPopulation(t *testing.T) {
	ix, gtFn := buildIndex(t, 2, crossingSpecs())
	e := newEngine(t, ix, gtFn, nil)
	if res := executeAt(t, e, "dur(0)", -1); len(res.Items) != 0 {
		t.Errorf("empty horizon matched %d tracks", len(res.Items))
	}
	res, err := track.Execute(compile(t, "dur(0)"), targetsAt(e, 0),
		track.Options{DefaultLeaf: plan.LeafOptions{StartSec: 1000, EndSec: 2000}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Items) != 0 {
		t.Errorf("out-of-window query matched %d tracks", len(res.Items))
	}
	if res.Stats.Tracks != 0 {
		t.Errorf("out-of-window population is %d, want 0", res.Stats.Tracks)
	}
}

// TestCompoundCostsOneVerdictPerCluster pins the coarse-then-refine
// budget discipline via gpu.Meter deltas: a compound temporal plan
// touching one dominant cluster with several class leaves pays exactly
// one GT verdict for it, and a second plan re-using the cluster pays
// nothing (the engine's verdict cache).
func TestCompoundCostsOneVerdictPerCluster(t *testing.T) {
	var meter gpu.Meter
	ix, gtFn := buildIndex(t, 2, crossingSpecs())
	e := newEngine(t, ix, gtFn, &meter)

	before := meter.Snapshot()
	res := executeAt(t, e, "car & !bus & dur(4)", 0)
	after := meter.Snapshot()
	// dur(4) keeps tracks 0 and 1; their dominant clusters (0 and 2) each
	// take one verdict resolving both the car and bus leaves at once.
	wantOps := int64(res.Stats.GTInferences)
	if got := after.QueryOps - before.QueryOps; got != wantOps || wantOps != 2 {
		t.Errorf("meter verdicts = %d (stats %d), want 2: one per dominant cluster, not per leaf",
			got, res.Stats.GTInferences)
	}

	// A different compound plan over the same clusters: all verdicts are
	// cache hits, zero new GPU time.
	res2 := executeAt(t, e, "(car | person) & dur(4)", 0)
	final := meter.Snapshot()
	if got := final.QueryOps - after.QueryOps; got != 0 {
		t.Errorf("re-using verified clusters cost %d verdicts, want 0", got)
	}
	if res2.Stats.GTInferences != 0 {
		t.Errorf("stats charged %d inferences on a fully cached plan", res2.Stats.GTInferences)
	}
	if len(res2.Items) != 2 {
		t.Errorf("cached plan matched %v, want tracks 0 and 1", trackIDs(res2.Items))
	}
}

// TestIndexRejectionIsFree verifies the other half of the budget
// discipline: a class leaf whose dominant cluster does not index the
// class within Kx resolves False with no GT verdict at all.
func TestIndexRejectionIsFree(t *testing.T) {
	var meter gpu.Meter
	ix, gtFn := buildIndex(t, 2, crossingSpecs())
	e := newEngine(t, ix, gtFn, &meter)
	// person & vel(30): the movers' dominant clusters do not index
	// person, so both tracks die on index standing alone; the loiterer
	// fails vel(30) before any class leaf is consulted.
	res := executeAt(t, e, "person & vel(30)", 0)
	if len(res.Items) != 0 {
		t.Errorf("matched %v, want none", trackIDs(res.Items))
	}
	if got := meter.Snapshot().QueryOps; got != 0 {
		t.Errorf("index-rejected plan paid %d verdicts, want 0", got)
	}
}

// TestPagedEqualsOneShot drives the cursor page by page (page size 1 —
// every page boundary splits the remaining population mid-stream) and
// checks the concatenation is bit-identical to the one-shot ranking.
func TestPagedEqualsOneShot(t *testing.T) {
	ix, gtFn := buildIndex(t, 2, crossingSpecs())
	e := newEngine(t, ix, gtFn, nil)
	p := compile(t, "(car | person | bus) & dur(0)")

	oneShot, err := track.Execute(p, targetsAt(e, 0), track.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(oneShot.Items) == 0 {
		t.Fatal("one-shot returned nothing; fixture broken")
	}

	cur, err := track.NewCursor(p, targetsAt(e, 0), track.Options{StepClusters: 1})
	if err != nil {
		t.Fatal(err)
	}
	var paged []track.Item
	for !cur.Done() {
		page, err := cur.Next(1)
		if err != nil {
			t.Fatal(err)
		}
		paged = append(paged, page...)
	}
	if !reflect.DeepEqual(paged, oneShot.Items) {
		t.Errorf("paged ranking differs from one-shot:\n  paged   %v\n  oneshot %v", paged, oneShot.Items)
	}
	// Ranking is in RankBefore order.
	for i := 1; i < len(oneShot.Items); i++ {
		if track.RankBefore(oneShot.Items[i], oneShot.Items[i-1]) {
			t.Errorf("items %d and %d out of order", i-1, i)
		}
	}
}

// TestCompileErrors pins the compile-time validation of temporal
// expressions.
func TestCompileErrors(t *testing.T) {
	bad := []string{
		"car",                          // no temporal operator
		"seq(car, region(0,0,9,9))",    // class leaf in matcher position
		"seq(dur(1), region(0,0,9,9))", // dur in matcher position
		"within(5, vel(1))",            // vel in matcher position
		"region(9,0,0,9)",              // degenerate region
		"region(0,9,9,9)",              // degenerate region
		"dur(5,1)",                     // max below min
		"vel(5,1)",                     // max below min
		"car & dur(0) & warp_drive & region(0,0,9,9)", // unknown class
	}
	for _, expr := range bad {
		ast, err := plan.Parse(expr)
		if err != nil {
			t.Errorf("Parse(%q) failed: %v", expr, err)
			continue
		}
		if _, err := track.Compile(ast, resolver); err == nil {
			t.Errorf("Compile(%q) accepted", expr)
		}
	}
	if _, err := track.Compile(nil, resolver); err == nil {
		t.Error("nil expression accepted")
	}
}
