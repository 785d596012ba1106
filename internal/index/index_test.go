package index

import (
	"testing"

	"focus/internal/cluster"
	"focus/internal/kvstore"
	"focus/internal/video"
	"focus/internal/vision"
)

func testMeta() IngestMeta {
	return IngestMeta{
		Stream:      "teststream",
		ModelName:   "resnet18",
		K:           4,
		DurationSec: 60,
		FPS:         30,
	}
}

// buildCluster makes a spill-ready cluster through the clustering engine so
// the index test exercises the real handoff.
func buildCluster(t *testing.T, id int, classes []vision.ClassID, confs []float32, members int) *cluster.Cluster {
	t.Helper()
	var out *cluster.Cluster
	e, err := cluster.NewEngine(cluster.Config{Threshold: 100, MaxActive: 10},
		func(c *cluster.Cluster) { out = c })
	if err != nil {
		t.Fatal(err)
	}
	ranked := make([]vision.Prediction, len(classes))
	for i := range classes {
		ranked[i] = vision.Prediction{Class: classes[i], Confidence: confs[i]}
	}
	f := make(vision.FeatureVec, vision.FeatureDim)
	for i := 0; i < members; i++ {
		m := cluster.Member{
			Object:    video.ObjectID(id*100 + i),
			Frame:     video.FrameID(id*1000 + i*10),
			TimeSec:   float64(id*10 + i),
			TrueClass: classes[0],
			Seed:      int64(id*100 + i),
		}
		e.Add(f, m, ranked)
	}
	e.Flush()
	if out == nil {
		t.Fatal("no cluster spilled")
	}
	return out
}

func TestAddAndLookup(t *testing.T) {
	ix := New(testMeta())
	c1 := buildCluster(t, 1, []vision.ClassID{5, 9, 2}, []float32{0.8, 0.15, 0.05}, 3)
	c2 := buildCluster(t, 2, []vision.ClassID{9, 5}, []float32{0.9, 0.1}, 2)
	ix.AddCluster(c1)
	ix.AddCluster(c2)

	if ix.NumClusters() != 2 {
		t.Fatalf("clusters = %d", ix.NumClusters())
	}
	// Index-assigned IDs: c1 → 0, c2 → 1 in insertion order.
	// Class 5: rank 1 in c1, rank 2 in c2.
	recs := ix.Lookup(5, 0)
	if len(recs) != 2 {
		t.Fatalf("lookup(5) = %d records", len(recs))
	}
	if recs[0].ID != 0 {
		t.Errorf("rank-1 cluster should come first")
	}
	// Kx = 1 cuts to rank-1 postings only (§5 dynamic Kx).
	recs = ix.Lookup(5, 1)
	if len(recs) != 1 || recs[0].ID != 0 {
		t.Errorf("lookup(5, kx=1) = %v", recs)
	}
	recs = ix.Lookup(9, 1)
	if len(recs) != 1 || recs[0].ID != 1 {
		t.Errorf("lookup(9, kx=1) wrong")
	}
	if got := ix.Lookup(777, 0); len(got) != 0 {
		t.Errorf("lookup(absent) = %v", got)
	}
}

func TestLookupKxDefaultsToK(t *testing.T) {
	ix := New(testMeta())
	ix.AddCluster(buildCluster(t, 1, []vision.ClassID{1, 2, 3, 4, 5, 6}, []float32{6, 5, 4, 3, 2, 1}, 1))
	// K = 4: classes 5 and 6 fall outside the indexed top-K.
	if got := ix.Lookup(5, 0); len(got) != 0 {
		t.Errorf("class at rank 5 indexed despite K=4")
	}
	if got := ix.Lookup(4, 0); len(got) != 1 {
		t.Errorf("class at rank 4 not indexed")
	}
	// kx beyond K clamps to K.
	if got := ix.Lookup(5, 99); len(got) != 0 {
		t.Errorf("kx beyond K not clamped")
	}
}

func TestHasClassAndClasses(t *testing.T) {
	ix := New(testMeta())
	ix.AddCluster(buildCluster(t, 1, []vision.ClassID{7, 3}, []float32{0.9, 0.1}, 1))
	if !ix.HasClass(7) || !ix.HasClass(3) || ix.HasClass(8) {
		t.Error("HasClass wrong")
	}
	cs := ix.Classes()
	if len(cs) != 2 || cs[0] != 3 || cs[1] != 7 {
		t.Errorf("Classes = %v", cs)
	}
}

func TestRecordFields(t *testing.T) {
	ix := New(testMeta())
	c := buildCluster(t, 3, []vision.ClassID{1}, []float32{1}, 5)
	ix.AddCluster(c)
	rec := ix.Lookup(1, 0)[0]
	if rec.Size() != 5 {
		t.Errorf("size = %d", rec.Size())
	}
	if rec.MinTime != 30 || rec.MaxTime != 34 {
		t.Errorf("time range = [%v, %v]", rec.MinTime, rec.MaxTime)
	}
	if rec.Rep.Seed == 0 && rec.Rep.Object == 0 {
		t.Error("representative looks zero-valued")
	}
	if got := ix.Cluster(rec.ID); got != rec {
		t.Error("Cluster(id) lookup failed")
	}
	if ix.Cluster(999) != nil {
		t.Error("absent cluster id returned record")
	}
}

func TestIndexAssignsUniqueIDs(t *testing.T) {
	// Clusters from independent engines reuse engine-local IDs; the index
	// must assign its own.
	ix := New(testMeta())
	c1 := buildCluster(t, 1, []vision.ClassID{1}, []float32{1}, 1)
	c2 := buildCluster(t, 2, []vision.ClassID{1}, []float32{1}, 1)
	if c1.ID != c2.ID {
		t.Skip("engines no longer reuse IDs; test premise gone")
	}
	ix.AddCluster(c1)
	ix.AddCluster(c2)
	if ix.NumClusters() != 2 {
		t.Errorf("clusters = %d, want 2 despite engine ID collision", ix.NumClusters())
	}
}

// TestRecordOutOfDenseOrderRejected: the cluster table is indexed by ID, so
// a record is accepted only under the next dense ID — a hole or a repeat
// (either would mean a damaged store) is an error, not a silent overwrite.
func TestRecordOutOfDenseOrderRejected(t *testing.T) {
	ix := New(testMeta())
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if err := ix.addRecordLocked(&ClusterRecord{ID: 7}); err == nil {
		t.Error("record 7 accepted by an empty index")
	}
	if err := ix.addRecordLocked(&ClusterRecord{ID: 0}); err != nil {
		t.Errorf("record 0 rejected by an empty index: %v", err)
	}
	if err := ix.addRecordLocked(&ClusterRecord{ID: 0}); err == nil {
		t.Error("duplicate record 0 accepted")
	}
	if len(ix.clusters) != 1 {
		t.Errorf("table holds %d records, want 1", len(ix.clusters))
	}
}

func TestStats(t *testing.T) {
	ix := New(testMeta())
	ix.AddCluster(buildCluster(t, 1, []vision.ClassID{1, 2}, []float32{2, 1}, 4))
	ix.AddCluster(buildCluster(t, 2, []vision.ClassID{1}, []float32{1}, 2))
	st := ix.Stats()
	if st.Clusters != 2 || st.Members != 6 || st.LargestCluster != 4 {
		t.Errorf("stats = %+v", st)
	}
	if st.MeanSize != 3 {
		t.Errorf("mean size = %v", st.MeanSize)
	}
	if st.Postings != 3 {
		t.Errorf("postings = %d", st.Postings)
	}
}

func TestSetTotalSightings(t *testing.T) {
	ix := New(testMeta())
	ix.SetTotalSightings(12345)
	if ix.Meta().TotalSightings != 12345 {
		t.Error("SetTotalSightings not reflected")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	store, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	ix := New(testMeta())
	ix.AddCluster(buildCluster(t, 1, []vision.ClassID{5, 9}, []float32{0.8, 0.2}, 3))
	ix.AddCluster(buildCluster(t, 2, []vision.ClassID{9}, []float32{1}, 2))
	ix.SetTotalSightings(5)
	if err := ix.Save(store); err != nil {
		t.Fatal(err)
	}

	loaded, err := Load(store, "teststream")
	if err != nil {
		t.Fatal(err)
	}
	if lm, im := loaded.Meta(), ix.Meta(); lm.Stream != im.Stream || lm.ModelName != im.ModelName || lm.K != im.K {
		t.Errorf("meta mismatch: %+v vs %+v", lm, im)
	}
	if loaded.NumClusters() != 2 {
		t.Fatalf("loaded clusters = %d", loaded.NumClusters())
	}
	orig := ix.Lookup(5, 0)
	got := loaded.Lookup(5, 0)
	if len(got) != len(orig) {
		t.Fatalf("lookup sizes differ: %d vs %d", len(got), len(orig))
	}
	for i := range got {
		if got[i].ID != orig[i].ID || got[i].Size() != orig[i].Size() {
			t.Errorf("record %d differs", i)
		}
		if got[i].Rep != orig[i].Rep {
			t.Errorf("representative differs")
		}
	}
	if loaded.Meta().TotalSightings != 5 {
		t.Errorf("TotalSightings = %d", loaded.Meta().TotalSightings)
	}
}

func TestSaveReplacesStale(t *testing.T) {
	store, err := kvstore.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	ix1 := New(testMeta())
	ix1.AddCluster(buildCluster(t, 1, []vision.ClassID{5}, []float32{1}, 1))
	ix1.AddCluster(buildCluster(t, 2, []vision.ClassID{5}, []float32{1}, 1))
	if err := ix1.Save(store); err != nil {
		t.Fatal(err)
	}

	ix2 := New(testMeta())
	ix2.AddCluster(buildCluster(t, 7, []vision.ClassID{6}, []float32{1}, 1))
	if err := ix2.Save(store); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(store, "teststream")
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumClusters() != 1 {
		t.Errorf("stale clusters survived: %d", loaded.NumClusters())
	}
	if len(loaded.Lookup(5, 0)) != 0 {
		t.Error("stale postings survived")
	}
}

func TestLoadMissingStream(t *testing.T) {
	store, _ := kvstore.Open("")
	defer store.Close()
	if _, err := Load(store, "nope"); err == nil {
		t.Error("loading absent stream succeeded")
	}
}

func BenchmarkLookup(b *testing.B) {
	ix := New(IngestMeta{Stream: "s", K: 60})
	e, err := cluster.NewEngine(cluster.Config{Threshold: 0.01, MaxActive: 4096},
		ix.AddCluster)
	if err != nil {
		b.Fatal(err)
	}
	ranked := make([]vision.Prediction, 60)
	for i := range ranked {
		ranked[i] = vision.Prediction{Class: vision.ClassID(i), Confidence: float32(60 - i)}
	}
	f := make(vision.FeatureVec, vision.FeatureDim)
	for i := 0; i < 2000; i++ {
		f[0] = float32(i)
		e.Add(f, cluster.Member{Object: video.ObjectID(i)}, ranked)
	}
	e.Flush()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix.Lookup(vision.ClassID(i%60), 30)
	}
}
