package track

// Differential tests of timeline assembly against the gather-and-sort
// oracle in assemble_ref_test.go. Over seeded random hand-built indexes the
// two must return the same tracks — IDs, every sighting, Dominant — for
// every combination of window, watermark and cluster budget; and under a
// concurrent writer, every reader pinned to a watermark must keep seeing
// the oracle's answer for that watermark.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"focus/internal/cluster"
	"focus/internal/index"
	"focus/internal/video"
	"focus/internal/vision"
)

// diffCluster is one hand-built cluster: its members in the (shuffled)
// order they are added, and the watermark it seals at.
type diffCluster struct {
	members []cluster.Member
	seal    float64
}

// diffCorpus is a random stream: objects drifting across the scene at one
// frame stride, with dropped sightings, spells of a coarser stride,
// whole-frame gaps, the same (frame, object) filed under two clusters with
// different boxes, and every cluster's members out of time order.
type diffCorpus struct {
	clusters []diffCluster
	fps      float64
	lastSec  float64
}

func randDiffCorpus(rng *rand.Rand) diffCorpus {
	fps := []float64{1, 2.5, 10, 30}[rng.Intn(4)]
	stride := 1 + rng.Intn(3)
	nFrames := 20 + rng.Intn(200)
	nClusters := 1 + rng.Intn(12)
	c := diffCorpus{clusters: make([]diffCluster, nClusters), fps: fps, lastSec: float64(nFrames*stride) / fps}
	// A whole-frame gap: no object is seen in [gapLo, gapHi).
	gapLo := rng.Intn(nFrames)
	gapHi := gapLo + rng.Intn(4)
	// A spell in which only every other step is sampled: a second stride.
	coarseLo := rng.Intn(nFrames)
	coarseHi := coarseLo + rng.Intn(20)
	member := func(step, object, x, y int) cluster.Member {
		frame := step * stride
		return cluster.Member{
			Object:  video.ObjectID(object),
			Frame:   video.FrameID(frame),
			TimeSec: float64(frame) / fps,
			BBox:    video.Rect{X: x, Y: y, W: 60, H: 60},
		}
	}
	for object, n := 0, 1+rng.Intn(8); object < n; object++ {
		from := rng.Intn(nFrames)
		to := from + 1 + rng.Intn(nFrames-from)
		x, y, dx := rng.Intn(400), rng.Intn(6)*40, rng.Intn(90) // dx >= 60 never overlaps
		home := rng.Intn(nClusters)
		for step := from; step < to; step++ {
			x += dx
			if step >= gapLo && step < gapHi || step >= coarseLo && step < coarseHi && step%2 == 1 || rng.Intn(12) == 0 {
				continue
			}
			if rng.Intn(15) == 0 {
				home = rng.Intn(nClusters) // the object's look changed: another cluster
			}
			cl := &c.clusters[home]
			cl.members = append(cl.members, member(step, object, x, y))
			if other := rng.Intn(nClusters); other != home && rng.Intn(10) == 0 {
				// The same sighting under a second cluster, boxed differently:
				// which copy survives decides what the next frame overlaps.
				cl := &c.clusters[other]
				cl.members = append(cl.members, member(step, object, x+rng.Intn(80), y))
			}
		}
	}
	seal := 0.0
	for i := range c.clusters {
		ms := c.clusters[i].members
		rng.Shuffle(len(ms), func(a, b int) { ms[a], ms[b] = ms[b], ms[a] })
		seal += 0.5 + rng.Float64()*c.lastSec/float64(nClusters)
		c.clusters[i].seal = seal
	}
	return c
}

var diffFeature = make(vision.FeatureVec, vision.FeatureDim)

// addTo spills cluster i of the corpus into ix. Empty clusters spill
// nothing, so cluster IDs follow the non-empty ones.
func (c diffCorpus) addTo(t testing.TB, ix *index.Index, i int) {
	eng, err := cluster.NewEngine(cluster.Config{Threshold: 1000, MaxActive: 4}, ix.AddCluster)
	if err != nil {
		t.Error(err) // not Fatal: the live-ingest test spills from its own goroutine
		return
	}
	ix.SetIngestSec(c.clusters[i].seal)
	for _, m := range c.clusters[i].members {
		eng.Add(diffFeature, m, []vision.Prediction{{Class: 1, Confidence: 1}})
	}
	eng.Flush()
}

func (c diffCorpus) index(t testing.TB) *index.Index {
	ix := index.New(index.IngestMeta{Stream: "s", ModelName: "m", K: 1, FPS: c.fps})
	for i := range c.clusters {
		c.addTo(t, ix, i)
	}
	return ix
}

// diffRead is one parameterisation of a read.
type diffRead struct {
	startSec, endSec, watermark float64
	maxClusters                 int
}

func (r diffRead) String() string {
	return fmt.Sprintf("window [%g, %g] watermark %g maxClusters %d", r.startSec, r.endSec, r.watermark, r.maxClusters)
}

func (c diffCorpus) randRead(rng *rand.Rand) diffRead {
	var r diffRead
	switch rng.Intn(4) {
	case 0: // unbounded
	case 1: // cuts tracks mid-chain, ends between frames
		r.startSec = rng.Float64() * c.lastSec
		r.endSec = r.startSec + rng.Float64()*c.lastSec/2
	case 2: // open-ended
		r.startSec = rng.Float64() * c.lastSec
	case 3: // narrower than a frame interval, usually between frames
		r.startSec = rng.Float64() * c.lastSec
		r.endSec = r.startSec + rng.Float64()/c.fps
	}
	switch rng.Intn(4) {
	case 0:
		r.watermark = -1
	case 1: // everything
	default: // between seals
		r.watermark = c.clusters[rng.Intn(len(c.clusters))].seal + rng.Float64()*0.4
	}
	r.maxClusters = []int{0, 0, 1, 5}[rng.Intn(4)]
	return r
}

func (r diffRead) timeline(ix *index.Index) []*Track {
	return Assemble(ix.Timeline(r.startSec, r.endSec, r.watermark, r.maxClusters))
}

func (r diffRead) oracle(ix *index.Index) []*Track {
	return assembleRef(sealedClustersRef(ix, r.startSec, r.endSec, r.watermark, r.maxClusters), r.startSec, r.endSec)
}

func diffSeeds() int {
	if testing.Short() {
		return 30
	}
	return 300
}

func TestTimelineAssemblyMatchesGatherAndSort(t *testing.T) {
	for seed := 0; seed < diffSeeds(); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		c := randDiffCorpus(rng)
		check := func(ix *index.Index, reads int) {
			t.Helper()
			for i := 0; i < reads; i++ {
				r := c.randRead(rng)
				got, want := r.timeline(ix), r.oracle(ix)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %v: timeline assembled %d tracks, oracle %d; first difference: %s",
						seed, r, len(got), len(want), firstTrackDiff(got, want))
				}
			}
		}
		// Every other corpus is read while it is built, so that clusters
		// land in runs whose ordered bodies are already published and each
		// later read has to merge them in.
		ix := index.New(index.IngestMeta{Stream: "s", ModelName: "m", K: 1, FPS: c.fps})
		for i := range c.clusters {
			c.addTo(t, ix, i)
			if seed%2 == 1 {
				check(ix, 2)
			}
		}
		check(ix, 12)
	}
}

func firstTrackDiff(got, want []*Track) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("track %d:\n got  %+v\n want %+v", i, *got[i], *want[i])
		}
	}
	return "one population is a prefix of the other"
}

// TestTimelinePinnedReadsUnderLiveIngest: one goroutine spills the corpus's
// clusters in order, publishing each seal time once the cluster is in;
// readers keep reading random windows pinned to published watermarks —
// whose runs the writer goes on adding to — and must see exactly what the
// oracle assembles for that watermark from the finished index.
func TestTimelinePinnedReadsUnderLiveIngest(t *testing.T) {
	const readers = 4
	seeds := diffSeeds() / 10
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(1000 + seed)))
		c := randDiffCorpus(rng)
		finished := c.index(t)
		live := index.New(finished.Meta())

		var published atomic.Int32 // clusters of the corpus spilled so far
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range c.clusters {
				c.addTo(t, live, i)
				published.Store(int32(i + 1))
			}
		}()
		for r := 0; r < readers; r++ {
			rng := rand.New(rand.NewSource(int64(seed*readers + r)))
			wg.Add(1)
			go func() {
				defer wg.Done()
				for done := false; !done; {
					n := int(published.Load())
					done = n == len(c.clusters)
					if n == 0 {
						continue
					}
					read := c.randRead(rng)
					// Pin to a published watermark: the seal of a spilled
					// cluster (seals ascend), or the empty horizon.
					if read.watermark >= 0 {
						read.watermark = c.clusters[rng.Intn(n)].seal
					}
					if got, want := read.timeline(live), read.oracle(finished); !reflect.DeepEqual(got, want) {
						t.Errorf("seed %d, %v with %d of %d clusters spilled: %d tracks, oracle has %d; first difference: %s",
							seed, read, n, len(c.clusters), len(got), len(want), firstTrackDiff(got, want))
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
