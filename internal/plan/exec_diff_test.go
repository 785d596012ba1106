package plan

// Differential test of the incremental executor against the full-scan
// oracle in exec_ref_test.go. Over seeded random indexes and plans, both
// executors are driven through the same schedule — the exact cursor's
// refine-all-then-emit rounds, or the early-exit allocator's arm pulls —
// and must agree after every advance on the dead set, the ready sequence,
// the bound (bit-equal) and every per-leaf counter. The schedule the
// harness drives is then tied back to the real entry points: Execute (paged
// at random, Workers 0 and 1) and ExecuteEarlyExit on fresh engines must
// return the items and stats the oracle produced.

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"focus/internal/cluster"
	"focus/internal/index"
	"focus/internal/query"
	"focus/internal/video"
	"focus/internal/vision"
)

const diffClasses = 5

func diffResolve(name string) (vision.ClassID, error) {
	var id int
	if _, err := fmt.Sscanf(name, "c%d", &id); err != nil || id < 1 || id > diffClasses {
		return 0, fmt.Errorf("unknown class %q", name)
	}
	return vision.ClassID(id), nil
}

// Confidences are drawn from a small set so that score ties, and ties
// between a ready score and the bound, are common; the non-dyadic values
// make the sums order-sensitive in the last bit.
var diffConfs = []float32{0.1, 0.25, 0.3, 0.5, 0.7, 0.75, 1}

type diffCorpus struct {
	ix   *index.Index
	gtFn query.GTFunc
	span float64 // last member timestamp
}

// buildDiffCorpus hand-builds one stream's index: overlapping clusters over
// a small frame universe, each with a random top-3 and a GT verdict that is
// usually, not always, its top class.
func buildDiffCorpus(t *testing.T, rng *rand.Rand, stream string) diffCorpus {
	t.Helper()
	ix := index.New(index.IngestMeta{Stream: stream, ModelName: "m", K: 3, FPS: video.NativeFPS})
	nFrames := 30 + rng.Intn(150)
	nClusters := rng.Intn(70)
	if rng.Intn(10) == 0 {
		nClusters = 0
	}
	verdicts := map[int64]vision.ClassID{}
	feature := make(vision.FeatureVec, vision.FeatureDim)
	for i := 0; i < nClusters; i++ {
		eng, err := cluster.NewEngine(cluster.Config{Threshold: 1000, MaxActive: 10}, ix.AddCluster)
		if err != nil {
			t.Fatal(err)
		}
		classes := rng.Perm(diffClasses)[:1+rng.Intn(3)]
		ranked := make([]vision.Prediction, len(classes))
		for j, c := range classes {
			ranked[j] = vision.Prediction{Class: vision.ClassID(c + 1), Confidence: diffConfs[rng.Intn(len(diffConfs))]}
		}
		start, stride := rng.Intn(nFrames), 1+rng.Intn(3)
		for j, n := 0, 1+rng.Intn(40); j < n; j++ {
			frame := start + j*stride
			if rng.Intn(6) == 0 {
				frame = rng.Intn(nFrames) // a stray sighting, possibly a repeated frame
			}
			frame %= nFrames
			eng.Add(feature, cluster.Member{
				Object:  video.ObjectID(i*1000 + j),
				Frame:   video.FrameID(frame),
				TimeSec: float64(frame) / video.NativeFPS,
				Seed:    int64(i),
			}, ranked)
		}
		ix.SetIngestSec(float64(i + 1)) // cluster i seals at watermark i+1
		eng.Flush()
		verdicts[int64(i)] = ranked[0].Class
		if rng.Intn(5) < 2 {
			verdicts[int64(i)] = vision.ClassID(1 + rng.Intn(diffClasses))
		}
	}
	return diffCorpus{
		ix:   ix,
		gtFn: func(m cluster.Member) vision.ClassID { return verdicts[m.Seed] },
		span: float64(nFrames) / video.NativeFPS,
	}
}

// The GT model and class space only price and label verification here (the
// verdicts come from gtFn); building a space is expensive, so all engines
// share one.
var diffGT, diffSpace = vision.NewZoo().GT, vision.NewSpace(1)

func (c diffCorpus) engine(t *testing.T) *query.Engine {
	t.Helper()
	e, err := query.NewEngine(c.ix, diffGT, diffSpace, c.gtFn, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func randLeafOptions(rng *rand.Rand, span float64) LeafOptions {
	var o LeafOptions
	if rng.Intn(2) == 0 {
		o.StartSec = rng.Float64() * span * 0.6
		o.EndSec = o.StartSec + rng.Float64()*span
	}
	if rng.Intn(3) == 0 {
		o.MaxClusters = 1 + rng.Intn(20)
	}
	if rng.Intn(4) == 0 {
		o.Kx = 1 + rng.Intn(3)
	}
	return o
}

func randExpr(rng *rand.Rand, depth int, span float64) Expr {
	if depth == 0 || rng.Intn(3) == 0 {
		leaf := &Leaf{Class: fmt.Sprintf("c%d", 1+rng.Intn(diffClasses))}
		if rng.Intn(4) == 0 {
			leaf.Opts = randLeafOptions(rng, span)
		}
		return leaf
	}
	switch rng.Intn(5) {
	case 0:
		return &Not{Child: randExpr(rng, depth-1, span)}
	case 1, 2:
		kids := make([]Expr, 2+rng.Intn(2))
		for i := range kids {
			kids[i] = randExpr(rng, depth-1, span)
		}
		return &Or{Children: kids}
	default:
		kids := make([]Expr, 2+rng.Intn(2))
		for i := range kids {
			kids[i] = randExpr(rng, depth-1, span)
		}
		return &And{Children: kids}
	}
}

// randPlan draws expressions until one compiles (is anchored).
func randPlan(t *testing.T, rng *rand.Rand, span float64) *Plan {
	t.Helper()
	for {
		p, err := Compile(randExpr(rng, 3, span), diffResolve)
		if err == nil {
			return p
		}
	}
}

// execPair is one stream run by both executors.
type execPair struct {
	got *streamExec
	ref *refStreamExec
}

func (p execPair) advance(t *testing.T, step int, ctx string) {
	t.Helper()
	p.got.advance(step)
	p.ref.advance(step)
	p.check(t, ctx)
}

func (p execPair) check(t *testing.T, ctx string) {
	t.Helper()
	got, ref := p.got, p.ref
	if got.bound != ref.bound {
		t.Fatalf("%s: stream %s bound %v, oracle %v", ctx, got.name, got.bound, ref.bound)
	}
	if got.resolvedAll != ref.resolvedAll {
		t.Fatalf("%s: stream %s resolvedAll %v, oracle %v", ctx, got.name, got.resolvedAll, ref.resolvedAll)
	}
	if len(got.frameID) != len(ref.frames) {
		t.Fatalf("%s: stream %s has %d frames, oracle %d", ctx, got.name, len(got.frameID), len(ref.frames))
	}
	for f, id := range got.frameID {
		fs := ref.frames[id]
		if fs == nil {
			t.Fatalf("%s: stream %s frame %d unknown to the oracle", ctx, got.name, id)
		}
		if dead := got.fate[f] == frameDead; dead != fs.dead {
			t.Fatalf("%s: stream %s frame %d dead %v, oracle %v", ctx, got.name, id, dead, fs.dead)
		}
		if !slices.Equal(got.frameStatus(int32(f)), fs.status) {
			t.Fatalf("%s: stream %s frame %d status %v, oracle %v", ctx, got.name, id, got.frameStatus(int32(f)), fs.status)
		}
	}
	ready := slices.Clone(got.ready)
	sort.Slice(ready, func(i, j int) bool { return RankBefore(ready[i], ready[j]) })
	if want := ref.ready[ref.readyPos:]; !slices.Equal(ready, want) {
		t.Fatalf("%s: stream %s ready sequence\n got %v\nwant %v", ctx, got.name, ready, want)
	}
	for li, le := range got.leaves {
		re := ref.leaves[li]
		if le.verified != re.verified || le.skipped != re.skipped || le.matched != re.matched || le.next != re.next {
			t.Fatalf("%s: stream %s leaf %d verified/skipped/matched/next %d/%d/%d/%d, oracle %d/%d/%d/%d",
				ctx, got.name, li, le.verified, le.skipped, le.matched, le.next, re.verified, re.skipped, re.matched, re.next)
		}
		if !slices.Equal(le.state, re.state) {
			t.Fatalf("%s: stream %s leaf %d candidate states %v, oracle %v", ctx, got.name, li, le.state, re.state)
		}
	}
	if got.verifier.Inferences != ref.verifier.Inferences || got.verifier.GPUTimeMS != ref.verifier.GPUTimeMS ||
		got.verifier.LatencyMS() != ref.verifier.LatencyMS() || len(got.uniqueVerified) != len(ref.uniqueVerified) {
		t.Fatalf("%s: stream %s verifier counters diverged", ctx, got.name)
	}
}

// pop emits the head of both ready lists, which must be the same item.
func (p execPair) pop(t *testing.T, ctx string) Item {
	t.Helper()
	a, aok := p.got.peek()
	b, bok := p.ref.peek()
	if !aok || !bok || a != b {
		t.Fatalf("%s: stream %s head %v (%v), oracle %v (%v)", ctx, p.got.name, a, aok, b, bok)
	}
	p.got.pop()
	p.ref.pop()
	return a
}

func refStats(canonical string, pairs []execPair, done bool) Stats {
	st := Stats{Canonical: canonical, PerStream: map[string]*StreamStats{}, Done: done}
	for _, p := range pairs {
		s := p.ref
		ss := &StreamStats{
			Watermark:        s.watermark,
			VerifiedClusters: len(s.uniqueVerified),
			GTInferences:     s.verifier.Inferences,
			GPUTimeMS:        s.verifier.GPUTimeMS,
			LatencyMS:        s.verifier.LatencyMS(),
		}
		for _, le := range s.leaves {
			ss.Leaves = append(ss.Leaves, LeafStat{
				Class: le.spec.name, ViaOther: le.viaOther, Candidates: len(le.cands),
				Verified: le.verified, Skipped: le.skipped, Matched: le.matched,
			})
			ss.SkippedClusters += le.skipped
		}
		st.PerStream[s.name] = ss
		st.GTInferences += ss.GTInferences
		st.GPUTimeMS += ss.GPUTimeMS
		st.LatencyMS = max(st.LatencyMS, ss.LatencyMS)
	}
	return st
}

// lockstepExact replays Cursor.Next's schedule on the pairs, taking every
// decision from the oracle.
func lockstepExact(t *testing.T, pairs []execPair, opts Options, ctx string) ([]Item, bool) {
	t.Helper()
	var out []Item
	for round := 0; ; {
		best, maxBound := -1, -1.0
		var bestItem Item
		for i, p := range pairs {
			if item, ok := p.ref.peek(); ok && (best < 0 || RankBefore(item, bestItem)) {
				best, bestItem = i, item
			}
			maxBound = max(maxBound, p.ref.bound)
		}
		if best >= 0 && bestItem.Score > maxBound {
			out = append(out, pairs[best].pop(t, ctx))
			if opts.TopK > 0 && len(out) >= opts.TopK {
				return out, true
			}
			continue
		}
		refined := false
		for _, p := range pairs {
			if !p.ref.resolvedAll {
				refined = true
				p.advance(t, opts.StepClusters, fmt.Sprintf("%s round %d", ctx, round))
			}
		}
		if !refined {
			return out, true
		}
		round++
	}
}

// lockstepEarly replays ExecuteEarlyExit's pull sequence on the pairs.
func lockstepEarly(t *testing.T, p *Plan, targets []Target, pairs []execPair, opts Options, ctx string) []Item {
	t.Helper()
	alloc := query.NewExSample(earlyExitSource(p, targets), len(pairs))
	var items []Item
	drain := func(pr execPair) {
		for {
			if _, ok := pr.ref.peek(); !ok {
				if _, ok := pr.got.peek(); ok {
					t.Fatalf("%s: stream %s has ready items the oracle lacks", ctx, pr.got.name)
				}
				return
			}
			items = append(items, pr.pop(t, ctx))
		}
	}
	for i, pr := range pairs {
		drain(pr)
		if pr.ref.resolvedAll {
			alloc.Exhaust(i)
		}
	}
	for pull := 0; len(items) < opts.TopK && !alloc.Exhausted(); pull++ {
		arm, ok := alloc.Pick()
		if !ok {
			break
		}
		before := len(items)
		pairs[arm].advance(t, opts.StepClusters, fmt.Sprintf("%s pull %d arm %d", ctx, pull, arm))
		drain(pairs[arm])
		alloc.Record(arm, len(items) > before)
		if pairs[arm].ref.resolvedAll {
			alloc.Exhaust(arm)
		}
	}
	sort.Slice(items, func(i, j int) bool { return RankBefore(items[i], items[j]) })
	if len(items) > opts.TopK {
		items = items[:opts.TopK]
	}
	return items
}

func diffSeeds() int {
	if testing.Short() {
		return 40
	}
	return 250
}

func TestIncrementalExecutorMatchesFullScan(t *testing.T) {
	for seed := 1; seed <= diffSeeds(); seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		corpora := make([]diffCorpus, 1+rng.Intn(4))
		span := 0.0
		for i := range corpora {
			corpora[i] = buildDiffCorpus(t, rng, fmt.Sprintf("s%d", i))
			span = max(span, corpora[i].span)
		}
		p := randPlan(t, rng, span)
		opts := Options{
			TopK:         []int{0, 1, 10}[rng.Intn(3)],
			StepClusters: []int{1, 3, 8}[rng.Intn(3)],
		}
		if rng.Intn(3) == 0 {
			opts.DefaultLeaf = randLeafOptions(rng, span)
		}
		watermarks := make([]float64, len(corpora))
		for i := range watermarks {
			if rng.Intn(3) == 0 {
				watermarks[i] = float64(rng.Intn(70)) - 1 // -1 is the empty horizon, 0 unbounded
			}
		}
		// Every run gets engines of its own, so every run starts with cold
		// verdict caches and the GPU counters are comparable.
		targets := func() []Target {
			ts := make([]Target, len(corpora))
			for i, c := range corpora {
				ts[i] = Target{Stream: fmt.Sprintf("s%d", i), Engine: c.engine(t), Watermark: watermarks[i], NumGPUs: 1 + i}
			}
			return ts
		}
		pairsFor := func(ctx string) []execPair {
			got, ref := targets(), targets()
			pairs := make([]execPair, len(corpora))
			for i := range pairs {
				g, err := newStreamExec(p, got[i], opts)
				if err != nil {
					t.Fatal(err)
				}
				r, err := newRefStreamExec(p, ref[i], opts)
				if err != nil {
					t.Fatal(err)
				}
				pairs[i] = execPair{got: g, ref: r}
				pairs[i].check(t, ctx+" at construction")
			}
			return pairs
		}

		ctx := fmt.Sprintf("seed %d %q %+v exact", seed, p.Canonical(), opts)
		pairs := pairsFor(ctx)
		wantItems, done := lockstepExact(t, pairs, opts, ctx)
		want := &Result{Items: wantItems, Stats: refStats(p.canonical, pairs, done)}
		for _, workers := range []int{0, 1} {
			o := opts
			o.Workers = workers
			cur, err := NewCursor(p, targets(), o)
			if err != nil {
				t.Fatal(err)
			}
			got := &Result{}
			for !cur.Done() {
				page, err := cur.Next(rng.Intn(7)) // 0 drains
				if err != nil {
					t.Fatal(err)
				}
				got.Items = append(got.Items, page...)
			}
			got.Stats = cur.Stats()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s workers %d: paged execution diverged from the oracle\n got %d items %+v\nwant %d items %+v",
					ctx, workers, len(got.Items), got.Stats, len(want.Items), want.Stats)
			}
		}

		if opts.TopK == 0 {
			continue
		}
		ctx = fmt.Sprintf("seed %d %q %+v early-exit", seed, p.Canonical(), opts)
		pairs = pairsFor(ctx)
		wantItems = lockstepEarly(t, p, targets(), pairs, opts, ctx)
		want = &Result{Items: wantItems, Stats: refStats(p.canonical, pairs, true)}
		want.Stats.EarlyExit = true
		got, err := ExecuteEarlyExit(p, targets(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: early-exit execution diverged from the oracle\n got %d items %+v\nwant %d items %+v",
				ctx, len(got.Items), got.Stats, len(want.Items), want.Stats)
		}
	}
}
