// Package query implements Focus's query-time path (§3 QT1–QT4): given a
// class X, look up the top-K ingest index for matching clusters (QT2), run
// the expensive GT-CNN on each cluster's centroid object (QT3), and return
// the frames of every cluster whose centroid the GT-CNN confirms as X
// (QT4). The GT-CNN verification step restores the precision that the
// approximate top-K index gives up (§4.1).
//
// Queries can restrict the time range, lower Kx below the indexed K for
// faster-but-lower-recall retrieval, and cap the number of clusters
// examined for batched "give me some results now" retrieval (§5).
package query

import (
	"fmt"

	"focus/internal/cluster"
	"focus/internal/gpu"
	"focus/internal/index"
	"focus/internal/parallel"
	"focus/internal/video"
	"focus/internal/vision"
)

// GTFunc classifies a cluster member with the ground-truth CNN. The engine
// treats it as an expensive oracle: every distinct member classification
// costs GT-CNN GPU time.
type GTFunc func(m cluster.Member) vision.ClassID

// Engine answers queries against one stream's index.
// Safe for concurrent use by multiple queries.
type Engine struct {
	ix     *index.Index
	gt     *vision.Model
	gtFn   GTFunc
	meter  *gpu.Meter
	space  *vision.Space
	gtCost float64

	// gtCache memoizes GT-CNN verdicts per cluster so repeated queries
	// never pay for the same centroid twice (§6.7: "we run GT-CNN per
	// object cluster only once").
	gtCache *gtCache
}

// NewEngine builds a query engine. gtFn must be the stream-consistent
// ground-truth classifier; meter may be nil to skip accounting.
func NewEngine(ix *index.Index, gt *vision.Model, space *vision.Space, gtFn GTFunc, meter *gpu.Meter) (*Engine, error) {
	if ix == nil || gt == nil || gtFn == nil {
		return nil, fmt.Errorf("query: index, GT model and GT function are required")
	}
	return &Engine{
		ix:      ix,
		gt:      gt,
		gtFn:    gtFn,
		meter:   meter,
		space:   space,
		gtCost:  gt.CostMS(),
		gtCache: newGTCache(),
	}, nil
}

// Options tunes one query.
type Options struct {
	// Kx, when in [1, K), restricts retrieval to clusters that rank the
	// class within their top-Kx, trading recall for latency (§5). Zero
	// uses the index's full K.
	Kx int
	// StartSec/EndSec restrict the query to a time window; EndSec <= 0
	// means unbounded.
	StartSec, EndSec float64
	// MaxClusters caps how many clusters are examined, for batched
	// retrieval of "the first few results" (§5). Zero examines all.
	MaxClusters int
	// MaxSealSec, when positive, restricts the query to clusters sealed at
	// or before this ingest watermark. A query at watermark W is a pure
	// function of (class, options, W): ingestion advancing past W never
	// changes its answer, so queries never race a live ingester and results
	// may be cached per watermark. Zero queries everything indexed so far;
	// negative matches nothing (the horizon before any watermark has been
	// published).
	MaxSealSec float64
	// NumGPUs is the parallelism available for GT-CNN verification; the
	// reported latency is the makespan across this many GPUs. Zero means 1.
	NumGPUs int
}

// Result is the answer to one query.
type Result struct {
	// Class is the queried class.
	Class vision.ClassID
	// Frames are the matching frame IDs, ascending and de-duplicated.
	Frames []video.FrameID
	// Segments are the 1-second segments covered by Frames, ascending.
	Segments []video.SegmentID
	// ExaminedClusters is how many clusters were retrieved from the index.
	ExaminedClusters int
	// MatchedClusters is how many of those the GT-CNN confirmed.
	MatchedClusters int
	// GTInferences is how many GT-CNN invocations this query actually paid
	// for (cache hits from earlier queries are free).
	GTInferences int
	// GPUTimeMS is the total GPU time consumed.
	GPUTimeMS float64
	// LatencyMS is the simulated query latency: the GT-CNN verification
	// makespan across NumGPUs.
	LatencyMS float64
	// ViaOther reports that the class was not among the specialized ingest
	// model's classes and was answered through the OTHER postings (§4.3).
	ViaOther bool
}

// Candidates performs the retrieval half of a query (QT1/QT2) without any
// GT-CNN verification: it looks up the clusters that index class c within
// the Kx cut, applies the watermark (MaxSealSec), window, and MaxClusters
// filters, and returns the surviving records in retrieval order — postings
// rank order, the same order Query examines them in. viaOther reports that
// the class was not in a specialized ingest model's vocabulary and was
// routed through the OTHER postings (§4.3).
//
// Retrieval touches only the in-memory index, so callers (the compound
// query planner) use it to estimate a predicate leaf's selectivity before
// spending any GPU time.
func (e *Engine) Candidates(c vision.ClassID, opts Options) (cands []*index.ClusterRecord, viaOther bool, err error) {
	if opts.Kx < 0 || opts.MaxClusters < 0 {
		return nil, false, fmt.Errorf("query: negative Kx or MaxClusters")
	}
	meta := e.ix.Meta()
	lookup := c
	if meta.Specialized && c != vision.ClassOther && !containsClass(meta.SpecialClasses, c) {
		lookup = vision.ClassOther
		viaOther = true
	}
	recs := e.ix.Lookup(lookup, opts.Kx)
	cands = make([]*index.ClusterRecord, 0, len(recs))
	for _, rec := range recs {
		if opts.MaxClusters > 0 && len(cands) >= opts.MaxClusters {
			break
		}
		if opts.MaxSealSec != 0 && rec.SealSec > opts.MaxSealSec {
			continue
		}
		if !rec.Overlaps(opts.StartSec, opts.EndSec) {
			continue
		}
		cands = append(cands, rec)
	}
	return cands, viaOther, nil
}

// Timeline returns the index's sighting timeline for the options' time
// window at the options' watermark (MaxSealSec, same semantics as
// Candidates), limited to the first MaxClusters visible clusters that
// overlap the window, ascending by cluster ID. No class lookup is involved:
// this is the retrieval primitive for the track layer, which assembles every
// visible sighting into tracks first and consults class postings only
// afterwards. Like Candidates it touches only the in-memory index — no GPU
// time.
func (e *Engine) Timeline(opts Options) (*index.Timeline, error) {
	if opts.MaxClusters < 0 {
		return nil, fmt.Errorf("query: negative MaxClusters")
	}
	return e.ix.Timeline(opts.StartSec, opts.EndSec, opts.MaxSealSec, opts.MaxClusters), nil
}

// ClassStanding reports how class c stands in one cluster's top-Kx cut,
// applying the same OTHER routing as Candidates (§4.3): conf is the
// cluster-level confidence of the looked-up class (0 when absent), inCut
// reports whether its rank is within the effective Kx, and viaOther reports
// that the class was routed through the OTHER postings. A class outside the
// cut can be rejected without a GT-CNN invocation — the index already
// vouches the cluster does not plausibly contain it — which is how the
// track layer prices class predicates before spending GPU time.
func (e *Engine) ClassStanding(rec *index.ClusterRecord, c vision.ClassID, kx int) (conf float64, inCut, viaOther bool) {
	meta := e.ix.Meta()
	lookup := c
	if meta.Specialized && c != vision.ClassOther && !containsClass(meta.SpecialClasses, c) {
		lookup = vision.ClassOther
		viaOther = true
	}
	if kx <= 0 || kx > meta.K {
		kx = meta.K
	}
	for i, p := range rec.TopK {
		if p.Class == lookup {
			return float64(p.Confidence), i < kx, viaOther
		}
	}
	return 0, false, viaOther
}

// BatchVerifier runs GT-CNN verification over batches of cluster records,
// accumulating cost across batches: verdicts are memoized in the engine's
// shared gtCache (an object cluster is never verified twice, §6.7), cache
// misses within a batch fan out across numGPUs workers, and every miss is
// submitted to one simulated GPU pool so LatencyMS reports the makespan of
// all verification this verifier has performed. The compound query planner
// drives one verifier per stream through many incremental batches; Query
// uses one for its single batch. Not safe for concurrent use.
type BatchVerifier struct {
	e       *Engine
	pool    *gpu.Pool
	numGPUs int

	// Inferences counts the GT-CNN invocations actually paid for (cache
	// hits are free); GPUTimeMS is their total simulated cost.
	Inferences int
	GPUTimeMS  float64
}

// NewBatchVerifier builds a verifier scheduling across numGPUs simulated
// GPUs (minimum 1).
func (e *Engine) NewBatchVerifier(numGPUs int) (*BatchVerifier, error) {
	if numGPUs <= 0 {
		numGPUs = 1
	}
	pool, err := gpu.NewPool(numGPUs)
	if err != nil {
		return nil, err
	}
	return &BatchVerifier{e: e, pool: pool, numGPUs: numGPUs}, nil
}

// Verify returns the GT-CNN verdict for each record, in order. Cache misses
// are verified as one batch fanned out across the verifier's GPU workers —
// the whole batch is in hand, so there is no reason to verify one at a time.
// Cache fills, meter charges and simulated-pool submissions then run in
// input order, keeping every counter and the makespan bit-identical to the
// sequential path.
func (v *BatchVerifier) Verify(cands []*index.ClusterRecord) []vision.ClassID {
	e := v.e
	verdicts := make([]vision.ClassID, len(cands))
	misses := make([]int, 0, len(cands))
	for i, rec := range cands {
		if verdict, ok := e.gtCache.get(rec.ID); ok {
			verdicts[i] = verdict
		} else {
			misses = append(misses, i)
		}
	}
	workers := parallel.StreamWorkers(len(misses), v.numGPUs)
	parallel.ForEach(workers, workers, func(w int) error {
		// Strided partition: verification costs are uniform, so stride w
		// balances the batch across workers without coordination. Each
		// worker paces its own share of the simulated GPU stalls.
		var pacer *gpu.Pacer
		if e.meter != nil {
			pacer = e.meter.NewPacer()
		}
		for j := w; j < len(misses); j += workers {
			i := misses[j]
			verdicts[i] = e.gtFn(cands[i].Rep)
			if pacer != nil {
				pacer.Add(e.gtCost)
			}
		}
		if pacer != nil {
			pacer.Flush()
		}
		return nil
	})
	for _, i := range misses {
		e.gtCache.put(cands[i].ID, verdicts[i])
		v.Inferences++
		v.GPUTimeMS += e.gtCost
		v.pool.Submit(e.gtCost)
		if e.meter != nil {
			e.meter.AddQuery(e.gtCost)
		}
	}
	return verdicts
}

// LatencyMS is the simulated makespan of all verification performed so far:
// the query latency across the verifier's GPUs.
func (v *BatchVerifier) LatencyMS() float64 { return v.pool.MakespanMS() }

// Query answers "find all frames containing class c" (§3).
func (e *Engine) Query(c vision.ClassID, opts Options) (*Result, error) {
	// QT1/QT2: retrieve candidate clusters. A class outside a specialized
	// ingest model's vocabulary lives in the OTHER postings (§4.3).
	cands, viaOther, err := e.Candidates(c, opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Class: c, ViaOther: viaOther, ExaminedClusters: len(cands)}

	// QT3: GT-CNN on each centroid object, memoized per cluster.
	verifier, err := e.NewBatchVerifier(opts.NumGPUs)
	if err != nil {
		return nil, err
	}
	verdicts := verifier.Verify(cands)
	res.GTInferences = verifier.Inferences
	res.GPUTimeMS = verifier.GPUTimeMS

	// QT4: the frames of every cluster whose centroid matched. Each record
	// yields its window's members by binary search; frames and segments are
	// marked in tables over the span those members cover and read back
	// ascending.
	wins := make([][]cluster.Member, 0, len(cands))
	var frames, segs span
	for i, rec := range cands {
		if verdicts[i] != c {
			continue
		}
		res.MatchedClusters++
		win := rec.Window(opts.StartSec, opts.EndSec)
		if len(win) == 0 {
			continue
		}
		wins = append(wins, win)
		for j := range win {
			frames.include(int64(win[j].Frame))
		}
		// Members are in time order, so the ends bound the segments.
		segs.include(int64(video.SegmentOf(win[0].TimeSec)))
		segs.include(int64(video.SegmentOf(win[len(win)-1].TimeSec)))
	}
	res.LatencyMS = verifier.LatencyMS()

	frameSeen, segSeen := frames.table(), segs.table()
	for _, win := range wins {
		for j := range win {
			frameSeen[int64(win[j].Frame)-frames.lo] = true
			segSeen[int64(video.SegmentOf(win[j].TimeSec))-segs.lo] = true
		}
	}
	res.Frames = marked[video.FrameID](frameSeen, frames.lo)
	res.Segments = marked[video.SegmentID](segSeen, segs.lo)
	return res, nil
}

// span is the closed range of the integers included so far; the zero value
// is empty.
type span struct {
	lo, hi int64
	any    bool
}

func (s *span) include(v int64) {
	if !s.any {
		s.lo, s.hi, s.any = v, v, true
		return
	}
	s.lo, s.hi = min(s.lo, v), max(s.hi, v)
}

// table returns one mark per integer of the span.
func (s *span) table() []bool {
	if !s.any {
		return nil
	}
	return make([]bool, s.hi-s.lo+1)
}

// marked lists the marked positions of a table, offset by lo, ascending.
func marked[T ~int64](seen []bool, lo int64) []T {
	n := 0
	for _, ok := range seen {
		if ok {
			n++
		}
	}
	out := make([]T, 0, n)
	for i, ok := range seen {
		if ok {
			out = append(out, T(lo+int64(i)))
		}
	}
	return out
}

// CachedVerdicts returns how many cluster verdicts are memoized, a measure
// of cross-query GT-CNN reuse (§6.7).
func (e *Engine) CachedVerdicts() int { return e.gtCache.len() }

func containsClass(cs []vision.ClassID, c vision.ClassID) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}
