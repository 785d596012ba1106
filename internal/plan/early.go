package plan

import (
	"fmt"
	"slices"
	"strconv"

	"focus/internal/query"
	"focus/internal/simrand"
)

// Early-exit execution: the opt-in approximate mode behind
// api.QueryRequest.Mode == "early_exit".
//
// The exact cursor must prove global rank finality before emitting
// anything, which forces it to refine every stream each round — on a
// corpus where the predicate is abundant in one stream and rare in the
// rest, most of that GT-CNN budget buys nothing. Early-exit mode drops the
// ranking guarantee and keeps only the verification guarantee: it treats
// each stream's candidate chunks as ExSample bandit arms (internal/query's
// allocator) and spends verification where results have actually been
// surfacing, stopping as soon as TopK settled results are in hand.
//
// The contract, exactly:
//
//   - Every returned item is GT-verified: an item leaves a streamExec's
//     ready list only when the plan evaluates True for its frame from real
//     verdicts and every scoring leaf covering it is settled — the same
//     readiness predicate the exact path uses. Returned scores are
//     therefore bit-identical to the score the exact path would assign the
//     same frame; early exit changes WHICH frames are found, never what a
//     found frame looks like.
//   - Deterministic per (plan, options, watermark vector): the Thompson
//     sampler draws from a simrand source derived from the canonical plan
//     text and the stream/watermark vector, so the pull sequence — and the
//     answer — is a pure function of the request, cacheable like any exact
//     query.
//   - Sub-linear discovery cost is the point, not a side effect: pulls
//     concentrate where the posterior discovery rate is highest, so the
//     GT-CNN spend scales with how hard results are to find, not with
//     corpus size (measured by gpu.Meter deltas in the invariant tests).
//
// TopK must be >= 1: "give me everything, approximately" has no early
// exit — resolving everything IS the exact mode.

// ExecuteEarlyExit runs the plan in early-exit mode and returns up to
// TopK verified items in RankBefore order over the discovered set.
func ExecuteEarlyExit(p *Plan, targets []Target, opts Options) (*Result, error) {
	if opts.TopK <= 0 {
		return nil, fmt.Errorf("plan: early-exit execution requires TopK >= 1 (unbounded result sets cannot exit early)")
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("plan: no target streams")
	}
	if opts.StepClusters <= 0 {
		opts.StepClusters = 8
	}
	streams := make([]*streamExec, len(targets))
	for i, t := range targets {
		if t.Engine == nil {
			return nil, fmt.Errorf("plan: stream %q has no query engine", t.Stream)
		}
		s, err := newStreamExec(p, t, opts)
		if err != nil {
			return nil, err
		}
		streams[i] = s
	}
	alloc := query.NewExSample(earlyExitSource(p, targets), len(streams))
	var items []Item
	// Degenerate streams (no candidates at all) are resolved at
	// construction; retire their arms before the first pull.
	for i, s := range streams {
		items = drainReady(s, items)
		if s.resolvedAll {
			alloc.Exhaust(i)
		}
	}
	for len(items) < opts.TopK && !alloc.Exhausted() {
		arm, ok := alloc.Pick()
		if !ok {
			break
		}
		s := streams[arm]
		before := len(items)
		s.advance(opts.StepClusters)
		items = drainReady(s, items)
		alloc.Record(arm, len(items) > before)
		if s.resolvedAll {
			alloc.Exhaust(arm)
		}
	}
	// A drain can overshoot TopK; rank the discovered set and cut. The
	// order is RankBefore so routed merges and golden comparisons reuse
	// the exact path's comparator.
	slices.SortFunc(items, rankCompare)
	if len(items) > opts.TopK {
		items = items[:opts.TopK]
	}
	st := collectStats(p.canonical, streams, true)
	st.EarlyExit = true
	return &Result{Items: items, Stats: st}, nil
}

// drainReady pops every currently-ready item off the stream. Readiness is
// terminal (verdicts never retract), so popping eagerly loses nothing.
func drainReady(s *streamExec, items []Item) []Item {
	for {
		item, ok := s.peek()
		if !ok {
			return items
		}
		s.pop()
		items = append(items, item)
	}
}

// earlyExitSource derives the execution's random source from the canonical
// plan text and the stream/watermark vector — everything that identifies
// the request at a fixed index state. TopK is deliberately excluded: a
// TopK=5 run pulls a prefix of the TopK=10 run's schedule.
func earlyExitSource(p *Plan, targets []Target) *simrand.Source {
	labels := make([]string, 0, 1+2*len(targets))
	labels = append(labels, p.canonical)
	for _, t := range targets {
		labels = append(labels, t.Stream, strconv.FormatFloat(t.Watermark, 'g', -1, 64))
	}
	return simrand.New(0x6578736d706c).Derive(labels...) // "exsmpl"
}
