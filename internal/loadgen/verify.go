package loadgen

import (
	"fmt"
	"sort"

	"focus"
	"focus/api"
)

// NewDirectVerifier returns a verifier for frames-form responses: it
// replays a served response as a direct library call — focus.System.Query
// pinned to the exact watermark vector and leaf options the service
// answered with (the response echoes both back; its canonical one-leaf
// Expr is the class name) — and asserts the served answer is identical:
// same frames, same segments, same cluster counts, per stream. It
// verifies single-node focus-serve responses and router-merged responses
// alike: either way the served answer must equal one direct execution
// over all its streams.
//
// Only answer fields are compared. Cost counters (GTInferences, GPU time,
// latency) legitimately differ between executions of the same query: the
// GT-CNN verdict cache makes later executions cheaper without changing
// answers (§6.7), and a cached service response reports the cost of its
// original execution.
func NewDirectVerifier(sys *focus.System) func(*api.QueryResponse) error {
	return func(qr *api.QueryResponse) error {
		if qr.Form != api.FormFrames {
			return fmt.Errorf("frames verifier got a %q-form response", qr.Form)
		}
		names := vectorStreams(qr.Watermarks)
		res, err := sys.Query(focus.Query{
			Class:   qr.Expr,
			Streams: names,
			Options: focus.QueryOptions{
				Kx:          qr.Kx,
				StartSec:    qr.Start,
				EndSec:      qr.End,
				MaxClusters: qr.MaxClusters,
			},
			AtWatermarks: qr.Watermarks,
		})
		if err != nil {
			return fmt.Errorf("direct query: %w", err)
		}
		if res.TotalFrames != qr.TotalFrames {
			return fmt.Errorf("total frames: served %d, direct %d", qr.TotalFrames, res.TotalFrames)
		}
		if len(qr.Streams) != len(res.PerStream) {
			return fmt.Errorf("streams: served %d, direct %d", len(qr.Streams), len(res.PerStream))
		}
		for name, served := range qr.Streams {
			direct := res.PerStream[name]
			if direct == nil {
				return fmt.Errorf("stream %s: missing from direct result", name)
			}
			if err := compareStream(name, served, direct); err != nil {
				return err
			}
		}
		return nil
	}
}

// NewDirectPlanVerifier returns a verifier for ranked-form responses: it
// replays the served response as a direct library call —
// focus.System.PlanQuery pinned to the exact watermark vector, TopK and
// leaf options the service answered with — and asserts the served ranking
// is identical, item for item: same streams, frames, segments, timestamps
// and scores in the same order. The served Expr is the plan's canonical
// form, which re-parses to the same plan. Responses must be unpaged (or
// reassembled from all pages, e.g. by client.CollectPages — which is
// exactly how the paged-equals-one-shot invariant is pinned end to end).
//
// Early-exit responses (Mode == api.ModeEarlyExit) are replayed with the
// same mode: on a single node, early-exit execution is a deterministic
// pure function of (plan, options, watermark vector), so the served answer
// must still match a direct replay item for item. Responses served by a
// router are the exception — each shard runs its own sampler, so the
// merged early-exit answer matches no single-node execution; verify those
// with NewSubsetPlanVerifier instead.
//
// Cost counters (GTInferences, GPU time, latency) are not compared: the
// shared GT-verdict cache makes later executions cheaper without changing
// answers, and a cached response reports its original execution's cost.
func NewDirectPlanVerifier(sys *focus.System) func(*api.QueryResponse) error {
	return func(pr *api.QueryResponse) error {
		if pr.Form != api.FormRanked {
			return fmt.Errorf("ranked verifier got a %q-form response", pr.Form)
		}
		res, err := sys.PlanQuery(pr.Expr, focus.PlanOptions{
			Streams: vectorStreams(pr.Watermarks),
			TopK:    pr.TopK,
			Leaf: focus.QueryOptions{
				Kx:          pr.Kx,
				StartSec:    pr.Start,
				EndSec:      pr.End,
				MaxClusters: pr.MaxClusters,
			},
			AtWatermarks: pr.Watermarks,
			EarlyExit:    pr.Mode == api.ModeEarlyExit,
		})
		if err != nil {
			return fmt.Errorf("direct plan query: %w", err)
		}
		if len(res.Items) != pr.TotalItems {
			return fmt.Errorf("total items: served %d, direct %d", pr.TotalItems, len(res.Items))
		}
		if len(pr.Items) != len(res.Items) {
			return fmt.Errorf("items: served %d, direct %d (responses must carry all items to verify)",
				len(pr.Items), len(res.Items))
		}
		for i, it := range pr.Items {
			d := res.Items[i]
			if it.Stream != d.Stream || it.Frame != int64(d.Frame) ||
				it.Segment != int64(d.Segment) || it.TimeSec != d.TimeSec || it.Score != d.Score {
				return fmt.Errorf("item %d: served %+v, direct {%s %d %g %d %g}",
					i, it, d.Stream, d.Frame, d.TimeSec, d.Segment, d.Score)
			}
		}
		return nil
	}
}

// NewSubsetPlanVerifier returns a verifier for early-exit ranked
// responses that cannot be replayed exactly — router-merged answers,
// where each shard ran its own sampler over its own streams and no
// single-node execution reproduces the merge. It pins the part of the
// early-exit contract that survives distribution: every served item must
// be a genuinely verified result, i.e. it must appear in the exhaustive
// exact ranking (TopK=0 replays every matching frame) with a
// bit-identical score, the served order must respect the exact-mode
// comparator, and no more than TopK items may be served. Exact-mode
// responses are dispatched to the strict verifier, so this can serve as
// the single PlanVerifier for mixed-mode routed traffic.
func NewSubsetPlanVerifier(sys *focus.System) func(*api.QueryResponse) error {
	strict := NewDirectPlanVerifier(sys)
	return func(pr *api.QueryResponse) error {
		if pr.Form != api.FormRanked {
			return fmt.Errorf("ranked verifier got a %q-form response", pr.Form)
		}
		if pr.Mode != api.ModeEarlyExit {
			return strict(pr)
		}
		if pr.TopK >= 1 && len(pr.Items) > pr.TopK {
			return fmt.Errorf("early exit: served %d items, cap %d", len(pr.Items), pr.TopK)
		}
		res, err := sys.PlanQuery(pr.Expr, focus.PlanOptions{
			Streams: vectorStreams(pr.Watermarks),
			TopK:    0,
			Leaf: focus.QueryOptions{
				Kx:          pr.Kx,
				StartSec:    pr.Start,
				EndSec:      pr.End,
				MaxClusters: pr.MaxClusters,
			},
			AtWatermarks: pr.Watermarks,
		})
		if err != nil {
			return fmt.Errorf("direct plan query: %w", err)
		}
		type key struct {
			stream string
			frame  int64
		}
		exact := make(map[key]api.Item, len(res.Items))
		for _, d := range res.Items {
			exact[key{d.Stream, int64(d.Frame)}] = api.Item{
				Stream:  d.Stream,
				Frame:   int64(d.Frame),
				TimeSec: d.TimeSec,
				Segment: int64(d.Segment),
				Score:   d.Score,
			}
		}
		for i, it := range pr.Items {
			d, ok := exact[key{it.Stream, it.Frame}]
			if !ok {
				return fmt.Errorf("item %d: served %+v not in the exact ranking", i, it)
			}
			if it != d {
				return fmt.Errorf("item %d: served %+v, exact %+v", i, it, d)
			}
			if i > 0 && it.RankBefore(pr.Items[i-1]) {
				return fmt.Errorf("item %d: served out of rank order after item %d", i, i-1)
			}
		}
		return nil
	}
}

// NewDirectTrackVerifier returns a verifier for tracks-form responses:
// it replays the served response as a direct library call —
// focus.System.TrackQuery pinned to the exact watermark vector, TopK and
// leaf options the service answered with — and asserts the served track
// ranking is identical, track for track: same streams, track IDs,
// objects, frame and time bounds, sighting counts and scores in the same
// order. The served Expr is the temporal plan's canonical form, which
// re-parses to the same plan. Responses must be unpaged (or reassembled
// from all pages, e.g. by client.CollectPages).
//
// Cost counters (GTInferences, GPU time, latency) are not compared, for
// the same reason as the other verifiers: the shared GT-verdict cache
// makes later executions cheaper without changing answers.
func NewDirectTrackVerifier(sys *focus.System) func(*api.QueryResponse) error {
	return func(tr *api.QueryResponse) error {
		if tr.Form != api.FormTracks {
			return fmt.Errorf("tracks verifier got a %q-form response", tr.Form)
		}
		res, err := sys.TrackQuery(tr.Expr, focus.TrackOptions{
			Streams: vectorStreams(tr.Watermarks),
			TopK:    tr.TopK,
			Leaf: focus.QueryOptions{
				Kx:          tr.Kx,
				StartSec:    tr.Start,
				EndSec:      tr.End,
				MaxClusters: tr.MaxClusters,
			},
			AtWatermarks: tr.Watermarks,
		})
		if err != nil {
			return fmt.Errorf("direct track query: %w", err)
		}
		if len(res.Items) != tr.TotalItems {
			return fmt.Errorf("total tracks: served %d, direct %d", tr.TotalItems, len(res.Items))
		}
		if len(tr.Tracks) != len(res.Items) {
			return fmt.Errorf("tracks: served %d, direct %d (responses must carry all tracks to verify)",
				len(tr.Tracks), len(res.Items))
		}
		for i, it := range tr.Tracks {
			d := res.Items[i]
			if it.Stream != d.Stream || it.Track != d.Track || it.Object != int64(d.Object) ||
				it.StartFrame != int64(d.StartFrame) || it.EndFrame != int64(d.EndFrame) ||
				it.StartSec != d.StartSec || it.EndSec != d.EndSec ||
				it.Sightings != d.Sightings || it.Score != d.Score {
				return fmt.Errorf("track %d: served %+v, direct %+v", i, it, d)
			}
		}
		return nil
	}
}

// DeltaVerifier checks one standing query's reassembled answer — the
// state obtained by applying every delivered delta in order from genesis
// — at the watermark vector the deltas were delivered through. See
// NewDeltaVerifier.
type DeltaVerifier func(hello *api.SubscribeHello, vector api.WatermarkVector,
	items []api.Item, tracks []api.TrackItem) error

// NewDeltaVerifier returns the verifier for subscription traffic: it
// packages the reassembled state as the one-shot response it claims to
// equal — the subscription's resolved options from the hello frame,
// pinned at the delivered vector — and replays it through the matching
// direct verifier. This is the delta contract end to end: concatenating
// every delta from genesis must reconstruct, bit for bit, the one-shot
// answer pinned at the last delta's To vector.
//
// Like the other verifiers it works for single-node responses and
// router-merged subscriptions alike — either way the reassembled answer
// must equal one direct execution over all subscribed streams. (Routed
// subscriptions are always exact and unbounded — the router refuses
// top_k and early-exit standing queries — so the strict replay applies.)
func NewDeltaVerifier(sys *focus.System) DeltaVerifier {
	planV := NewDirectPlanVerifier(sys)
	trackV := NewDirectTrackVerifier(sys)
	return func(hello *api.SubscribeHello, vector api.WatermarkVector,
		items []api.Item, tracks []api.TrackItem) error {
		qr := &api.QueryResponse{
			Expr:        hello.Expr,
			Form:        hello.Form,
			Watermarks:  vector,
			TopK:        hello.TopK,
			Kx:          hello.Kx,
			Start:       hello.Start,
			End:         hello.End,
			MaxClusters: hello.MaxClusters,
			Mode:        hello.Mode,
		}
		if hello.Form == api.FormTracks {
			qr.Tracks = tracks
			qr.TotalItems = len(tracks)
			return trackV(qr)
		}
		qr.Items = items
		qr.TotalItems = len(items)
		return planV(qr)
	}
}

// vectorStreams returns the vector's stream names, sorted.
func vectorStreams(v api.WatermarkVector) []string {
	names := make([]string, 0, len(v))
	for name := range v {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func compareStream(name string, served *api.StreamResult, direct *focus.StreamResult) error {
	if served.ExaminedClusters != direct.ExaminedClusters {
		return fmt.Errorf("stream %s: examined clusters served %d, direct %d",
			name, served.ExaminedClusters, direct.ExaminedClusters)
	}
	if served.MatchedClusters != direct.MatchedClusters {
		return fmt.Errorf("stream %s: matched clusters served %d, direct %d",
			name, served.MatchedClusters, direct.MatchedClusters)
	}
	if served.ViaOther != direct.ViaOther {
		return fmt.Errorf("stream %s: via-other served %v, direct %v",
			name, served.ViaOther, direct.ViaOther)
	}
	if len(served.Frames) != len(direct.Frames) {
		return fmt.Errorf("stream %s: %d frames served, %d direct",
			name, len(served.Frames), len(direct.Frames))
	}
	for i := range served.Frames {
		if served.Frames[i] != int64(direct.Frames[i]) {
			return fmt.Errorf("stream %s: frame[%d] served %d, direct %d",
				name, i, served.Frames[i], direct.Frames[i])
		}
	}
	if len(served.Segments) != len(direct.Segments) {
		return fmt.Errorf("stream %s: %d segments served, %d direct",
			name, len(served.Segments), len(direct.Segments))
	}
	for i := range served.Segments {
		if served.Segments[i] != int64(direct.Segments[i]) {
			return fmt.Errorf("stream %s: segment[%d] served %d, direct %d",
				name, i, served.Segments[i], direct.Segments[i])
		}
	}
	return nil
}
