package main

import (
	"fmt"
	"reflect"
	"time"

	"focus"
	"focus/api"
)

// The answer check. Every v1 response echoes the canonical expression,
// the options and the watermark vector it was executed at, so any reader
// holding the same streams can replay it as a direct library call. The
// verifier does that on the twin and requires the served answer to be the
// replayed one, field for field.

// replayed is the twin's full (unpaged) answer to one echoed execution,
// with the time each layer's public entry point took to produce it.
type replayed struct {
	want      *api.QueryResponse
	compileNS int64
	executeNS int64
	// layer is the layer executeNS belongs to: query (frames form), plan
	// (ranked) or track.
	layer string
}

// verifier replays served responses on the twin.
type verifier struct {
	twin *focus.System
	// memo holds one replay per distinct execution, so that a cached
	// answer served ten thousand times is executed once.
	memo map[string]*replayed
	// exactCost also requires gt_inferences, gpu_time_ms and latency_ms of
	// uncached responses to match: only true where the twin sees the same
	// requests in the same order per stream, so its verdict caches are in
	// the state the server's were.
	exactCost bool
	// subsetEarlyExit relaxes the check of early-exit answers to what
	// survives sharding: each shard runs its own sampler, so a routed
	// early-exit answer is a set of verified items, not a replayable list.
	subsetEarlyExit bool
}

func newVerifier(twin *focus.System) *verifier {
	return &verifier{twin: twin, memo: make(map[string]*replayed)}
}

func echoKey(r *api.QueryResponse) string {
	return fmt.Sprintf("%s|%s|%d|%d|%g|%g|%d|%s|%s", r.Form, r.Expr, r.TopK, r.Kx, r.Start, r.End,
		r.MaxClusters, r.Mode, api.FormatWatermarkVector(r.Watermarks))
}

func leafOptions(r *api.QueryResponse) focus.QueryOptions {
	return focus.QueryOptions{Kx: r.Kx, StartSec: r.Start, EndSec: r.End, MaxClusters: r.MaxClusters}
}

// replay executes the echoed execution of r on the twin (once per
// distinct execution).
func (v *verifier) replay(r *api.QueryResponse) (*replayed, error) {
	key := echoKey(r)
	if got, ok := v.memo[key]; ok {
		return got, nil
	}
	names := sortedKeys(r.Watermarks)
	want := &api.QueryResponse{
		Expr: r.Expr, Form: r.Form, Watermarks: r.Watermarks,
		TopK: r.TopK, Kx: r.Kx, Start: r.Start, End: r.End, MaxClusters: r.MaxClusters, Mode: r.Mode,
	}
	out := &replayed{want: want}
	switch r.Form {
	case api.FormFrames:
		out.layer = "query"
		t0 := time.Now()
		res, err := v.twin.Query(focus.Query{Class: r.Expr, Streams: names, Options: leafOptions(r), AtWatermarks: r.Watermarks})
		out.executeNS = int64(time.Since(t0))
		if err != nil {
			return nil, err
		}
		want.Streams = make(map[string]*api.StreamResult, len(res.PerStream))
		want.TotalFrames = res.TotalFrames
		want.GPUTimeMS, want.LatencyMS = res.GPUTimeMS, res.LatencyMS
		for name, sr := range res.PerStream {
			s := &api.StreamResult{
				Watermark: r.Watermarks[name], Frames: make([]int64, len(sr.Frames)), Segments: make([]int64, len(sr.Segments)),
				ExaminedClusters: sr.ExaminedClusters, MatchedClusters: sr.MatchedClusters, GTInferences: sr.GTInferences,
				GPUTimeMS: sr.GPUTimeMS, LatencyMS: sr.LatencyMS, ViaOther: sr.ViaOther,
			}
			for i, f := range sr.Frames {
				s.Frames[i] = int64(f)
			}
			for i, seg := range sr.Segments {
				s.Segments[i] = int64(seg)
			}
			want.GTInferences += sr.GTInferences
			want.Streams[name] = s
		}
	case api.FormRanked:
		out.layer = "plan"
		t0 := time.Now()
		p, err := v.twin.CompilePlan(r.Expr)
		out.compileNS = int64(time.Since(t0))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		res, err := v.twin.ExecutePlan(p, focus.PlanOptions{Streams: names, TopK: r.TopK, Leaf: leafOptions(r),
			AtWatermarks: r.Watermarks, EarlyExit: r.Mode == api.ModeEarlyExit})
		out.executeNS = int64(time.Since(t0))
		if err != nil {
			return nil, err
		}
		want.Items = make([]api.Item, len(res.Items))
		for i, it := range res.Items {
			want.Items[i] = api.Item{Stream: it.Stream, Frame: int64(it.Frame), TimeSec: it.TimeSec, Segment: int64(it.Segment), Score: it.Score}
		}
		want.TotalItems = len(res.Items)
		want.GTInferences, want.GPUTimeMS, want.LatencyMS = res.Stats.GTInferences, res.Stats.GPUTimeMS, res.Stats.LatencyMS
	case api.FormTracks:
		out.layer = "track"
		t0 := time.Now()
		p, err := v.twin.CompileTrackQuery(r.Expr)
		out.compileNS = int64(time.Since(t0))
		if err != nil {
			return nil, err
		}
		t0 = time.Now()
		res, err := v.twin.ExecuteTrackQuery(p, focus.TrackOptions{Streams: names, TopK: r.TopK, Leaf: leafOptions(r), AtWatermarks: r.Watermarks})
		out.executeNS = int64(time.Since(t0))
		if err != nil {
			return nil, err
		}
		want.Tracks = make([]api.TrackItem, len(res.Items))
		for i, it := range res.Items {
			want.Tracks[i] = api.TrackItem{Stream: it.Stream, Track: it.Track, Object: int64(it.Object),
				StartFrame: int64(it.StartFrame), EndFrame: int64(it.EndFrame), StartSec: it.StartSec, EndSec: it.EndSec,
				Sightings: it.Sightings, Score: it.Score}
		}
		want.TotalItems = len(res.Items)
		want.GTInferences, want.GPUTimeMS, want.LatencyMS = res.Stats.GTInferences, res.Stats.GPUTimeMS, res.Stats.LatencyMS
	default:
		return nil, fmt.Errorf("unknown response form %q", r.Form)
	}
	v.memo[key] = out
	return out, nil
}

// page is the view of the full answer a request with this limit and
// offset must have been served: the slice of items, and the continuation
// token the server must have minted.
func page(full *api.QueryResponse, limit, offset int) *api.QueryResponse {
	out := *full
	cur := api.Cursor{Expr: full.Expr, Streams: sortedKeys(full.Watermarks), TopK: full.TopK, Kx: full.Kx,
		Start: full.Start, End: full.End, MaxClusters: full.MaxClusters, At: full.Watermarks, Mode: full.Mode}
	n := 0
	switch full.Form {
	case api.FormRanked:
		out.Items = api.PageItems(full.Items, limit, offset)
		n = len(out.Items)
	case api.FormTracks:
		cur.Form = api.FormTracks
		out.Tracks = api.PageTracks(full.Tracks, limit, offset)
		n = len(out.Tracks)
	default:
		return &out
	}
	out.Cursor = api.ContinuationToken(cur, limit, offset, n, full.TotalItems)
	return &out
}

// sameAnswer compares a served response with the page of the replay it
// must equal. The cached flag is the server's business; the cost counters
// depend on the state of the verdict caches and are only compared when
// the caller knows the states agree.
func sameAnswer(got, want *api.QueryResponse, cost bool) error {
	g, w := *got, *want
	g.Cached, w.Cached = false, false
	if !cost {
		g.GTInferences, g.GPUTimeMS, g.LatencyMS = 0, 0, 0
		w.GTInferences, w.GPUTimeMS, w.LatencyMS = 0, 0, 0
		if g.Form == api.FormFrames {
			g.Streams, w.Streams = withoutCost(g.Streams), withoutCost(w.Streams)
		}
	}
	if len(g.Items) == 0 && len(w.Items) == 0 {
		g.Items, w.Items = nil, nil
	}
	if len(g.Tracks) == 0 && len(w.Tracks) == 0 {
		g.Tracks, w.Tracks = nil, nil
	}
	if reflect.DeepEqual(&g, &w) {
		return nil
	}
	gj, wj := mustJSON(&g), mustJSON(&w)
	at := 0
	for at < len(gj) && at < len(wj) && gj[at] == wj[at] {
		at++
	}
	from := max(0, at-80)
	return fmt.Errorf("served answer differs from the replay at byte %d: served …%s…, replay …%s…",
		at, gj[from:min(len(gj), at+80)], wj[from:min(len(wj), at+80)])
}

func withoutCost(in map[string]*api.StreamResult) map[string]*api.StreamResult {
	out := make(map[string]*api.StreamResult, len(in))
	for name, s := range in {
		c := *s
		c.GTInferences, c.GPUTimeMS, c.LatencyMS = 0, 0, 0
		if len(c.Frames) == 0 {
			c.Frames = nil
		}
		if len(c.Segments) == 0 {
			c.Segments = nil
		}
		out[name] = &c
	}
	return out
}

// check verifies one served response, asked with limit at offset; cost
// says whether its cost counters must match the replay's too.
func (v *verifier) check(got *api.QueryResponse, limit, offset int, cost bool) (*replayed, error) {
	if got.Partial != nil {
		return nil, fmt.Errorf("partial answer: %+v", got.Partial)
	}
	if v.subsetEarlyExit && got.Mode == api.ModeEarlyExit {
		return nil, v.checkSubset(got)
	}
	rep, err := v.replay(got)
	if err != nil {
		return nil, fmt.Errorf("replaying %q: %w", got.Expr, err)
	}
	return rep, sameAnswer(got, page(rep.want, limit, offset), cost && !got.Cached)
}

// checkSubset pins what a routed early-exit answer still promises: at
// most top_k items, in rank order, each one present with the same score
// in the exhaustive exact ranking.
func (v *verifier) checkSubset(got *api.QueryResponse) error {
	exact := *got
	exact.Mode, exact.TopK = "", 0
	rep, err := v.replay(&exact)
	if err != nil {
		return err
	}
	if len(got.Items) > got.TopK {
		return fmt.Errorf("early exit served %d items for top_k=%d", len(got.Items), got.TopK)
	}
	all := make(map[api.Item]bool, len(rep.want.Items))
	for _, it := range rep.want.Items {
		all[it] = true
	}
	for i, it := range got.Items {
		if !all[it] {
			return fmt.Errorf("early-exit item %+v is not in the exact ranking", it)
		}
		if i > 0 && api.ItemRankBefore(it, got.Items[i-1]) {
			return fmt.Errorf("early-exit items %d and %d are out of rank order", i-1, i)
		}
	}
	return nil
}

// checkExchange verifies both requests of a kept exchange and returns the
// replay they share.
func (v *verifier) checkExchange(x *exchange) (*replayed, error) {
	rep, err := v.check(x.first, x.entry.Req.Limit, 0, v.exactCost)
	if err != nil {
		return nil, err
	}
	if x.second != nil {
		if _, err := v.check(x.second, x.entry.Req.Limit, x.entry.Req.Limit, v.exactCost); err != nil {
			return nil, fmt.Errorf("continuation: %w", err)
		}
	}
	return rep, nil
}
