package router

import (
	"fmt"
	"slices"
	"sort"

	"focus/api"
)

// This file is the heart of the scatter-gather contract: merged responses
// must be bit-identical to what one focus.System holding every stream
// would answer at the same watermark vector. Streams are disjoint across
// shards and each per-stream answer is already final, so merging is pure
// bookkeeping — the only way to get it wrong is ordering, which is why
// every aggregation below states the single-node order it mirrors.

// mergeFrames combines per-shard frames-form responses into the payload a
// single node would have produced. Answer fields (per-stream frames,
// segments, cluster counts, watermarks) are unioned — stream sets are
// disjoint, duplicates mean the cluster is misconfigured and fail loudly.
// Aggregates mirror focus.System.Query exactly: TotalFrames and GPUTimeMS
// sum per-stream values in sorted stream-name order (the order a direct
// query visits streams, so even float accumulation matches bit for bit)
// and LatencyMS is the max — the slowest stream bounds the query (§5).
func mergeFrames(parts []*api.QueryResponse) (*api.QueryResponse, error) {
	out := &api.QueryResponse{
		Form:       api.FormFrames,
		Watermarks: make(api.WatermarkVector),
		Streams:    make(map[string]*api.StreamResult),
		Cached:     true,
	}
	for i, p := range parts {
		if p.Form != api.FormFrames {
			return nil, fmt.Errorf("shard answered in %q form where %q was requested — mixed shard versions?", p.Form, api.FormFrames)
		}
		// Every shard must echo the same canonical expr and executed leaf
		// options (the router passes them through verbatim); disagreement
		// means mixed shard versions and must fail loudly — a wrong echo
		// would make verifiers replay the wrong query.
		if i == 0 {
			out.Expr = p.Expr
			out.Kx, out.Start, out.End, out.MaxClusters = p.Kx, p.Start, p.End, p.MaxClusters
		} else if p.Expr != out.Expr || p.Kx != out.Kx || p.Start != out.Start ||
			p.End != out.End || p.MaxClusters != out.MaxClusters {
			return nil, fmt.Errorf("shards disagree on the executed query — mixed shard versions?")
		}
		for name, sr := range p.Streams {
			if _, dup := out.Streams[name]; dup {
				return nil, fmt.Errorf("stream %q answered by two shards — shard ownership must be disjoint", name)
			}
			out.Streams[name] = sr
		}
		for name, at := range p.Watermarks {
			if _, dup := out.Watermarks[name]; dup {
				return nil, fmt.Errorf("stream %q answered by two shards — shard ownership must be disjoint", name)
			}
			out.Watermarks[name] = at
		}
		// A merged response is "cached" only if no shard did new work.
		if !p.Cached {
			out.Cached = false
		}
	}
	names := make([]string, 0, len(out.Streams))
	for name := range out.Streams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sr := out.Streams[name]
		out.TotalFrames += len(sr.Frames)
		out.GTInferences += sr.GTInferences
		out.GPUTimeMS += sr.GPUTimeMS
		if sr.LatencyMS > out.LatencyMS {
			out.LatencyMS = sr.LatencyMS
		}
	}
	return out, nil
}

// itemRanksBefore is plan.RankBefore on the wire type: score descending,
// then stream name, then frame. It must stay in lockstep with
// plan.RankBefore — the routed-vs-direct bit-identity tests pin the
// equivalence — so that merging per-shard rankings reproduces the exact
// order a single node emits. (Items are unique by (stream, frame) and the
// order is total, so a plain sort of the concatenation is the merge.)
func itemRanksBefore(a, b api.Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Stream != b.Stream {
		return a.Stream < b.Stream
	}
	return a.Frame < b.Frame
}

// trackRanksBefore is track.RankBefore on the wire type: score
// descending, then stream name, then track start time, then track ID. It
// must stay in lockstep with track.RankBefore — the routed-vs-direct
// bit-identity tests pin the equivalence. (Tracks are unique by (stream,
// track) and the order is total, so a plain sort of the concatenation is
// the merge.)
func trackRanksBefore(a, b api.TrackItem) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Stream != b.Stream {
		return a.Stream < b.Stream
	}
	if a.StartSec != b.StartSec {
		return a.StartSec < b.StartSec
	}
	return a.Track < b.Track
}

// rankCompare turns one of the total orders above into the three-way
// comparison slices.SortFunc takes.
func rankCompare[T any](before func(a, b T) bool) func(a, b T) int {
	return func(a, b T) int {
		switch {
		case before(a, b):
			return -1
		case before(b, a):
			return 1
		}
		return 0
	}
}

// mergeTracks combines per-shard tracks-form responses exactly as
// mergeRanked combines ranked ones: per-shard track rankings interleave
// under trackRanksBefore and truncate to topK. Track assembly is
// per-stream (a track never crosses streams, hence never crosses shards),
// so the global top K is exactly the top K of the concatenation.
func mergeTracks(topK int, parts []*api.QueryResponse) (*api.QueryResponse, error) {
	out := &api.QueryResponse{
		Form:       api.FormTracks,
		Watermarks: make(api.WatermarkVector),
		Cached:     true,
	}
	total := 0
	for i, p := range parts {
		if p.Form != api.FormTracks {
			return nil, fmt.Errorf("shard answered in %q form where %q was requested — mixed shard versions?", p.Form, api.FormTracks)
		}
		if i == 0 {
			out.Expr = p.Expr
			out.TopK, out.Kx, out.Start, out.End, out.MaxClusters = p.TopK, p.Kx, p.Start, p.End, p.MaxClusters
		} else if p.Expr != out.Expr {
			return nil, fmt.Errorf("shards disagree on the canonical plan (%q vs %q) — mixed shard versions?", out.Expr, p.Expr)
		}
		if len(p.Tracks) != p.TotalItems {
			return nil, fmt.Errorf("shard sent a paged response (%d of %d tracks) — the router needs full slices to merge",
				len(p.Tracks), p.TotalItems)
		}
		for name, at := range p.Watermarks {
			if _, dup := out.Watermarks[name]; dup {
				return nil, fmt.Errorf("stream %q answered by two shards — shard ownership must be disjoint", name)
			}
			out.Watermarks[name] = at
		}
		total += len(p.Tracks)
		out.GTInferences += p.GTInferences
		out.GPUTimeMS += p.GPUTimeMS
		if p.LatencyMS > out.LatencyMS {
			out.LatencyMS = p.LatencyMS
		}
		if !p.Cached {
			out.Cached = false
		}
	}
	out.Tracks = make([]api.TrackItem, 0, total)
	for _, p := range parts {
		out.Tracks = append(out.Tracks, p.Tracks...)
	}
	slices.SortFunc(out.Tracks, rankCompare(trackRanksBefore))
	if topK > 0 && len(out.Tracks) > topK {
		out.Tracks = out.Tracks[:topK]
	}
	out.TotalItems = len(out.Tracks)
	return out, nil
}

// mergeRanked combines per-shard ranked-form responses into the payload a
// single node would have produced: per-shard rankings interleave under
// itemRanksBefore and truncate to topK. Each shard returned its own top K,
// and a stream's items rank identically whether its shard executed alone
// or within a single node, so the global top K is exactly the top K of the
// concatenation. Cost counters aggregate like plan.Stats (sum inferences
// and GPU time, max latency); watermark vectors union disjointly.
func mergeRanked(topK int, parts []*api.QueryResponse) (*api.QueryResponse, error) {
	out := &api.QueryResponse{
		Form:       api.FormRanked,
		Watermarks: make(api.WatermarkVector),
		Cached:     true,
	}
	total := 0
	for i, p := range parts {
		if p.Form != api.FormRanked {
			return nil, fmt.Errorf("shard answered in %q form where %q was requested — mixed shard versions?", p.Form, api.FormRanked)
		}
		if i == 0 {
			out.Expr = p.Expr
			out.TopK, out.Kx, out.Start, out.End, out.MaxClusters = p.TopK, p.Kx, p.Start, p.End, p.MaxClusters
		} else if p.Expr != out.Expr {
			return nil, fmt.Errorf("shards disagree on the canonical plan (%q vs %q) — mixed shard versions?", out.Expr, p.Expr)
		}
		if len(p.Items) != p.TotalItems {
			return nil, fmt.Errorf("shard sent a paged response (%d of %d items) — the router needs full slices to merge",
				len(p.Items), p.TotalItems)
		}
		for name, at := range p.Watermarks {
			if _, dup := out.Watermarks[name]; dup {
				return nil, fmt.Errorf("stream %q answered by two shards — shard ownership must be disjoint", name)
			}
			out.Watermarks[name] = at
		}
		total += len(p.Items)
		out.GTInferences += p.GTInferences
		out.GPUTimeMS += p.GPUTimeMS
		if p.LatencyMS > out.LatencyMS {
			out.LatencyMS = p.LatencyMS
		}
		if !p.Cached {
			out.Cached = false
		}
	}
	out.Items = make([]api.Item, 0, total)
	for _, p := range parts {
		out.Items = append(out.Items, p.Items...)
	}
	slices.SortFunc(out.Items, rankCompare(itemRanksBefore))
	if topK > 0 && len(out.Items) > topK {
		out.Items = out.Items[:topK]
	}
	out.TotalItems = len(out.Items)
	return out, nil
}
