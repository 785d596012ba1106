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

// mergeParts combines the per-shard responses of one scatter into the
// payload a single node would have produced, for every answer form. The
// checks are the same whatever the form: each shard must answer in the
// requested form and echo the same canonical expr and executed options
// (the router passes them through verbatim) — disagreement means mixed
// shard versions and must fail loudly, since a wrong echo would make
// verifiers replay, and the cursor freeze, the wrong query — watermark
// vectors union disjointly (a duplicate means shard ownership overlaps),
// and the merged response is "cached" only if no shard did new work.
func mergeParts(form string, topK int, parts []*api.QueryResponse) (*api.QueryResponse, error) {
	out := &api.QueryResponse{Form: form, Watermarks: make(api.WatermarkVector), Cached: true}
	for i, p := range parts {
		if p.Form != form {
			return nil, fmt.Errorf("shard answered in %q form where %q was requested — mixed shard versions?", p.Form, form)
		}
		if i == 0 {
			out.Expr, out.Mode = p.Expr, p.Mode
			out.TopK, out.Kx, out.Start, out.End, out.MaxClusters = p.TopK, p.Kx, p.Start, p.End, p.MaxClusters
		} else if p.Expr != out.Expr || p.Mode != out.Mode || p.TopK != out.TopK || p.Kx != out.Kx ||
			p.Start != out.Start || p.End != out.End || p.MaxClusters != out.MaxClusters {
			return nil, fmt.Errorf("shards disagree on the executed query (%q vs %q, or its options) — mixed shard versions?",
				out.Expr, p.Expr)
		}
		for name, at := range p.Watermarks {
			if _, dup := out.Watermarks[name]; dup {
				return nil, fmt.Errorf("stream %q answered by two shards — shard ownership must be disjoint", name)
			}
			out.Watermarks[name] = at
		}
		if !p.Cached {
			out.Cached = false
		}
	}
	var err error
	switch form {
	case api.FormFrames:
		err = mergeStreams(out, parts)
	case api.FormTracks:
		out.Tracks, err = mergeRanking(out, topK, parts, func(p *api.QueryResponse) []api.TrackItem { return p.Tracks })
	default:
		out.Items, err = mergeRanking(out, topK, parts, func(p *api.QueryResponse) []api.Item { return p.Items })
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// mergeStreams unions the per-stream answers of frames-form parts into out
// — stream sets are disjoint; a duplicate means the cluster is
// misconfigured. Aggregates mirror focus.System.Query exactly: TotalFrames
// and GPUTimeMS sum per-stream values in sorted stream-name order (the
// order a direct query visits streams, so even float accumulation matches
// bit for bit) and LatencyMS is the max — the slowest stream bounds the
// query (§5).
func mergeStreams(out *api.QueryResponse, parts []*api.QueryResponse) error {
	out.Streams = make(map[string]*api.StreamResult)
	for _, p := range parts {
		for name, sr := range p.Streams {
			if _, dup := out.Streams[name]; dup {
				return fmt.Errorf("stream %q answered by two shards — shard ownership must be disjoint", name)
			}
			out.Streams[name] = sr
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
		out.LatencyMS = max(out.LatencyMS, sr.LatencyMS)
	}
	return nil
}

// mergeRanking interleaves per-shard rankings under the form's RankBefore
// and truncates to topK — the one cross-shard merge of the ranked and
// tracks forms. Each shard returned its own top K, and a stream's items
// rank identically whether its shard executed alone or within a single
// node (track assembly is per-stream too: a track never crosses streams,
// hence never shards), so the global top K is exactly the top K of the
// concatenation. Items are unique by rank key and the order is total, so a
// plain sort of the concatenation is the merge. Cost counters aggregate
// into out like plan.Stats: inferences and GPU time summed in shard order,
// latency the max.
func mergeRanking[T api.Ranked[T]](out *api.QueryResponse, topK int, parts []*api.QueryResponse, list func(*api.QueryResponse) []T) ([]T, error) {
	var all []T
	for _, p := range parts {
		if len(list(p)) != p.TotalItems {
			return nil, fmt.Errorf("shard sent a paged response (%d of %d items) — the router needs full slices to merge",
				len(list(p)), p.TotalItems)
		}
		all = append(all, list(p)...)
		out.GTInferences += p.GTInferences
		out.GPUTimeMS += p.GPUTimeMS
		out.LatencyMS = max(out.LatencyMS, p.LatencyMS)
	}
	slices.SortFunc(all, api.RankCompare[T])
	if topK > 0 && len(all) > topK {
		all = all[:topK]
	}
	out.TotalItems = len(all)
	return all, nil
}
