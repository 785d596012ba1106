package api

import "fmt"

// This file is the one answer core of the ranked and tracks forms. The two
// forms are the same mechanism — a list in a total rank order that is
// diffed, patched, paged and (by the router) merged — over two item types.
// Each type supplies its order as a RankBefore method; everything else is
// written once, generic over Ranked, so the forms cannot drift apart.

// Ranked constrains the item types of the rank-ordered answer forms (Item
// and TrackItem): comparable, so equality is whole-struct, and carrying the
// form's total order.
type Ranked[T any] interface {
	comparable
	// RankBefore reports whether the receiver ranks strictly before other.
	RankBefore(other T) bool
}

// RankBefore is the ranked form's total order: score descending, then
// stream ascending, then frame ascending. It mirrors the engine's ordering
// (internal/plan.RankBefore) on the wire type; the equivalence is pinned by
// tests so the two can never drift.
func (a Item) RankBefore(b Item) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	if a.Stream != b.Stream {
		return a.Stream < b.Stream
	}
	return a.Frame < b.Frame
}

// RankBefore mirrors internal/track.RankBefore on the wire type: score
// descending, then stream, then start time, then track ID.
func (a TrackItem) RankBefore(b TrackItem) bool {
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

// ItemRankBefore is Item.RankBefore as a plain function.
func ItemRankBefore(a, b Item) bool { return a.RankBefore(b) }

// RankCompare is RankBefore as the three-way comparison slices.SortFunc
// takes. Items are unique by rank key within one answer and the order is
// total, so sorting a concatenation of disjoint rankings is their merge.
func RankCompare[T Ranked[T]](a, b T) int {
	switch {
	case a.RankBefore(b):
		return -1
	case b.RankBefore(a):
		return 1
	}
	return 0
}

// Diff computes the edit from one rank-ordered answer to another: added
// holds next's items absent from prev (in rank order), removed prev's
// items absent from next. Equality is whole-struct — an item whose score
// (or any other field) changed is a removal plus an addition. Diffs
// compose: applying diff(a,b) then diff(b,c) equals applying diff(a,c).
func Diff[T Ranked[T]](prev, next []T) (added, removed []T) {
	i, j := 0, 0
	for i < len(prev) && j < len(next) {
		switch {
		case prev[i] == next[j]:
			i++
			j++
		case prev[i].RankBefore(next[j]):
			removed = append(removed, prev[i])
			i++
		case next[j].RankBefore(prev[i]):
			added = append(added, next[j])
			j++
		default:
			// Same rank key, different struct: replace.
			removed = append(removed, prev[i])
			added = append(added, next[j])
			i++
			j++
		}
	}
	removed = append(removed, prev[i:]...)
	added = append(added, next[j:]...)
	return added, removed
}

// DiffItems is Diff for the ranked form.
func DiffItems(prev, next []Item) (added, removed []Item) { return Diff(prev, next) }

// ApplyDelta applies one delta's edit lists to a reassembled state and
// returns the new state. Every removed item must be present, every added
// item absent, the result must stay rank-ordered, and its length must
// equal total (the delta's TotalItems) — any violation is a protocol
// error, never a silently wrong state.
func ApplyDelta[T Ranked[T]](state, added, removed []T, total int) ([]T, error) {
	kept := make([]T, 0, len(state))
	r := 0
	for _, it := range state {
		if r < len(removed) && it == removed[r] {
			r++
			continue
		}
		kept = append(kept, it)
	}
	if r < len(removed) {
		return nil, fmt.Errorf("delta removes %+v, not present in the reassembled state", removed[r])
	}
	merged := make([]T, 0, len(kept)+len(added))
	i, a := 0, 0
	for i < len(kept) && a < len(added) {
		switch {
		case kept[i] == added[a]:
			return nil, fmt.Errorf("delta adds %+v, already present in the reassembled state", added[a])
		case kept[i].RankBefore(added[a]):
			merged = append(merged, kept[i])
			i++
		case added[a].RankBefore(kept[i]):
			merged = append(merged, added[a])
			a++
		default:
			return nil, fmt.Errorf("delta adds %+v colliding with %+v at the same rank", added[a], kept[i])
		}
	}
	merged = append(merged, kept[i:]...)
	merged = append(merged, added[a:]...)
	if len(merged) != total {
		return nil, fmt.Errorf("reassembled state has %d entries, delta declares %d", len(merged), total)
	}
	return merged, nil
}

// ApplyDeltaItems is ApplyDelta for a ranked-form delta.
func ApplyDeltaItems(state []Item, d *Delta) ([]Item, error) {
	return ApplyDelta(state, d.Items, d.RemovedItems, d.TotalItems)
}

// Page slices a rank-ordered list to the requested page; limit 0 means
// everything from offset on. Always returns a non-nil slice so an empty
// page is [] rather than null. The one slicing implementation — routed
// pages must equal single-node pages.
func Page[T any](items []T, limit, offset int) []T {
	if offset >= len(items) {
		return []T{}
	}
	items = items[offset:]
	if limit > 0 && limit < len(items) {
		items = items[:limit]
	}
	return items
}

// PageItems is Page for the ranked form.
func PageItems(items []Item, limit, offset int) []Item { return Page(items, limit, offset) }

// PageTracks is Page for the tracks form.
func PageTracks(tracks []TrackItem, limit, offset int) []TrackItem {
	return Page(tracks, limit, offset)
}

// PageOf returns the page of a full answer that starts at id.Offset: a
// shallow copy whose item list is re-sliced (never mutated — full may live
// in a cache) and whose Cursor continues the read under the frozen identity
// id, or is empty when the read was unpaged or is exhausted. A frames-form
// answer has no ranking to page and is only copied. The serve layer pages
// its cached executions and the router its merged answers through this one
// function.
func PageOf(full *QueryResponse, id Cursor, limit int) *QueryResponse {
	out := *full
	pageLen := 0
	switch full.Form {
	case FormTracks:
		out.Tracks = Page(full.Tracks, limit, id.Offset)
		pageLen = len(out.Tracks)
	case FormRanked:
		out.Items = Page(full.Items, limit, id.Offset)
		pageLen = len(out.Items)
	}
	out.Cursor = ContinuationToken(id, limit, id.Offset, pageLen, full.TotalItems)
	return &out
}
