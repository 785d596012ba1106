package router

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"sort"

	"focus/api"
	"focus/client"
)

// This file is the router's POST /v1/subscribe: a routed standing query
// fans out into one per-shard subscription leg per owning shard, and the
// legs' delta streams merge back into a single SSE stream whose deltas
// compose — exactly like the single-node contract — to the routed one-shot
// answer at every emitted vector. Streams are disjoint across shards, so
// each leg's delta is already a correct edit script for its slice of the
// merged answer; the router's job is bookkeeping, not re-ranking: it
// re-stamps every leg delta onto the merged watermark vector (From = the
// vector before, To = the vector with the leg's advance folded in) and
// keeps the running answer-size total. Reassembly via api.ApplyDelta keeps
// the merged state in RankBefore order because application is a
// rank-ordered merge — that is the "RankBefore lockstep" that makes the
// union of per-shard rankings bit-identical to a single node's ranking.
//
// Scope: routed subscriptions reject top_k and early-exit mode. A global
// top K is not a function of per-shard top-K delta streams (an item
// leaving the global top K is invisible to the shard that still ranks it),
// and early exit only exists to serve a top K cheaply. Unbounded standing
// queries lose nothing: the client truncates its reassembled ranking at
// read time.

// routedLegEvent is one shard leg's next outcome, tagged with its index.
type routedLegEvent struct {
	leg   int
	delta *api.Delta
	// reason is the leg's terminal bye reason; set when the leg ended
	// deliberately.
	reason string
	// err is a terminal leg failure (reconnects exhausted, protocol
	// violation); the routed subscription cannot continue past it.
	err error
}

// validateRoutedSubscription rejects request shapes the router cannot
// serve before any shard is contacted. Expression errors are left to the
// legs: shards own plan compilation, and their typed rejections pass
// through verbatim.
func validateRoutedSubscription(req *api.SubscribeRequest) *api.Error {
	if req.Expr == "" {
		return api.Errorf(api.CodeBadRequest, "missing required field: expr")
	}
	if req.TopK < 0 || req.Kx < 0 || req.MaxClusters < 0 || req.Start < 0 || req.End < 0 {
		return api.Errorf(api.CodeBadRequest, "negative query parameter")
	}
	if req.Form == api.FormFrames {
		return api.Errorf(api.CodeBadRequest,
			"subscriptions answer in the ranked or tracks form, not frames")
	}
	if req.TopK > 0 {
		return api.Errorf(api.CodeBadRequest,
			"routed subscriptions do not support top_k: a global top-K is not reconstructible from per-shard delta streams; subscribe unbounded and truncate client-side")
	}
	if req.Mode != "" {
		return api.Errorf(api.CodeBadRequest,
			"routed subscriptions are exact-mode only; omit mode (%q serves a top-K, which routed subscriptions reject)", api.ModeEarlyExit)
	}
	return nil
}

// mergedSubscribeHello combines the legs' hello frames into the routed
// subscription's echo. Every shard resolved the same request, so all
// fields but the stream list must agree — disagreement means mixed shard
// versions and fails loudly, exactly like the query-path merge.
func mergedSubscribeHello(legs []*client.Subscriber, streams []string) (*api.SubscribeHello, *api.Error) {
	out := *legs[0].Hello()
	for _, leg := range legs[1:] {
		h := leg.Hello()
		if h.Expr != out.Expr || h.Form != out.Form || h.TopK != out.TopK || h.Kx != out.Kx ||
			h.Start != out.Start || h.End != out.End || h.MaxClusters != out.MaxClusters || h.Mode != out.Mode {
			return nil, api.Errorf(api.CodeUnavailable,
				"shards disagree on the resolved subscription — mixed shard versions?")
		}
	}
	out.Streams = append([]string(nil), streams...)
	return &out, nil
}

// handleV1Subscribe is the router's POST /v1/subscribe. Errors before the
// hello frame are ordinary typed JSON; after it, the SSE stream is the
// contract: deltas as shards advance, a bye when every leg completes (or
// any leg drains), and a drop with reason shard_lost — resumable at the
// drop's vector — when a leg fails terminally.
func (r *Router) handleV1Subscribe(w http.ResponseWriter, req *http.Request) {
	if !r.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, api.Envelope{Err: api.Errorf(api.CodeNotReady, "router not ready")})
		return
	}
	if req.Method != http.MethodPost {
		r.clientErrs.Add(1)
		writeJSON(w, http.StatusMethodNotAllowed, api.Envelope{
			Err: api.Errorf(api.CodeBadRequest, "POST a JSON body to %s", api.PathSubscribe)})
		return
	}
	var sreq api.SubscribeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, api.MaxRequestBytes)).Decode(&sreq); err != nil {
		r.writeV1Error(w, api.Errorf(api.CodeBadRequest, "bad %s body: %v", api.PathSubscribe, err))
		return
	}
	if aerr := validateRoutedSubscription(&sreq); aerr != nil {
		r.writeV1Error(w, aerr)
		return
	}
	// Subscriptions are all-or-nothing: a partial delta stream would be a
	// wrong delta stream, so every owning shard must be routable.
	groups, _, aerr := r.groupByShard(api.NormalizeStreams(sreq.Streams), false)
	if aerr != nil {
		r.writeV1Error(w, aerr)
		return
	}
	resolved := make([]string, 0, len(groups))
	for _, g := range groups {
		resolved = append(resolved, g.streams...)
	}
	sort.Strings(resolved)
	if aerr := validateResumeVector(sreq.From, resolved); aerr != nil {
		r.writeV1Error(w, aerr)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		r.writeV1Error(w, api.Errorf(api.CodeInternal, "response writer cannot stream"))
		return
	}

	// Open one leg per shard. Legs use the client's Subscriber so shard
	// blips heal transparently (reconnect with From at the leg's delivered
	// vector); the deliberately un-timeouted default transport is what a
	// long-lived SSE leg needs.
	ctx := req.Context()
	legs := make([]*client.Subscriber, len(groups))
	closeLegs := func() {
		for _, leg := range legs {
			if leg != nil {
				leg.Close()
			}
		}
	}
	for i, g := range groups {
		lreq := sreq
		lreq.Streams = g.streams
		lreq.From = subVector(sreq.From, g.streams)
		// Terminal moves: a leg points at one shard, so when that shard
		// hands a stream off the leg cannot re-resolve the new owner by
		// reconnecting — the moved bye must surface here and propagate to
		// the client, whose own reconnect re-resolves through the router.
		leg, err := client.New(g.spec.URL, client.WithTerminalMoves()).Subscribe(ctx, &lreq)
		if err != nil {
			closeLegs()
			var typed *api.Error
			if errors.As(err, &typed) {
				out := *typed
				out.Shard = g.spec.Name
				r.writeV1Error(w, &out)
				return
			}
			e := api.Errorf(api.CodeShardDown, "shard %q subscription failed: %v", g.spec.Name, err)
			e.Shard = g.spec.Name
			r.writeV1Error(w, e)
			return
		}
		legs[i] = leg
	}
	defer closeLegs()
	hello, aerr := mergedSubscribeHello(legs, resolved)
	if aerr != nil {
		r.upstreamErrs.Add(1)
		r.writeV1Error(w, aerr)
		return
	}

	r.subs.Add(1)
	r.subsActive.Add(1)
	defer r.subsActive.Add(-1)
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	if writeSSEFrame(w, flusher, &api.SubscribeEvent{V: api.SSEVersion, Type: api.EventHello, Hello: hello}) != nil {
		return
	}

	// Pump every leg into one channel. The done channel unblocks pumps
	// when the handler returns early (client gone, leg failure): Close on
	// a leg forces its pending Recv to error, and the pump's send then
	// falls through to done instead of leaking. Each pump holds after its
	// first delta — the leg's opening catch-up — until the merge loop has
	// barriered on every leg's opening, so no leg can race a second delta
	// into the barrier.
	events := make(chan routedLegEvent)
	done := make(chan struct{})
	barrierDone := make(chan struct{})
	defer close(done)
	for i, leg := range legs {
		go func(i int, leg *client.Subscriber) {
			first := true
			for {
				ev := routedLegEvent{leg: i}
				d, err := leg.Recv()
				switch {
				case err == nil:
					ev.delta = d
				case errors.Is(err, io.EOF):
					ev.reason = leg.Reason()
				default:
					ev.err = err
				}
				select {
				case events <- ev:
				case <-done:
					return
				}
				if ev.delta == nil {
					return
				}
				if first {
					first = false
					select {
					case <-barrierDone:
					case <-done:
						return
					}
				}
			}
		}(i, leg)
	}

	// The merged vector starts at the subscription's own starting point
	// and folds in each leg advance as it arrives; legTotal tracks each
	// leg's last declared answer size so every merged delta can state the
	// merged total exactly. Every leg's stream opens with a catch-up delta
	// (possibly empty), so the router barriers on one opening delta per
	// leg and folds them into a single merged catch-up — after which every
	// legTotal is authoritative and totals are exact even on a mid-stream
	// resume.
	vector := make(api.WatermarkVector, len(resolved))
	for _, name := range resolved {
		vector[name] = 0
	}
	for name, at := range sreq.From {
		vector[name] = at
	}
	legTotal := make([]int, len(groups))
	opening := make([]*api.Delta, len(groups))
	pendingLegs := len(groups)
	doneLegs := 0
	for {
		select {
		case <-ctx.Done():
			return
		case ev := <-events:
			switch {
			case ev.err != nil:
				// The leg is gone for good. Shed the subscription with an
				// honest resume point: everything written so far composes
				// to the answer at vector, so From=vector continues
				// gap-free once the shard is back.
				r.subDrops.Add(1)
				_ = writeSSEFrame(w, flusher, &api.SubscribeEvent{
					V: api.SSEVersion, Type: api.EventDrop,
					Reason: api.ReasonShardLost, Resume: vector.Clone()})
				return
			case ev.reason == api.ReasonComplete:
				doneLegs++
				if doneLegs == len(groups) {
					_ = writeSSEFrame(w, flusher, &api.SubscribeEvent{
						V: api.SSEVersion, Type: api.EventBye, Reason: api.ReasonComplete})
					return
				}
			case ev.reason != "":
				// A deliberate shutdown on one shard — draining, or a
				// stream handed off mid-reshard (moved) — ends the routed
				// subscription with that leg's typed reason: its deltas can
				// no longer cover the full stream set, and on moved the
				// client's reconnect re-resolves ownership through us.
				_ = writeSSEFrame(w, flusher, &api.SubscribeEvent{
					V: api.SSEVersion, Type: api.EventBye, Reason: ev.reason})
				return
			case pendingLegs > 0:
				// Barrier phase: each leg's first delta is its opening
				// catch-up. Hold them until every leg has stated its answer
				// size, then emit one merged catch-up delta.
				opening[ev.leg] = ev.delta
				legTotal[ev.leg] = ev.delta.TotalItems
				pendingLegs--
				if pendingLegs > 0 {
					continue
				}
				merged := &api.Delta{From: vector.Clone()}
				for _, d := range opening {
					for name, at := range d.To {
						vector[name] = at
					}
					merged.Items = append(merged.Items, d.Items...)
					merged.RemovedItems = append(merged.RemovedItems, d.RemovedItems...)
					merged.Tracks = append(merged.Tracks, d.Tracks...)
					merged.RemovedTracks = append(merged.RemovedTracks, d.RemovedTracks...)
					merged.GTInferences += d.GTInferences
					merged.GPUTimeMS += d.GPUTimeMS
					merged.TotalItems += d.TotalItems
				}
				merged.To = vector.Clone()
				sortDeltaEdits(merged)
				close(barrierDone)
				r.subDeltas.Add(1)
				if writeSSEFrame(w, flusher, &api.SubscribeEvent{
					V: api.SSEVersion, Type: api.EventDelta, Delta: merged}) != nil {
					return
				}
			default:
				d := ev.delta
				merged := &api.Delta{From: vector.Clone()}
				for name, at := range d.To {
					vector[name] = at
				}
				merged.To = vector.Clone()
				merged.Items, merged.RemovedItems = d.Items, d.RemovedItems
				merged.Tracks, merged.RemovedTracks = d.Tracks, d.RemovedTracks
				merged.GTInferences, merged.GPUTimeMS = d.GTInferences, d.GPUTimeMS
				legTotal[ev.leg] = d.TotalItems
				for _, n := range legTotal {
					merged.TotalItems += n
				}
				r.subDeltas.Add(1)
				if writeSSEFrame(w, flusher, &api.SubscribeEvent{
					V: api.SSEVersion, Type: api.EventDelta, Delta: merged}) != nil {
					return
				}
			}
		}
	}
}

// sortDeltaEdits restores rank order on a delta whose edit lists were
// concatenated from disjoint per-shard deltas. Each leg's lists are already
// rank-ordered, and streams are disjoint across shards, so sorting under
// the shared total order is exactly the RankBefore-lockstep merge.
func sortDeltaEdits(d *api.Delta) {
	slices.SortStableFunc(d.Items, api.RankCompare[api.Item])
	slices.SortStableFunc(d.RemovedItems, api.RankCompare[api.Item])
	slices.SortStableFunc(d.Tracks, api.RankCompare[api.TrackItem])
	slices.SortStableFunc(d.RemovedTracks, api.RankCompare[api.TrackItem])
}

// validateResumeVector mirrors the registry's rule on the router: a resume
// vector must cover exactly the subscription's resolved stream set, so
// each shard leg's slice covers exactly that leg's streams.
func validateResumeVector(from api.WatermarkVector, resolved []string) *api.Error {
	if len(from) == 0 {
		return nil
	}
	names := make(map[string]bool, len(resolved))
	for _, n := range resolved {
		if _, ok := from[n]; !ok {
			return api.Errorf(api.CodeBadRequest, "resume vector is missing stream %q", n)
		}
		names[n] = true
	}
	for n := range from {
		if !names[n] {
			return api.Errorf(api.CodeBadRequest, "resume vector pins stream %q, which is not among the subscription's streams", n)
		}
	}
	return nil
}

// writeSSEFrame emits one event as an SSE frame and flushes it; a write
// error means the client went away.
func writeSSEFrame(w http.ResponseWriter, f http.Flusher, ev *api.SubscribeEvent) error {
	frame, err := api.EncodeSSEFrame(ev)
	if err != nil {
		return err
	}
	if _, err := w.Write(frame); err != nil {
		return err
	}
	f.Flush()
	return nil
}
