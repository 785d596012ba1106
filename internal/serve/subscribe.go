package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"

	"focus/api"
	"focus/internal/subscribe"
)

// This file is the POST /v1/subscribe surface: it adapts the subscription
// registry (internal/subscribe) onto the v1 execution core. A standing
// query is the same pure function /v1/query evaluates — the handler
// resolves the request through resolveV1 and hands the registry an
// evaluator that calls execute directly, so subscription evaluations share
// the result cache (and, beneath it, the engine's GT-verdict cache) with
// one-shot queries. Subscriptions bypass the admission limiter and the
// query counters: their evaluation cadence is governed by the ingest clock
// and the registry's coalescing, not by client arrivals, so counting them
// against the query worker pool would let a slow advance starve
// interactive traffic (and vice versa).

// subscribeEval builds the registry's evaluator for a resolved standing
// query: nil pins snapshot the current watermarks, explicit pins replay a
// sealed horizon (a resume vector ahead of this process's watermark fails
// typed as pin_ahead, telling the client its resume point outruns the
// restarted server). The closure returns full, unpaged answers — a
// subscription's Limit and Offset stay zero.
func (s *Server) subscribeEval(ex *v1Exec, names []string) subscribe.Eval {
	return func(pins api.WatermarkVector) (*api.QueryResponse, error) {
		_, vector, aerr := s.resolveVector(names, pins)
		if aerr != nil {
			return nil, aerr
		}
		resp, _, aerr := s.execute(ex, names, vector, false)
		if aerr != nil {
			return nil, aerr
		}
		return resp, nil
	}
}

// resolveSubscription normalizes a wire SubscribeRequest into the resolved
// execution plus the registry options that identify its group.
func (s *Server) resolveSubscription(req *api.SubscribeRequest) (*v1Exec, subscribe.Options, *api.Error) {
	if req.Form == api.FormFrames {
		return nil, subscribe.Options{}, api.Errorf(api.CodeBadRequest,
			"subscriptions answer in the ranked or tracks form, not frames")
	}
	qreq := api.QueryRequest{
		Expr:        req.Expr,
		Streams:     req.Streams,
		TopK:        req.TopK,
		Kx:          req.Kx,
		Start:       req.Start,
		End:         req.End,
		MaxClusters: req.MaxClusters,
		Form:        req.Form,
		Mode:        req.Mode,
	}
	ex, aerr := s.resolveV1(&qreq)
	if aerr != nil {
		return nil, subscribe.Options{}, aerr
	}
	// A single-class subscription without TopK would resolve to the frames
	// form for a one-shot query; deltas are defined over the ranked list,
	// so subscriptions always take the ranked path when not temporal.
	ex.Frames = false
	names, _, aerr := s.resolveVector(ex.Streams, nil)
	if aerr != nil {
		return nil, subscribe.Options{}, aerr
	}
	names = append([]string(nil), names...)
	sort.Strings(names)
	// The coalescing identity: every subscription with the same canonical
	// plan, options, form and stream set shares one evaluation per advance.
	// The resume vector is deliberately absent — it shapes a subscriber's
	// catch-up delta, not the group's pure function.
	id := ex.Cursor
	id.Streams, id.At = names, nil
	o := subscribe.Options{
		Key:     execKey(ex.ResponseForm(), &id),
		Form:    ex.ResponseForm(),
		Streams: names,
		Eval:    s.subscribeEval(ex, names),
		From:    req.From,
	}
	return ex, o, nil
}

// subscribeHello echoes the resolved subscription back to the client as
// the stream's first frame; a reconnecting Subscriber compares it against
// the original to detect a plan drifting underneath a resume.
func subscribeHello(ex *v1Exec, o subscribe.Options) *api.SubscribeHello {
	return &api.SubscribeHello{
		Expr:        ex.Expr,
		Form:        o.Form,
		Streams:     o.Streams,
		TopK:        ex.TopK,
		Kx:          ex.Kx,
		Start:       ex.Start,
		End:         ex.End,
		MaxClusters: ex.MaxClusters,
		Mode:        ex.Mode,
	}
}

// handleV1Subscribe is POST /v1/subscribe: resolve the standing query,
// join the registry, then stream SSE frames — hello, deltas as watermarks
// advance, and a typed terminal event — until the subscription ends or
// the client disconnects. Errors before the stream starts are ordinary
// typed JSON errors; after the hello, the stream itself is the contract.
func (s *Server) handleV1Subscribe(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, api.Envelope{Err: api.Errorf(api.CodeDraining, "draining")})
		return
	}
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, api.Envelope{Err: api.Errorf(api.CodeNotReady, "not ready")})
		return
	}
	if r.Method != http.MethodPost {
		s.clientErrs.Add(1)
		writeJSON(w, http.StatusMethodNotAllowed, api.Envelope{
			Err: api.Errorf(api.CodeBadRequest, "POST a JSON body to %s", api.PathSubscribe)})
		return
	}
	var req api.SubscribeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxRequestBytes)).Decode(&req); err != nil {
		s.writeV1Error(w, api.Errorf(api.CodeBadRequest, "bad %s body: %v", api.PathSubscribe, err))
		return
	}
	ex, o, aerr := s.resolveSubscription(&req)
	if aerr != nil {
		s.writeV1Error(w, aerr)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeV1Error(w, api.Errorf(api.CodeInternal, "response writer cannot stream"))
		return
	}
	sub, err := s.subs.Subscribe(o)
	if err != nil {
		var typed *api.Error
		if errors.As(err, &typed) {
			s.writeV1Error(w, typed)
			return
		}
		s.writeV1Error(w, api.Errorf(api.CodeBadRequest, "%v", err))
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-store")
	hello := &api.SubscribeEvent{V: api.SSEVersion, Type: api.EventHello, Hello: subscribeHello(ex, o)}
	if writeSSE(w, flusher, hello) != nil {
		return
	}
	ctx := r.Context()
	for {
		select {
		case ev, open := <-sub.Events():
			if !open {
				if term := sub.Terminal(); term != nil {
					_ = writeSSE(w, flusher, term)
				}
				return
			}
			if writeSSE(w, flusher, ev) != nil {
				return
			}
		case <-ctx.Done():
			return
		}
	}
}

// writeSSE emits one event as an SSE frame and flushes it to the wire; a
// write error means the client went away.
func writeSSE(w http.ResponseWriter, f http.Flusher, ev *api.SubscribeEvent) error {
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

// PumpSubscriptions synchronously evaluates every subscription group and,
// when ingest has finished, completes the registry (final delta + typed
// bye). It is the deterministic counterpart of the background ingesters'
// Kick, for servers running with NoBackgroundIngest.
func (s *Server) PumpSubscriptions() {
	s.subs.Pump()
	if s.IngestDone() {
		s.subs.Complete()
	}
}

// SubscriptionStats exposes the registry's counters (also in Snapshot).
func (s *Server) SubscriptionStats() subscribe.Stats { return s.subs.Stats() }
