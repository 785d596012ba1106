package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"focus"
	"focus/api"
	"focus/internal/plan"
	"focus/internal/track"
)

// This file is the v1 execution core: one resolved request shape (v1Exec)
// and one execute-or-cache → page → mint-cursor path (execute) shared by
// POST /v1/query and the standing-query evaluator, so every answer form
// and both surfaces agree on admission, snapshotting, caching and answer
// semantics by construction. The three forms differ only in the small
// function (runFrames / runRanked / runTracks) that runs the engine at the
// pinned identity and renders its result.

// v1Exec is a fully resolved v1 execution: the request's identity and page
// ask (with Expr already canonical) plus the compiled predicate.
type v1Exec struct {
	api.Exec
	compiled *plan.Plan
	// trackPlan is set instead of compiled for temporal expressions
	// (tracks form): the two compile paths are mutually exclusive.
	trackPlan *track.Plan
}

// resolveV1 normalizes a wire QueryRequest into a v1Exec: the shared
// request-shape rule validates it and picks the form, then the predicate
// is compiled against this system's class space.
func (s *Server) resolveV1(req *api.QueryRequest) (*v1Exec, *api.Error) {
	// Parse once: the shape decides the form, the same AST is compiled.
	var ast plan.Expr
	rx, aerr := api.ResolveRequest(req, func(expr string) (shape api.ExprShape, err error) {
		if ast, err = plan.Parse(expr); err == nil {
			shape = api.ExprShape{Temporal: plan.HasTemporal(ast), SingleLeaf: plan.IsSingleLeafExpr(ast)}
		}
		return shape, err
	})
	if aerr != nil {
		return nil, aerr
	}
	ex, err := s.compile(rx, ast)
	switch {
	case err == nil:
		return ex, nil
	case req.Cursor != "":
		return nil, api.Errorf(api.CodeBadCursor, "cursor predicate no longer compiles: %v", err)
	}
	return nil, api.Errorf(api.CodeBadExpr, "%v", err)
}

// compile compiles a resolved predicate against this system's class space
// and canonicalises its text. A nil ast — a cursor continuation, whose
// token carries the canonical text — is parsed first.
func (s *Server) compile(rx *api.Exec, ast plan.Expr) (*v1Exec, error) {
	if ast == nil {
		var err error
		if ast, err = plan.Parse(rx.Expr); err != nil {
			return nil, err
		}
	}
	ex := &v1Exec{Exec: *rx}
	if rx.Form == api.FormTracks {
		tp, err := s.sys.CompileTrackExpr(ast)
		if err != nil {
			return nil, err
		}
		ex.Expr, ex.trackPlan = tp.Canonical(), tp
		return ex, nil
	}
	compiled, err := s.sys.CompilePlanExpr(ast)
	if err != nil {
		return nil, err
	}
	ex.Expr, ex.compiled = compiled.Canonical(), compiled
	return ex, nil
}

// executeV1 answers one POST /v1/query: it snapshots the watermark vector
// and executes, taking an admission slot if the answer has to be computed.
// body, when non-nil, is resp already encoded (see execute).
func (s *Server) executeV1(ex *v1Exec) (resp *api.QueryResponse, body []byte, aerr *api.Error) {
	// Resolve target streams and snapshot their watermarks: the consistent
	// horizon this query is pinned to, however far ingest advances while it
	// runs. Streams pinned through `at` (or a cursor) keep their explicit
	// watermark — the cache key renders the resolved vector either way, so
	// a pinned request and a snapshot that happened to land on the same
	// vector share one entry (they are the same pure function).
	names, vector, aerr := s.resolveVector(ex.Streams, ex.At)
	if aerr != nil {
		return nil, nil, aerr
	}
	return s.execute(ex, names, vector, true)
}

// countQuery counts one /v1/query request by answer form, once it is
// certain to be answered: found in the cache, or admitted.
func (s *Server) countQuery(ex *v1Exec) {
	switch ex.ResponseForm() {
	case api.FormTracks:
		s.trackQueries.Add(1)
	case api.FormRanked:
		s.planQueries.Add(1)
		if ex.Mode == api.ModeEarlyExit {
			s.earlyExitQueries.Add(1)
		}
	default:
		s.queries.Add(1)
	}
}

// execKey renders an execution identity as the result-cache key: the
// response form, the canonical predicate (not the request text, so
// "car&person" and " car & person " collide), every option that shapes the
// answer, the mode (modes are disjoint pure functions, so disjoint
// entries), and each resolved stream with its pinned watermark. The page
// (limit/offset) is deliberately absent — paging shares the cached
// execution. With a nil vector (every stream renders @0) the same
// rendering is a standing query's coalescing key.
func execKey(form string, id *api.Cursor) string {
	b := make([]byte, 0, 96+len(id.Expr)+24*len(id.Streams))
	b = append(b, form...)
	b = append(b, '|')
	b = append(b, id.Expr...)
	b = append(b, "|k="...)
	b = strconv.AppendInt(b, int64(id.TopK), 10)
	b = append(b, "&kx="...)
	b = strconv.AppendInt(b, int64(id.Kx), 10)
	b = append(b, "&s="...)
	b = strconv.AppendFloat(b, id.Start, 'g', -1, 64)
	b = append(b, "&e="...)
	b = strconv.AppendFloat(b, id.End, 'g', -1, 64)
	b = append(b, "&m="...)
	b = strconv.AppendInt(b, int64(id.MaxClusters), 10)
	b = append(b, "&mode="...)
	b = append(b, id.Mode...)
	for _, n := range id.Streams {
		b = append(b, '|')
		b = append(b, n...)
		b = append(b, '@')
		b = strconv.AppendFloat(b, id.At[n], 'g', -1, 64)
	}
	return string(b)
}

// execute answers one resolved execution at the given vector: from the
// result cache when the same pure function already ran, through the form's
// engine otherwise; ranked and tracks answers are then sliced to the
// requested page of the (cached) full ranking and the continuation cursor
// is minted. The returned response is private to the caller (safe to hand
// to an encoder); cached state is never aliased mutably — the cached copy
// stays Cached=false, describing the execution.
//
// oneShot marks a POST /v1/query request as against a standing query's
// evaluation: it is counted, and — the cache being probed first — only a
// miss takes an admission slot, so a hit neither queues behind GPU-bound
// misses nor draws a 429. For a one-shot hit that is the entry's whole
// answer (no page cut out of it), body is the reply's encoding when the
// entry keeps one (cacheEntry.hitBody); otherwise it is nil and the caller
// renders resp.
func (s *Server) execute(ex *v1Exec, names []string, vector api.WatermarkVector, oneShot bool) (resp *api.QueryResponse, body []byte, aerr *api.Error) {
	id := ex.Cursor
	id.Streams, id.At = names, vector
	form := ex.ResponseForm()
	key := execKey(form, &id)
	ent := s.cache.get(key)
	cached := ent != nil
	if !cached && oneShot {
		if !s.limiter.Acquire() {
			s.rejected.Add(1)
			return nil, nil, api.Errorf(api.CodeOverloaded, "overloaded: query queue is full")
		}
		defer s.limiter.Release()
	}
	if oneShot {
		s.countQuery(ex)
	}
	if cached {
		s.cacheHits.Add(1)
	} else {
		full := &api.QueryResponse{
			Expr:        id.Expr,
			Form:        form,
			Watermarks:  vector,
			TopK:        id.TopK,
			Kx:          id.Kx,
			Start:       id.Start,
			End:         id.End,
			MaxClusters: id.MaxClusters,
			Mode:        id.Mode,
		}
		leaf := focus.QueryOptions{Kx: id.Kx, StartSec: id.Start, EndSec: id.End, MaxClusters: id.MaxClusters}
		var err error
		switch form {
		case api.FormFrames:
			err = s.runFrames(ex.compiled, &id, leaf, full)
		case api.FormTracks:
			err = s.runTracks(ex.trackPlan, &id, leaf, full)
		default:
			err = s.runRanked(ex.compiled, &id, leaf, full)
		}
		if err != nil {
			return nil, nil, api.Errorf(api.CodeInternal, "%v", err)
		}
		ent = s.cache.put(key, full)
		s.cacheMisses.Add(1)
	}
	out := api.PageOf(ent.resp, id, ex.Limit)
	out.Cached = cached
	if cached && oneShot && ex.Limit == 0 && id.Offset == 0 {
		body = ent.hitBody(out)
	}
	return out, body, nil
}

// The run functions execute one form's engine at the pinned identity id
// (resolved Streams, watermark vector in At) and fill the answer into out,
// whose echo fields execute has already set.

// runFrames answers a bare one-leaf plan through the single-class engine,
// in the per-stream frames form.
func (s *Server) runFrames(p *plan.Plan, id *api.Cursor, leaf focus.QueryOptions, out *api.QueryResponse) error {
	class, ok := p.SingleClass()
	if !ok {
		return fmt.Errorf("frames execution of a non-single-leaf plan")
	}
	res, err := s.sys.Query(focus.Query{Class: class, Streams: id.Streams, Options: leaf, AtWatermarks: id.At})
	if err != nil {
		return err
	}
	out.Streams = make(map[string]*api.StreamResult, len(res.PerStream))
	out.TotalFrames = res.TotalFrames
	out.GPUTimeMS, out.LatencyMS = res.GPUTimeMS, res.LatencyMS
	for name, sr := range res.PerStream {
		st := &api.StreamResult{
			Watermark:        id.At[name],
			Frames:           make([]int64, len(sr.Frames)),
			Segments:         make([]int64, len(sr.Segments)),
			ExaminedClusters: sr.ExaminedClusters,
			MatchedClusters:  sr.MatchedClusters,
			GTInferences:     sr.GTInferences,
			GPUTimeMS:        sr.GPUTimeMS,
			LatencyMS:        sr.LatencyMS,
			ViaOther:         sr.ViaOther,
		}
		for i, f := range sr.Frames {
			st.Frames[i] = int64(f)
		}
		for i, seg := range sr.Segments {
			st.Segments[i] = int64(seg)
		}
		out.GTInferences += sr.GTInferences
		out.Streams[name] = st
	}
	return nil
}

// runRanked answers through the plan pipeline: the full ranking, exact or
// early-exit as id.Mode says.
func (s *Server) runRanked(p *plan.Plan, id *api.Cursor, leaf focus.QueryOptions, out *api.QueryResponse) error {
	res, err := s.sys.ExecutePlan(p, focus.PlanOptions{
		Streams:      id.Streams,
		TopK:         id.TopK,
		Leaf:         leaf,
		AtWatermarks: id.At,
		EarlyExit:    id.Mode == api.ModeEarlyExit,
	})
	if err != nil {
		return err
	}
	out.Items = make([]api.Item, len(res.Items))
	for i, it := range res.Items {
		out.Items[i] = api.Item{
			Stream:  it.Stream,
			Frame:   int64(it.Frame),
			TimeSec: it.TimeSec,
			Segment: int64(it.Segment),
			Score:   it.Score,
		}
	}
	out.TotalItems = len(res.Items)
	out.GTInferences, out.GPUTimeMS, out.LatencyMS = res.Stats.GTInferences, res.Stats.GPUTimeMS, res.Stats.LatencyMS
	return nil
}

// runTracks answers a temporal expression through the track pipeline.
func (s *Server) runTracks(tp *track.Plan, id *api.Cursor, leaf focus.QueryOptions, out *api.QueryResponse) error {
	res, err := s.sys.ExecuteTrackQuery(tp, focus.TrackOptions{
		Streams:      id.Streams,
		TopK:         id.TopK,
		Leaf:         leaf,
		AtWatermarks: id.At,
	})
	if err != nil {
		return err
	}
	out.Tracks = make([]api.TrackItem, len(res.Items))
	for i, it := range res.Items {
		out.Tracks[i] = api.TrackItem{
			Stream:     it.Stream,
			Track:      it.Track,
			Object:     int64(it.Object),
			StartFrame: int64(it.StartFrame),
			EndFrame:   int64(it.EndFrame),
			StartSec:   it.StartSec,
			EndSec:     it.EndSec,
			Sightings:  it.Sightings,
			Score:      it.Score,
		}
	}
	out.TotalItems = len(res.Items)
	out.GTInferences, out.GPUTimeMS, out.LatencyMS = res.Stats.GTInferences, res.Stats.GPUTimeMS, res.Stats.LatencyMS
	return nil
}

// countV1Error mirrors the error onto the server's counters: overload
// rejections, client errors, and server errors each have a gauge;
// deliberate unavailability (draining, not ready) is state, not an error,
// and is not counted.
func (s *Server) countV1Error(e *api.Error) {
	switch e.HTTPStatus() {
	case http.StatusBadRequest:
		s.clientErrs.Add(1)
	case http.StatusInternalServerError:
		s.serverErrs.Add(1)
	}
	// Overloaded is counted at the rejection site (s.rejected) so the
	// limiter path and this path cannot double-count.
}

// overloadedRetryAfter is the Retry-After hint sent with admission-control
// rejections, in seconds. One second comfortably outlasts a queue-depth
// burst; the client's jittered backoff spreads the comeback regardless.
const overloadedRetryAfter = "1"

// writeV1Error writes the structured error envelope at the code's status.
// Overload rejections carry a Retry-After header so well-behaved clients
// (including this repo's client package) come back on the server's terms.
func (s *Server) writeV1Error(w http.ResponseWriter, e *api.Error) {
	s.countV1Error(e)
	if e.Code == api.CodeOverloaded {
		w.Header().Set("Retry-After", overloadedRetryAfter)
	}
	writeJSON(w, e.HTTPStatus(), api.Envelope{Err: e})
}

func cacheHeaderValue(cached bool) string {
	if cached {
		return "hit"
	}
	return "miss"
}

// handleV1Query is POST /v1/query: the primary query surface.
func (s *Server) handleV1Query(w http.ResponseWriter, r *http.Request) {
	// Draining is checked before readiness: mid-boot drains must read as
	// deliberate.
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
			Err: api.Errorf(api.CodeBadRequest, "POST a JSON body to %s", api.PathQuery)})
		return
	}
	var req api.QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, api.MaxRequestBytes)).Decode(&req); err != nil {
		s.writeV1Error(w, api.Errorf(api.CodeBadRequest, "bad %s body: %v", api.PathQuery, err))
		return
	}
	ex, aerr := s.resolveV1(&req)
	if aerr != nil {
		s.writeV1Error(w, aerr)
		return
	}
	resp, body, aerr := s.executeV1(ex)
	if aerr != nil {
		s.writeV1Error(w, aerr)
		return
	}
	w.Header().Set("X-Focus-Cache", cacheHeaderValue(resp.Cached))
	if body != nil {
		api.WriteQueryBody(w, body)
		return
	}
	api.WriteQueryResponse(w, resp)
}
