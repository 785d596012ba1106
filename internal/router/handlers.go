package router

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"focus/api"
	"focus/internal/plan"
)

// The router speaks the v1 wire contract on both sides: clients POST
// /v1/query to the router, the router scatters per-shard v1 sub-requests
// to the owning shards, and gathered failures are classified by their
// structured error code — never by message strings or marker headers.

// writeV1Error mirrors the error onto the router's counters and writes
// the structured envelope.
func (r *Router) writeV1Error(w http.ResponseWriter, e *api.Error) {
	r.countError(e)
	writeJSON(w, e.HTTPStatus(), api.Envelope{Err: e})
}

func (r *Router) countError(e *api.Error) {
	switch e.HTTPStatus() {
	case http.StatusTooManyRequests:
		r.rejected.Add(1)
	case http.StatusBadRequest:
		r.clientErrs.Add(1)
	default:
		r.unavailable.Add(1)
	}
}

// shardGroup is one shard's slice of a request: the streams it owns, in
// sorted order. Groups are emitted in shard-name order so every gather,
// merge, and error report is deterministic.
type shardGroup struct {
	spec    ShardSpec
	streams []string
}

// groupByShard resolves the requested streams (empty = every known stream)
// to per-shard groups, failing fast — with an explicit error naming the
// shard — when any owning shard is down, draining, or in probation. Routed
// queries are all-or-nothing by default: a partial answer would silently
// change aggregates and rankings, so partial failure must be loud. With
// allowPartial, unroutable shards are returned as missing groups instead
// of an error — the caller merges the healthy subset and marks the answer
// partial — but only as long as at least one owning shard is routable.
func (r *Router) groupByShard(requested []string, allowPartial bool) (groups, missing []shardGroup, _ *api.Error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	streams := requested
	if len(streams) == 0 {
		streams = make([]string, 0, len(r.owners))
		for st := range r.owners {
			streams = append(streams, st)
		}
		sort.Strings(streams)
	}
	if len(streams) == 0 {
		return nil, nil, api.Errorf(api.CodeUnavailable, "no streams available (no shard ownership discovered)")
	}
	byShard := make(map[string][]string)
	for _, st := range streams {
		owner, ok := r.owners[st]
		if !ok {
			return nil, nil, api.Errorf(api.CodeUnknownStream, "unknown stream %q", st)
		}
		byShard[owner.shard] = append(byShard[owner.shard], st)
	}
	names := make([]string, 0, len(byShard))
	for n := range byShard {
		names = append(names, n)
	}
	sort.Strings(names)
	groups = make([]shardGroup, 0, len(names))
	for _, n := range names {
		sh := r.shards[n]
		var e *api.Error
		switch sh.state {
		case StateDraining:
			e = api.Errorf(api.CodeDraining, "shard %q is draining (owns %s)", n, strings.Join(byShard[n], ","))
		case StateDown:
			e = api.Errorf(api.CodeShardDown, "shard %q is down: %s (owns %s)", n, sh.lastErr, strings.Join(byShard[n], ","))
		case StateProbation:
			e = api.Errorf(api.CodeShardDown, "shard %q is %s (owns %s)", n, sh.lastErr, strings.Join(byShard[n], ","))
		}
		if e != nil {
			if allowPartial {
				missing = append(missing, shardGroup{spec: sh.spec, streams: byShard[n]})
				continue
			}
			e.Shard = n
			return nil, nil, e
		}
		groups = append(groups, shardGroup{spec: sh.spec, streams: byShard[n]})
	}
	if len(groups) == 0 {
		// allow_partial tolerates a degraded answer, not an absent one:
		// with no routable shard at all the request fails like the strict
		// path would.
		n := missing[0].spec.Name
		e := api.Errorf(api.CodeShardDown, "no routable shard: every owning shard is down, draining, or in probation (first: %q)", n)
		e.Shard = n
		return nil, nil, e
	}
	return groups, missing, nil
}

// shardReply is one sub-request's outcome.
type shardReply struct {
	shard  string
	status int
	body   []byte
	err    error
}

// apiError decodes the reply's structured error (degrading gracefully for
// non-envelope bodies).
func (rep *shardReply) apiError() *api.Error {
	return api.DecodeError(rep.status, rep.body)
}

// scatter issues one sub-request per group concurrently — each with the
// per-shard retry policy — and gathers the replies in group (shard-name)
// order.
func (r *Router) scatter(groups []shardGroup, call func(g shardGroup) (*http.Response, error)) []shardReply {
	replies := make([]shardReply, len(groups))
	var wg sync.WaitGroup
	for i, g := range groups {
		wg.Add(1)
		go func(i int, g shardGroup) {
			defer wg.Done()
			r.callShard(g, call, &replies[i])
		}(i, g)
	}
	wg.Wait()
	return replies
}

// callShard runs one sub-request with retries. Only transient shapes are
// retried — transport errors, structured "unavailable"/"not_ready" 5xxs,
// and overloaded 429s (whose Retry-After, when sent, sets the wait) — so a
// blip inside one scatter heals without surfacing to the client, while
// deterministic failures (client errors, draining, internal) come back
// immediately.
func (r *Router) callShard(g shardGroup, call func(g shardGroup) (*http.Response, error), rep *shardReply) {
	rep.shard = g.spec.Name
	for attempt := 0; ; attempt++ {
		r.shardReqs.Add(1)
		*rep = shardReply{shard: g.spec.Name}
		var retryAfter string
		resp, err := call(g)
		if err != nil {
			rep.err = err
		} else {
			rep.status = resp.StatusCode
			retryAfter = resp.Header.Get("Retry-After")
			rep.body, rep.err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		if attempt >= r.cfg.ShardRetries || !retryableReply(rep) {
			return
		}
		r.shardRetried.Add(1)
		time.Sleep(r.shardRetryDelay(attempt, retryAfter))
	}
}

// retryableReply reports whether a sub-request failure is worth retrying.
func retryableReply(rep *shardReply) bool {
	if rep.err != nil {
		return true
	}
	if rep.status == http.StatusTooManyRequests {
		return true
	}
	if rep.status >= 500 {
		switch rep.apiError().Code {
		case api.CodeUnavailable, api.CodeNotReady:
			return true
		}
	}
	return false
}

// shardRetryMaxBackoff caps the exponential growth of sub-request retry
// waits; the router holds a client connection open while it retries, so
// the cap is tighter than a standalone client's.
const shardRetryMaxBackoff = 2 * time.Second

// shardRetryDelay mirrors the client package's policy in miniature:
// Retry-After (delta-seconds) wins; otherwise the base backoff doubles per
// attempt, capped, jittered over the upper half of the window.
func (r *Router) shardRetryDelay(attempt int, retryAfter string) time.Duration {
	if retryAfter != "" {
		if secs, err := strconv.ParseFloat(retryAfter, 64); err == nil && secs >= 0 {
			if d := time.Duration(secs * float64(time.Second)); d < shardRetryMaxBackoff {
				return d
			}
			return shardRetryMaxBackoff
		}
	}
	d := r.cfg.ShardBackoff << uint(attempt)
	if d > shardRetryMaxBackoff || d <= 0 {
		d = shardRetryMaxBackoff
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1))
}

// gatherError maps the scattered replies to the single error the client
// sees, or nil when every shard answered 2xx — classified by the shards'
// structured error codes. Precedence: a client error (bad_*, pin_ahead,
// unknown_stream) is the caller's bug and wins, passed through verbatim;
// then unavailability (transport errors, draining, anything 5xx-ish) —
// retrying won't help until the shard recovers; then overload, where a
// retry is exactly right.
func gatherError(replies []shardReply) *api.Error {
	classify := func(pick func(rep *shardReply) *api.Error) *api.Error {
		for i := range replies {
			if e := pick(&replies[i]); e != nil {
				return e
			}
		}
		return nil
	}
	if e := classify(func(rep *shardReply) *api.Error {
		if rep.err == nil && rep.status == http.StatusBadRequest {
			return rep.apiError()
		}
		return nil
	}); e != nil {
		return e
	}
	if e := classify(func(rep *shardReply) *api.Error {
		switch {
		case rep.err != nil:
			e := api.Errorf(api.CodeShardDown, "shard %q unavailable: %v", rep.shard, rep.err)
			e.Shard = rep.shard
			return e
		case rep.status >= 200 && rep.status < 300, rep.status == http.StatusTooManyRequests:
			return nil
		default:
			se := rep.apiError()
			if se.Code == api.CodeDraining {
				e := api.Errorf(api.CodeDraining, "shard %q is draining", rep.shard)
				e.Shard = rep.shard
				return e
			}
			e := api.Errorf(api.CodeShardDown, "shard %q returned status %d: %s", rep.shard, rep.status, se.Message)
			e.Shard = rep.shard
			return e
		}
	}); e != nil {
		return e
	}
	return classify(func(rep *shardReply) *api.Error {
		if rep.status == http.StatusTooManyRequests {
			e := api.Errorf(api.CodeOverloaded, "shard %q overloaded: %s", rep.shard, rep.apiError().Message)
			e.Shard = rep.shard
			return e
		}
		return nil
	})
}

// routedExec is a resolved routed execution, the router-side analogue of
// the serve layer's v1Exec: the shared request identity (predicate still
// textual — shards compile it — and Mode and form forced onto every
// scatter sub-request so shards can never mix them within one answer) plus
// the one router-only ask.
type routedExec struct {
	api.Exec
	// allowPartial opts into a degraded answer when some owning shards
	// are unroutable or fail: the healthy subset is merged and the
	// response carries a PartialInfo marker. Never implicit. A cursor
	// minted from a partial answer already froze the healthy stream
	// subset; re-opting in only matters if further shards fail
	// mid-pagination.
	allowPartial bool
}

// exprShape parses a predicate for the shared form rule: the decision is
// syntactic, so the router needs no class space (shards compile).
func exprShape(expr string) (api.ExprShape, error) {
	ast, err := plan.Parse(expr)
	if err != nil {
		return api.ExprShape{}, err
	}
	return api.ExprShape{Temporal: plan.HasTemporal(ast), SingleLeaf: plan.IsSingleLeafExpr(ast)}, nil
}

// resolveRouted normalizes a wire QueryRequest through the same rule the
// shards apply; the router then forces the decided form on every shard so
// a scatter can never mix forms.
func resolveRouted(req *api.QueryRequest) (*routedExec, *api.Error) {
	ex, aerr := api.ResolveRequest(req, exprShape)
	if aerr != nil {
		return nil, aerr
	}
	return &routedExec{Exec: *ex, allowPartial: req.AllowPartial}, nil
}

// routeV1 is the routing core: group the target streams by owning shard,
// scatter one unpaged v1 sub-request per shard (each pinned to its slice
// of the vector, forced to the decided form), gather, merge
// deterministically, then page the merged ranking router-side and mint the
// continuation cursor over the merged watermark vector.
func (r *Router) routeV1(ex *routedExec) (*api.QueryResponse, int, *api.Error) {
	groups, missing, aerr := r.groupByShard(ex.Streams, ex.allowPartial)
	if aerr != nil {
		return nil, 0, aerr
	}
	// Pins are validated against the full resolved set, missing shards
	// included: a pin on a currently-down stream is a coherent ask (the
	// stream is in the target set), and allow_partial answers without it —
	// naming it in the partial marker — rather than flipping the request
	// into bad_request whenever a shard is out.
	if aerr := validatePins(ex.At, append(append([]shardGroup(nil), groups...), missing...)); aerr != nil {
		return nil, 0, aerr
	}
	form := ex.ResponseForm()
	switch form {
	case api.FormTracks:
		r.trackQueries.Add(1)
	case api.FormRanked:
		r.planQueries.Add(1)
		if ex.Mode == api.ModeEarlyExit {
			r.earlyExitQueries.Add(1)
		}
	default:
		r.queries.Add(1)
	}
	// The decided form is forced on every shard — a shard must not fall
	// into the frames form for a one-leaf expr the router decided to rank
	// (TopK/Limit/Cursor live router-side) — except the frames form itself,
	// which cannot be forced: it is what a bare one-leaf request gets.
	subForm := form
	if ex.Frames {
		subForm = ""
	}
	replies := r.scatter(groups, func(g shardGroup) (*http.Response, error) {
		sub := api.QueryRequest{
			Expr:        ex.Expr,
			Streams:     g.streams,
			TopK:        ex.TopK, // a shard's top K is a superset of its share of the merged top K
			Kx:          ex.Kx,
			Start:       ex.Start,
			End:         ex.End,
			MaxClusters: ex.MaxClusters,
			At:          subVector(ex.At, g.streams),
			Form:        subForm,
			// The decided mode is forced on every shard: a scatter that
			// mixed exact and early-exit sub-answers would merge two
			// different pure functions into one response.
			Mode: ex.Mode,
		}
		body, err := json.Marshal(&sub)
		if err != nil {
			return nil, err
		}
		return r.client.Post(g.spec.URL+api.PathQuery, "application/json", bytes.NewReader(body))
	})
	if ex.allowPartial {
		// Keep the 2xx subset; shard failures join the missing set. A 400
		// is the caller's bug — every shard would reject it — so partial
		// tolerance does not absorb it.
		var healthyGroups []shardGroup
		var healthyReplies []shardReply
		for i := range replies {
			rep := &replies[i]
			if rep.err == nil && rep.status >= 200 && rep.status < 300 {
				healthyGroups = append(healthyGroups, groups[i])
				healthyReplies = append(healthyReplies, *rep)
				continue
			}
			if rep.err == nil && rep.status == http.StatusBadRequest {
				return nil, 0, rep.apiError()
			}
			missing = append(missing, groups[i])
		}
		if len(healthyGroups) == 0 {
			return nil, 0, gatherError(replies)
		}
		groups, replies = healthyGroups, healthyReplies
	} else if aerr := gatherError(replies); aerr != nil {
		return nil, 0, aerr
	}
	parts := make([]*api.QueryResponse, len(replies))
	for i := range replies {
		parts[i] = new(api.QueryResponse)
		if err := api.DecodeQueryResponse(replies[i].body, parts[i]); err != nil {
			r.upstreamErrs.Add(1)
			e := api.Errorf(api.CodeUnavailable, "shard %q sent a bad %s body: %v", replies[i].shard, api.PathQuery, err)
			e.Shard = replies[i].shard
			return nil, 0, e
		}
	}
	merged, err := mergeParts(form, ex.TopK, parts)
	if err != nil {
		r.upstreamErrs.Add(1)
		return nil, 0, api.Errorf(api.CodeUnavailable, "%v", err)
	}
	if len(missing) > 0 {
		// Only reachable with allowPartial (the strict path errored out
		// above). The marker names exactly what the answer lacks; the
		// echoed watermark vector already covers only the answering
		// streams, so verification against a direct execution of the
		// healthy subset still holds bit-exactly.
		sort.Slice(missing, func(i, j int) bool { return missing[i].spec.Name < missing[j].spec.Name })
		pi := &api.PartialInfo{}
		for _, m := range missing {
			pi.MissingShards = append(pi.MissingShards, m.spec.Name)
			pi.MissingStreams = append(pi.MissingStreams, m.streams...)
		}
		sort.Strings(pi.MissingStreams)
		merged.Partial = pi
		r.partials.Add(1)
	}
	// Page the merged ranking router-side; the continuation freezes the
	// canonical expr the shards echoed, the streams that answered, and the
	// merged vector.
	id := ex.Cursor
	id.Expr, id.At, id.Streams = merged.Expr, merged.Watermarks, nil
	for _, g := range groups {
		id.Streams = append(id.Streams, g.streams...)
	}
	sort.Strings(id.Streams)
	return api.PageOf(merged, id, ex.Limit), len(groups), nil
}

// handleV1Query is the router's POST /v1/query.
func (r *Router) handleV1Query(w http.ResponseWriter, req *http.Request) {
	if !r.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, api.Envelope{Err: api.Errorf(api.CodeNotReady, "router not ready")})
		return
	}
	if req.Method != http.MethodPost {
		r.clientErrs.Add(1)
		writeJSON(w, http.StatusMethodNotAllowed, api.Envelope{
			Err: api.Errorf(api.CodeBadRequest, "POST a JSON body to %s", api.PathQuery)})
		return
	}
	var qreq api.QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, req.Body, api.MaxRequestBytes)).Decode(&qreq); err != nil {
		r.writeV1Error(w, api.Errorf(api.CodeBadRequest, "bad %s body: %v", api.PathQuery, err))
		return
	}
	ex, aerr := resolveRouted(&qreq)
	if aerr != nil {
		r.writeV1Error(w, aerr)
		return
	}
	merged, fanout, aerr := r.routeV1(ex)
	if aerr != nil {
		r.writeV1Error(w, aerr)
		return
	}
	setCacheHeader(w, merged.Cached)
	w.Header().Set(fanoutHeader, strconv.Itoa(fanout))
	api.WriteQueryResponse(w, merged)
}

// handleStreams scatters GET /v1/streams to every responsive shard and
// merges the statuses — shard-annotated, sorted by stream name. Unlike the
// query path — where a partial answer would be a wrong answer — this is an
// operator surface: down shards are skipped and named in the
// X-Focus-Partial header so the rest of the cluster stays observable
// during an outage.
func (r *Router) handleStreams(w http.ResponseWriter, req *http.Request) {
	r.mu.RLock()
	var groups []shardGroup
	for _, name := range r.shardNamesLocked() {
		if sh := r.shards[name]; sh.state != StateDown {
			groups = append(groups, shardGroup{spec: sh.spec})
		}
	}
	owners := make(map[string]streamOwner, len(r.owners))
	for st, o := range r.owners {
		owners[st] = o
	}
	r.mu.RUnlock()
	replies := r.scatter(groups, func(g shardGroup) (*http.Response, error) {
		return r.client.Get(g.spec.URL + api.PathStreams)
	})
	// Non-nil so an all-shards-down cluster serializes as [], not null —
	// clients iterate this array.
	out := []api.StreamStatus{}
	var partial []string
	for i := range replies {
		rep := &replies[i]
		var statuses []api.StreamStatus
		if rep.err != nil || rep.status != http.StatusOK || json.Unmarshal(rep.body, &statuses) != nil {
			partial = append(partial, rep.shard)
			continue
		}
		for _, st := range statuses {
			// Mid-cutover a handoff's source and destination may both
			// report the stream for under a poll round; list only the
			// resolved owner's copy.
			if o, ok := owners[st.Name]; ok && o.shard != rep.shard {
				continue
			}
			st.Shard = rep.shard
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	if len(partial) > 0 {
		sort.Strings(partial)
		w.Header().Set("X-Focus-Partial", strings.Join(partial, ","))
	}
	writeJSON(w, http.StatusOK, out)
}

// ShardStatus is one shard's entry in the router's /v1/stats payload.
type ShardStatus struct {
	Name  string `json:"name"`
	URL   string `json:"url"`
	State string `json:"state"`
	Error string `json:"error,omitempty"`
	// Streams the shard currently owns (last successful discovery).
	Streams []string `json:"streams"`
	// Watermarks are the shard's per-stream ingest watermarks as of the
	// last poll — the router's (slightly stale) view; authoritative values
	// come back on every routed response.
	Watermarks map[string]float64 `json:"watermarks,omitempty"`
	// PlacementOK is false when the shard serves streams the shard map
	// assigns elsewhere (or that another shard also serves).
	PlacementOK bool `json:"placement_ok"`
}

// Stats is the router's /v1/stats payload.
type Stats struct {
	UptimeSec   float64 `json:"uptime_sec"`
	Ready       bool    `json:"ready"`
	Queries     int64   `json:"queries"`
	PlanQueries int64   `json:"plan_queries"`
	// TrackQueries counts temporal (tracks-form) queries.
	TrackQueries int64 `json:"track_queries"`
	// EarlyExitQueries counts ranked queries routed in early-exit mode, a
	// subset of PlanQueries.
	EarlyExitQueries int64 `json:"early_exit_queries"`
	ShardRequests    int64 `json:"shard_requests"`
	// ShardRetries counts retried shard sub-requests; PartialResponses
	// counts answers returned degraded under allow_partial.
	ShardRetries     int64 `json:"shard_retries"`
	PartialResponses int64 `json:"partial_responses"`
	Rejected         int64 `json:"rejected"`
	Unavailable      int64 `json:"unavailable"`
	ClientErrors     int64 `json:"client_errors"`
	UpstreamErrors   int64 `json:"upstream_errors"`
	// Subscriptions counts routed standing queries ever accepted;
	// ActiveSubscriptions the ones currently streaming; DeltaEvents the
	// merged delta frames emitted across all of them; SubscriptionDrops
	// the subscriptions shed (drop + shard_lost) after a per-shard leg
	// failed mid-stream.
	Subscriptions       int64 `json:"subscriptions"`
	ActiveSubscriptions int64 `json:"subscriptions_active"`
	DeltaEvents         int64 `json:"delta_events"`
	SubscriptionDrops   int64 `json:"subscription_drops"`
	// Reshards counts /v1/admin/reshard operations accepted; ReshardMoves
	// streams moved by them; ReshardErrors failed stream moves (each one
	// aborted or rolled forward per the handoff protocol — see
	// OPERATIONS.md §"Resharding").
	Reshards      int64         `json:"reshards"`
	ReshardMoves  int64         `json:"reshard_moves"`
	ReshardErrors int64         `json:"reshard_errors"`
	Shards        []ShardStatus `json:"shards"`
}

// Snapshot returns the router's counters and shard view (also served at
// /v1/stats).
func (r *Router) Snapshot() Stats {
	var uptime float64
	if ns := r.startedNS.Load(); ns > 0 {
		uptime = time.Since(time.Unix(0, ns)).Seconds()
	}
	st := Stats{
		UptimeSec:        uptime,
		Ready:            r.ready.Load(),
		Queries:          r.queries.Load(),
		PlanQueries:      r.planQueries.Load(),
		TrackQueries:     r.trackQueries.Load(),
		EarlyExitQueries: r.earlyExitQueries.Load(),
		ShardRequests:    r.shardReqs.Load(),
		ShardRetries:     r.shardRetried.Load(),
		PartialResponses: r.partials.Load(),
		Rejected:         r.rejected.Load(),
		Unavailable:      r.unavailable.Load(),
		ClientErrors:     r.clientErrs.Load(),
		UpstreamErrors:   r.upstreamErrs.Load(),

		Subscriptions:       r.subs.Load(),
		ActiveSubscriptions: r.subsActive.Load(),
		DeltaEvents:         r.subDeltas.Load(),
		SubscriptionDrops:   r.subDrops.Load(),
		Reshards:            r.reshards.Load(),
		ReshardMoves:        r.reshardMoves.Load(),
		ReshardErrors:       r.reshardErrs.Load(),
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.shardNamesLocked() {
		sh := r.shards[name]
		ss := ShardStatus{
			Name:        name,
			URL:         sh.spec.URL,
			State:       sh.state,
			Error:       sh.lastErr,
			Streams:     append([]string(nil), sh.streams...),
			PlacementOK: sh.placementOK,
		}
		if len(sh.watermarks) > 0 {
			ss.Watermarks = make(map[string]float64, len(sh.watermarks))
			for k, v := range sh.watermarks {
				ss.Watermarks[k] = v
			}
		}
		st.Shards = append(st.Shards, ss)
	}
	return st
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	writeJSON(w, http.StatusOK, r.Snapshot())
}

// handleHealthz reports the cluster's aggregate health: "ok" when every
// shard is healthy, "degraded" (still 200 — the router can serve queries
// not touching the broken shards) when some are not, 503 when no shard is
// usable at all.
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	if !r.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, api.Envelope{Err: api.Errorf(api.CodeNotReady, "router not ready")})
		return
	}
	r.mu.RLock()
	states := make(map[string]string, len(r.shards))
	healthy := 0
	for name, sh := range r.shards {
		states[name] = sh.state
		if sh.state == StateHealthy {
			healthy++
		}
	}
	r.mu.RUnlock()
	status := "ok"
	code := http.StatusOK
	switch {
	case healthy == 0:
		status, code = "unavailable", http.StatusServiceUnavailable
	case healthy < len(states):
		status = "degraded"
	}
	writeJSON(w, code, struct {
		Status string            `json:"status"`
		Shards map[string]string `json:"shards"`
	}{status, states})
}

// validatePins rejects pinned streams outside the resolved target set,
// mirroring the serve layer's resolveVector: a silently dropped pin (a
// typo, a removed stream) would quietly unpin the read. Pins inside the
// set are split per shard by subVector, so every shard's slice passes its
// own check too.
func validatePins(pins api.WatermarkVector, groups []shardGroup) *api.Error {
	if len(pins) == 0 {
		return nil
	}
	resolved := make(map[string]bool)
	for _, g := range groups {
		for _, st := range g.streams {
			resolved[st] = true
		}
	}
	names := make([]string, 0, len(pins))
	for n := range pins {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !resolved[n] {
			return api.Errorf(api.CodeBadRequest, "pinned stream %q is not among the query's streams", n)
		}
	}
	return nil
}

// subVector returns the pins restricted to the given streams (nil when
// none apply): each shard only ever sees its own slice of a pinned vector.
func subVector(pins api.WatermarkVector, streams []string) api.WatermarkVector {
	var out api.WatermarkVector
	for _, st := range streams {
		if at, ok := pins[st]; ok {
			if out == nil {
				out = make(api.WatermarkVector)
			}
			out[st] = at
		}
	}
	return out
}

// fanoutHeader reports how many shards a routed response was merged from.
const fanoutHeader = "X-Focus-Fanout"

func setCacheHeader(w http.ResponseWriter, cached bool) {
	if cached {
		w.Header().Set("X-Focus-Cache", "hit")
	} else {
		w.Header().Set("X-Focus-Cache", "miss")
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
