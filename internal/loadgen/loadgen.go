// Package loadgen is a deterministic closed-loop load generator for the
// focus-serve HTTP service — or for a focus-router fronting several serve
// shards, whose wire contract is identical: N client goroutines issue
// back-to-back /v1/query requests through the typed focus/client package,
// with Zipf-skewed class popularity (mirroring the skewed query interest
// the paper's streams exhibit, §2.2) — single-class (frames-form) traffic
// optionally mixed with compound ranked plans, temporal track queries,
// cursor-paged reads and standing queries.
// It records throughput, a latency histogram, and per-status counts.
// Optional verifiers re-execute sampled responses directly against the
// owning focus.System at the exact watermark vector the service answered
// at, asserting the served result is identical — the serving stack
// (transport, cache, admission, scatter-gather, paging) must never change
// an answer.
//
// "Closed loop" means each client waits for its response before issuing the
// next request, so offered load adapts to service capacity; client request
// sequences are pure functions of (seed, client index).
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"focus/api"
	"focus/client"
	"focus/internal/simrand"
)

// Config parameterizes one load-generation run.
type Config struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:7070".
	BaseURL string
	// Clients is the number of concurrent closed-loop clients. Default 16.
	Clients int
	// Duration is the wall-clock run length. Default 10s.
	Duration time.Duration
	// MaxRequestsPerClient additionally caps each client's request count;
	// 0 means duration-bound only.
	MaxRequestsPerClient int
	// Seed drives every client's deterministic request sequence. Default 1.
	Seed uint64
	// Classes is the queryable class-name pool in popularity order; clients
	// draw from it Zipf(ZipfAlpha)-skewed, so a few popular classes draw
	// most of the traffic (and exercise the result cache).
	Classes []string
	// Streams is the stream-name pool for single-stream queries; required
	// when SingleStreamEvery is set.
	Streams []string
	// SingleStreamEvery makes every Nth plain query per client target one
	// deterministically drawn stream from Streams instead of the whole
	// corpus (0 = always whole-corpus). Against a sharded router this is
	// what keeps exercising healthy shards while another shard drains —
	// whole-corpus requests all fail once any shard leaves rotation.
	SingleStreamEvery int
	// AcceptDraining counts structured "draining" rejections as expected
	// (Report.Draining) instead of failures. Set it only when the run
	// deliberately drains a shard; in a steady-state run a draining
	// rejection is as wrong as any other 5xx.
	AcceptDraining bool
	// AcceptOutage counts structured "shard_down", "unavailable" and
	// "not_ready" rejections as expected (Report.Outage) instead of
	// failures. Set it only when the run deliberately kills a shard (a
	// chaos drill); in a steady-state run they are as wrong as any other
	// 5xx. Untyped errors stay failures either way — an outage must
	// surface through the typed taxonomy, never as a bare 500 or a wrong
	// answer.
	AcceptOutage bool
	// AllowPartialEvery makes every Nth plain whole-corpus query per
	// client opt into degraded answers (allow_partial): during a shard
	// outage the router then answers from the healthy shards with the
	// Partial marker set (counted in Report.Partials) instead of failing
	// the query. Partial responses are verified like any other — the
	// echoed watermark vector covers exactly the streams that answered,
	// so the direct replay targets the same healthy subset. 0 = never.
	AllowPartialEvery int
	// ZipfAlpha is the popularity skew. Default 1.1.
	ZipfAlpha float64
	// VerifyEvery verifies every Nth OK response per client through the
	// matching verifier (1 = every response, 0 = never).
	VerifyEvery int
	// Verifier checks one served frames-form response; non-nil errors are
	// recorded as mismatches. See NewDirectVerifier.
	Verifier func(*api.QueryResponse) error
	// Plans is a pool of compound predicate expressions ("car & person &
	// !bus") issued as ranked /v1/query requests, mixed into the
	// single-class stream.
	Plans []string
	// PlanEvery makes every Nth request per client a ranked plan drawn
	// deterministically from Plans (0 = plans never issued).
	PlanEvery int
	// PlanTopK is the top_k for plan requests. Default 10.
	PlanTopK int
	// PlanVerifier checks one served ranked-form response; non-nil errors
	// are recorded as mismatches. See NewDirectPlanVerifier.
	PlanVerifier func(*api.QueryResponse) error
	// EarlyExitEvery makes every Nth plan request per client run in
	// early-exit mode (mode=early_exit on the /v1 request): the service
	// stops at PlanTopK verified items instead of ranking exhaustively.
	// Early-exit responses flow through
	// PlanVerifier like any other ranked response; against a router, use
	// NewSubsetPlanVerifier (shard-local samplers make the merged answer
	// differ from any single-node replay). 0 = plans are always exact.
	EarlyExitEvery int
	// Tracks is a pool of temporal predicate expressions ("car & dur(5)",
	// "person & seq(region(...), region(...))") issued as tracks-form
	// /v1/query requests.
	Tracks []string
	// TrackEvery makes every Nth request per client a track query drawn
	// deterministically from Tracks (0 = tracks never issued). When a
	// request lands on both the plan and the track cadence, the plan wins,
	// so adding track traffic never changes which requests the existing
	// plan mix issues.
	TrackEvery int
	// TrackVerifier checks one served tracks-form response; non-nil errors
	// are recorded as mismatches. See NewDirectTrackVerifier.
	TrackVerifier func(*api.QueryResponse) error
	// PageEvery makes every Nth plan (and every Nth track) request per
	// client a cursor-paged read (pages of PageSize items assembled through the opaque cursor,
	// then verified as one response — pinning paged == one-shot ==
	// direct). 0 = plans are always one-shot.
	PageEvery int
	// PageSize is the page limit for cursor-paged reads. Default 5.
	PageSize int
	// SubscribeEvery makes every Nth request per client a standing query:
	// the client opens POST /v1/subscribe with a predicate drawn
	// deterministically from the combined Plans and Tracks pools, collects
	// the opening catch-up delta plus whatever live deltas arrive within
	// SubscribeFor, then closes. When a request lands on both the
	// subscribe cadence and another cadence, the subscription wins —
	// standing-query traffic is the point of the knob. 0 = never.
	SubscribeEvery int
	// SubscribeFor bounds how long each opened subscription keeps
	// collecting deltas before it is verified and closed. Default 2s.
	SubscribeFor time.Duration
	// DeltaVerifier checks one subscription's reassembled answer at the
	// delivered vector; non-nil errors are recorded as mismatches. See
	// NewDeltaVerifier.
	DeltaVerifier DeltaVerifier
	// Timeout bounds each request. Default 30s.
	Timeout time.Duration
}

func (c *Config) applyDefaults() error {
	if c.BaseURL == "" {
		return fmt.Errorf("loadgen: BaseURL is required")
	}
	if len(c.Classes) == 0 {
		return fmt.Errorf("loadgen: at least one class is required")
	}
	if c.Clients <= 0 {
		c.Clients = 16
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ZipfAlpha <= 0 {
		c.ZipfAlpha = 1.1
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.PlanTopK <= 0 {
		c.PlanTopK = 10
	}
	if c.PageSize <= 0 {
		c.PageSize = 5
	}
	if c.PlanEvery > 0 && len(c.Plans) == 0 {
		return fmt.Errorf("loadgen: PlanEvery set but no Plans given")
	}
	if len(c.Plans) > 0 && c.PlanEvery <= 0 {
		// Symmetric check: a plan pool that never fires means the plan
		// path silently stops being exercised while looking configured.
		return fmt.Errorf("loadgen: Plans given but PlanEvery is 0 — no plan would ever be issued")
	}
	if c.TrackEvery > 0 && len(c.Tracks) == 0 {
		return fmt.Errorf("loadgen: TrackEvery set but no Tracks given")
	}
	if len(c.Tracks) > 0 && c.TrackEvery <= 0 {
		return fmt.Errorf("loadgen: Tracks given but TrackEvery is 0 — no track query would ever be issued")
	}
	if c.PageEvery > 0 && c.PlanEvery <= 0 && c.TrackEvery <= 0 {
		return fmt.Errorf("loadgen: PageEvery set but no plan or track traffic configured")
	}
	if c.EarlyExitEvery > 0 && c.PlanEvery <= 0 {
		return fmt.Errorf("loadgen: EarlyExitEvery set but no plan traffic configured")
	}
	if c.SingleStreamEvery > 0 && len(c.Streams) == 0 {
		return fmt.Errorf("loadgen: SingleStreamEvery set but no Streams given")
	}
	if c.SubscribeEvery > 0 && len(c.Plans) == 0 && len(c.Tracks) == 0 {
		return fmt.Errorf("loadgen: SubscribeEvery set but no Plans or Tracks given — nothing to subscribe to")
	}
	if c.SubscribeFor <= 0 {
		c.SubscribeFor = 2 * time.Second
	}
	return nil
}

// Report aggregates one run.
type Report struct {
	Clients    int     `json:"clients"`
	ElapsedSec float64 `json:"elapsed_sec"`
	Requests   int     `json:"requests"`
	// OK counts 2xx responses; Rejected counts structured "overloaded"
	// rejections (admission control doing its job under overload — not a
	// failure); Draining counts "draining" rejections when
	// Config.AcceptDraining opted into them (a shard deliberately rolled
	// out of rotation — never silent data loss, since routed queries are
	// all-or-nothing); without the opt-in they land in Unexpected, which
	// counts everything else by status code and fails the run.
	OK       int `json:"ok"`
	Rejected int `json:"rejected"`
	Draining int `json:"draining"`
	// Outage counts shard_down/unavailable/not_ready rejections when
	// Config.AcceptOutage opted into them (a chaos drill killed a shard
	// and the cluster refused loudly rather than answering wrong);
	// Partials counts 2xx responses carrying the Partial marker
	// (allow_partial answers that omitted a dead shard's streams).
	Outage     int         `json:"outage"`
	Partials   int         `json:"partial_responses"`
	Unexpected map[int]int `json:"unexpected,omitempty"`
	NetErrors  int         `json:"net_errors"`
	CacheHits  int         `json:"cache_hits"`
	Verified   int         `json:"verified"`
	// PlanRequests counts the ranked-plan share of Requests; PlanVerified
	// counts plan responses re-executed through PlanVerifier.
	PlanRequests int `json:"plan_requests"`
	PlanVerified int `json:"plan_verified"`
	// TrackRequests counts the tracks-form share of Requests; TrackVerified
	// counts track responses re-executed through TrackVerifier.
	TrackRequests int `json:"track_requests"`
	TrackVerified int `json:"track_verified"`
	// EarlyExitRequests counts the plan requests issued in early-exit mode
	// (a subset of PlanRequests).
	EarlyExitRequests int `json:"early_exit_requests"`
	// PagedRequests counts cursor-paged plan and track reads.
	PagedRequests int `json:"paged_requests"`
	// Subscriptions counts standing queries opened and cleanly closed;
	// DeltaEvents counts the deltas they received (every subscription
	// receives at least its opening catch-up); SubscriptionsVerified
	// counts reassembled answers replayed through DeltaVerifier.
	Subscriptions         int `json:"subscriptions"`
	DeltaEvents           int `json:"delta_events"`
	SubscriptionsVerified int `json:"subscriptions_verified"`
	// SubscriptionShortfall is set when the run was configured to open
	// standing queries (SubscribeEvery) but none completed — a silently
	// unexercised subscription mix must fail the gate, not pass it.
	SubscriptionShortfall string   `json:"subscription_shortfall,omitempty"`
	Mismatches            []string `json:"mismatches,omitempty"`
	// Latency percentiles over successful (2xx) responses, milliseconds.
	P50MS float64 `json:"p50_ms"`
	P90MS float64 `json:"p90_ms"`
	P99MS float64 `json:"p99_ms"`
	MaxMS float64 `json:"max_ms"`
	// ThroughputRPS counts completed requests (any status) per second.
	ThroughputRPS float64 `json:"throughput_rps"`
	// ErrorSamples holds a few representative transport errors.
	ErrorSamples []string `json:"error_samples,omitempty"`
}

// Failures returns the reasons this run should fail a CI gate: any
// non-2xx/overloaded response, any transport error, or any verification
// mismatch. p99 budgets are the caller's to assert (they are
// deployment-specific).
func (r *Report) Failures() []string {
	var out []string
	for status, n := range r.Unexpected {
		out = append(out, fmt.Sprintf("%d responses with unexpected status %d", n, status))
	}
	if r.NetErrors > 0 {
		out = append(out, fmt.Sprintf("%d transport errors (samples: %v)", r.NetErrors, r.ErrorSamples))
	}
	for _, m := range r.Mismatches {
		out = append(out, "served-vs-direct mismatch: "+m)
	}
	if r.SubscriptionShortfall != "" {
		out = append(out, r.SubscriptionShortfall)
	}
	sort.Strings(out)
	return out
}

// clientState accumulates one client's observations; merged after the run.
type clientState struct {
	latenciesMS []float64
	requests    int
	ok          int // all 2xx responses, plain and plan
	rejected    int
	draining    int
	outage      int
	partials    int
	unexpected  map[int]int
	netErrors   int
	cacheHits   int
	// plainOK and the per-form ok counts drive the verification cadences
	// independently, so mixing plan traffic in never changes which plain
	// responses the "verify every Nth OK" sampling picks.
	plainOK       int
	verified      int
	plan, track   formStats
	earlyExitReqs int
	pagedReqs     int
	subs          int
	deltaEvents   int
	subVerified   int
	mismatches    []string
	errSamples    []string
}

// formStats counts one rank-ordered form's share of a client's traffic:
// requests issued, 2xx responses, and responses replayed through the
// form's verifier.
type formStats struct{ requests, ok, verified int }

// Run executes the load generation and blocks until every client finishes.
func Run(cfg Config) (*Report, error) {
	if err := cfg.applyDefaults(); err != nil {
		return nil, err
	}
	zipf := simrand.NewZipf(len(cfg.Classes), cfg.ZipfAlpha)
	transport := &http.Transport{
		MaxIdleConns:        cfg.Clients * 2,
		MaxIdleConnsPerHost: cfg.Clients * 2,
	}
	httpc := &http.Client{Transport: transport, Timeout: cfg.Timeout}
	defer transport.CloseIdleConnections()
	// Zero retries: the generator must observe raw overload/draining
	// behavior, not have the client paper over it.
	cli := client.New(cfg.BaseURL, client.WithHTTPClient(httpc), client.WithRetries(0, 0))

	deadline := time.Now().Add(cfg.Duration)
	states := make([]*clientState, cfg.Clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		states[i] = &clientState{unexpected: make(map[int]int)}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			runClient(&cfg, i, zipf, cli, deadline, states[i])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	rep := &Report{Clients: cfg.Clients, ElapsedSec: elapsed.Seconds(), Unexpected: make(map[int]int)}
	var lat []float64
	for _, st := range states {
		rep.Requests += st.requests
		rep.OK += st.ok
		rep.Rejected += st.rejected
		rep.Draining += st.draining
		rep.Outage += st.outage
		rep.Partials += st.partials
		rep.NetErrors += st.netErrors
		rep.CacheHits += st.cacheHits
		rep.Verified += st.verified
		rep.PlanRequests += st.plan.requests
		rep.PlanVerified += st.plan.verified
		rep.TrackRequests += st.track.requests
		rep.TrackVerified += st.track.verified
		rep.EarlyExitRequests += st.earlyExitReqs
		rep.PagedRequests += st.pagedReqs
		rep.Subscriptions += st.subs
		rep.DeltaEvents += st.deltaEvents
		rep.SubscriptionsVerified += st.subVerified
		for code, n := range st.unexpected {
			rep.Unexpected[code] += n
		}
		for _, m := range st.mismatches {
			if len(rep.Mismatches) < 20 {
				rep.Mismatches = append(rep.Mismatches, m)
			}
		}
		for _, e := range st.errSamples {
			if len(rep.ErrorSamples) < 5 {
				rep.ErrorSamples = append(rep.ErrorSamples, e)
			}
		}
		lat = append(lat, st.latenciesMS...)
	}
	if len(rep.Unexpected) == 0 {
		rep.Unexpected = nil
	}
	sort.Float64s(lat)
	rep.P50MS = percentile(lat, 0.50)
	rep.P90MS = percentile(lat, 0.90)
	rep.P99MS = percentile(lat, 0.99)
	if n := len(lat); n > 0 {
		rep.MaxMS = lat[n-1]
	}
	if elapsed > 0 {
		rep.ThroughputRPS = float64(rep.Requests) / elapsed.Seconds()
	}
	if cfg.SubscribeEvery > 0 && rep.Subscriptions == 0 {
		rep.SubscriptionShortfall = fmt.Sprintf(
			"subscriptions requested (SubscribeEvery=%d) but none completed", cfg.SubscribeEvery)
	}
	return rep, nil
}

// runClient is one closed loop: draw a class (or, every PlanEvery-th
// request, a compound plan), query, record, repeat.
func runClient(cfg *Config, idx int, zipf *simrand.Zipf, cli *client.Client, deadline time.Time, st *clientState) {
	src := simrand.New(cfg.Seed).DeriveN(int64(idx), "loadgen-client")
	for time.Now().Before(deadline) {
		if cfg.MaxRequestsPerClient > 0 && st.requests >= cfg.MaxRequestsPerClient {
			return
		}
		st.requests++
		if cfg.SubscribeEvery > 0 && st.requests%cfg.SubscribeEvery == 0 {
			runSubscription(cfg, idx, src, cli, st)
			continue
		}
		if cfg.PlanEvery > 0 && st.requests%cfg.PlanEvery == 0 {
			runRankedRequest(cfg, idx, src, cli, st, "plan", cfg.Plans, &st.plan, cfg.PlanVerifier, cfg.EarlyExitEvery)
			continue
		}
		if cfg.TrackEvery > 0 && st.requests%cfg.TrackEvery == 0 {
			runRankedRequest(cfg, idx, src, cli, st, "track", cfg.Tracks, &st.track, cfg.TrackVerifier, 0)
			continue
		}
		req := &api.QueryRequest{Expr: cfg.Classes[zipf.Sample(src)]}
		if cfg.SingleStreamEvery > 0 && st.requests%cfg.SingleStreamEvery == 0 {
			req.Streams = []string{cfg.Streams[src.Intn(len(cfg.Streams))]}
		}
		// Only whole-corpus requests opt into allow_partial: a single-stream
		// query has nothing to degrade to — losing its one stream should
		// stay a loud typed failure, not an empty "success".
		if cfg.AllowPartialEvery > 0 && len(req.Streams) == 0 && st.requests%cfg.AllowPartialEvery == 0 {
			req.AllowPartial = true
		}
		t0 := time.Now()
		qr, err := cli.Query(context.Background(), req)
		// Latency includes the body transfer and decode: what a real client
		// waits for. Measuring at header arrival would let a regression that
		// bloats response bodies slip past the p99 gate.
		latMS := float64(time.Since(t0).Nanoseconds()) / 1e6
		if !st.record(cfg, err) {
			continue
		}
		st.ok++
		st.plainOK++
		st.latenciesMS = append(st.latenciesMS, latMS)
		if qr.Cached {
			st.cacheHits++
		}
		if qr.Partial != nil {
			st.partials++
		}
		if cfg.Verifier != nil && cfg.VerifyEvery > 0 && st.plainOK%cfg.VerifyEvery == 0 {
			st.verified++
			if err := cfg.Verifier(qr); err != nil {
				st.mismatches = append(st.mismatches,
					fmt.Sprintf("client %d expr %q: %v", idx, req.Expr, err))
			}
		}
	}
}

// runRankedRequest issues one rank-ordered request — kind "plan" (a
// compound ranked plan) or "track" (a temporal track query) — drawn
// deterministically from pool, one-shot or cursor-paged, and records it
// under the same status taxonomy as plain queries. fs is the form's
// counter set and verify its served-vs-direct verifier; every
// earlyExitEvery-th request of the form runs in early-exit mode (0 =
// never; temporal queries have no such mode).
func runRankedRequest(cfg *Config, idx int, src *simrand.Source, cli *client.Client, st *clientState,
	kind string, pool []string, fs *formStats, verify func(*api.QueryResponse) error, earlyExitEvery int) {
	expr := pool[src.Intn(len(pool))]
	req := &api.QueryRequest{Expr: expr, TopK: cfg.PlanTopK}
	fs.requests++
	if earlyExitEvery > 0 && fs.requests%earlyExitEvery == 0 {
		req.Mode = api.ModeEarlyExit
		st.earlyExitReqs++
	}
	var resp *api.QueryResponse
	var err error
	if cfg.PageEvery > 0 && fs.requests%cfg.PageEvery == 0 {
		st.pagedReqs++
		resp, err = runPaged(cfg, cli, st, req)
	} else {
		t0 := time.Now()
		resp, err = cli.Query(context.Background(), req)
		if err == nil {
			st.latenciesMS = append(st.latenciesMS, float64(time.Since(t0).Nanoseconds())/1e6)
		}
	}
	if !st.record(cfg, err) {
		return
	}
	st.ok++
	fs.ok++
	if resp.Cached {
		st.cacheHits++
	}
	if verify != nil && cfg.VerifyEvery > 0 && fs.ok%cfg.VerifyEvery == 0 {
		fs.verified++
		if err := verify(resp); err != nil {
			st.mismatches = append(st.mismatches,
				fmt.Sprintf("client %d %s %q: %v", idx, kind, expr, err))
		}
	}
}

// runSubscription opens one standing query drawn deterministically from
// the combined plan and track pools, collects its opening catch-up delta
// plus whatever live deltas arrive within SubscribeFor, verifies the
// reassembled answer at the delivered vector, and closes. The latency
// sample is the open — the time to the server's hello frame, which is
// what a subscribing client actually blocks on; delta arrival cadence is
// ingest-driven, not a service latency.
func runSubscription(cfg *Config, idx int, src *simrand.Source, cli *client.Client, st *clientState) {
	n := src.Intn(len(cfg.Plans) + len(cfg.Tracks))
	var expr string
	if n < len(cfg.Plans) {
		expr = cfg.Plans[n]
	} else {
		expr = cfg.Tracks[n-len(cfg.Plans)]
	}
	t0 := time.Now()
	sub, err := cli.Subscribe(context.Background(), &api.SubscribeRequest{Expr: expr})
	latMS := float64(time.Since(t0).Nanoseconds()) / 1e6
	if !st.record(cfg, err) {
		return
	}
	st.latenciesMS = append(st.latenciesMS, latMS)
	// Close ends the collection window: it is the documented way to abort
	// a blocked Recv from another goroutine.
	var expired atomic.Bool
	timer := time.AfterFunc(cfg.SubscribeFor, func() {
		expired.Store(true)
		sub.Close()
	})
	defer timer.Stop()
	defer sub.Close()
	for {
		_, err := sub.Recv()
		if err == nil {
			st.deltaEvents++
			continue
		}
		if !errors.Is(err, io.EOF) && !expired.Load() {
			// Neither a terminal bye nor our own window close. A typed
			// rejection (a shard draining or dying mid-stream) goes through
			// the run's normal outcome taxonomy; anything untyped is a
			// broken delta protocol — a gap, an inapplicable edit — and
			// must fail the run as a mismatch.
			var typed *api.Error
			if errors.As(err, &typed) {
				st.record(cfg, typed)
			} else {
				st.mismatches = append(st.mismatches,
					fmt.Sprintf("client %d subscription %q: %v", idx, expr, err))
			}
			return
		}
		break
	}
	st.ok++
	st.subs++
	if cfg.DeltaVerifier != nil && cfg.VerifyEvery > 0 && st.subs%cfg.VerifyEvery == 0 {
		st.subVerified++
		if err := cfg.DeltaVerifier(sub.Hello(), sub.Vector(), sub.Items(), sub.Tracks()); err != nil {
			st.mismatches = append(st.mismatches,
				fmt.Sprintf("client %d subscription %q at %v: %v", idx, expr, sub.Vector(), err))
		}
	}
}

// runPaged drives one cursor-paged read, ranked or tracks, page by page
// through client.Pager. Each page fetch is one HTTP request and is
// recorded as its own latency sample — folding a whole page chain into one
// observation would distort the p99 histogram the CI budget gates on. The
// pager reassembles the pages into one response (first page's metadata and
// cost, concatenated items) so the form's ordinary verifier can replay it
// against a direct execution at the pinned vector — which is exactly the
// paged == one-shot == direct invariant, end to end.
func runPaged(cfg *Config, cli *client.Client, st *clientState, req *api.QueryRequest) (*api.QueryResponse, error) {
	pager := cli.Pager(req, cfg.PageSize)
	for pager.More() {
		t0 := time.Now()
		if _, err := pager.Next(context.Background()); err != nil {
			return nil, err
		}
		st.latenciesMS = append(st.latenciesMS, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return pager.Assembled()
}

// record classifies one exchange's error outcome (nil err = proceed with
// the OK accounting) and reports whether the response was successful.
func (st *clientState) record(cfg *Config, err error) bool {
	if err == nil {
		return true
	}
	if apiErr, ok := err.(*api.Error); ok {
		switch {
		case apiErr.Code == api.CodeOverloaded:
			st.rejected++
		case cfg.AcceptDraining && apiErr.Code == api.CodeDraining:
			st.draining++
			drainBackoff()
		case cfg.AcceptOutage && (apiErr.Code == api.CodeShardDown ||
			apiErr.Code == api.CodeUnavailable || apiErr.Code == api.CodeNotReady):
			st.outage++
			drainBackoff()
		default:
			st.unexpected[apiErr.HTTPStatus()]++
		}
		return false
	}
	st.netErrors++
	if len(st.errSamples) < 3 {
		st.errSamples = append(st.errSamples, err.Error())
	}
	return false
}

// drainBackoff pauses a closed-loop client after a draining rejection:
// a real client backs off a shard being restarted rather than hammering
// the immediate rejection path at millions of requests per second.
func drainBackoff() { time.Sleep(50 * time.Millisecond) }

// percentile returns the p-th percentile (0..1) of sorted values using
// nearest-rank, 0 when empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}
