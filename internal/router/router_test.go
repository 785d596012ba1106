package router_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"focus"
	"focus/api"
	"focus/client"
	"focus/internal/loadgen"
	"focus/internal/router"
	"focus/internal/serve"
)

// testShard is one in-process shard: its own focus.System and serve.Server
// behind a real loopback listener — the process topology the router fronts
// in production, minus the process boundary.
type testShard struct {
	name string
	sys  *focus.System
	srv  *serve.Server
	http *httptest.Server
	// brk fronts the shard's handler; the crash-matrix tests sever it to
	// model the shard process dying. Passes through when healthy.
	brk *breaker
}

// testCluster boots shards (one per entry of placement, each owning that
// entry's streams), a router over them, and — when withRef — a reference
// focus.System holding every stream, tuned identically and ingested to the
// full window, the oracle the bit-identity assertions replay against.
type testCluster struct {
	t       *testing.T
	shards  []*testShard
	rt      *router.Router
	http    *httptest.Server
	cli     *client.Client
	ref     *focus.System
	streams []string
}

func focusConfig() focus.Config {
	return focus.Config{
		Seed:        1,
		Targets:     focus.Targets{Recall: 0.7, Precision: 0.7},
		TuneOptions: serve.QuickTuneOptions(),
	}
}

func bootTestCluster(t *testing.T, placement [][]string, scfg serve.Config, withRef bool) *testCluster {
	t.Helper()
	if scfg.Window.DurationSec <= 0 {
		scfg.Window = focus.GenOptions{DurationSec: 60, SampleEvery: 1}
	}
	if scfg.TuneWindow.DurationSec <= 0 {
		scfg.TuneWindow = focus.GenOptions{DurationSec: 30, SampleEvery: 1}
	}
	c := &testCluster{t: t}
	smap := &router.ShardMap{Pins: map[string]string{}}
	for i, streams := range placement {
		sys, err := focus.New(focusConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { sys.Close() })
		for _, st := range streams {
			if _, err := sys.AddTable1Stream(st); err != nil {
				t.Fatal(err)
			}
			c.streams = append(c.streams, st)
		}
		srv := serve.New(sys, scfg)
		brk := &breaker{h: srv.Handler()}
		ts := httptest.NewServer(brk)
		t.Cleanup(ts.Close)
		sh := &testShard{name: fmt.Sprintf("shard-%d", i), sys: sys, srv: srv, http: ts, brk: brk}
		c.shards = append(c.shards, sh)
		smap.Shards = append(smap.Shards, router.ShardSpec{Name: sh.name, URL: ts.URL})
		for _, st := range streams {
			smap.Pins[st] = sh.name
		}
	}

	// Boot shards (and the reference, when asked) concurrently: every
	// system tunes per stream, which dominates the fixture cost.
	var wg sync.WaitGroup
	errs := make([]error, len(c.shards)+1)
	for i, sh := range c.shards {
		wg.Add(1)
		go func(i int, sh *testShard) {
			defer wg.Done()
			if err := sh.srv.Start(); err != nil {
				errs[i] = err
				return
			}
			c.t.Cleanup(sh.srv.Stop)
		}(i, sh)
	}
	if withRef {
		ref, err := focus.New(focusConfig())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ref.Close() })
		for _, st := range c.streams {
			if _, err := ref.AddTable1Stream(st); err != nil {
				t.Fatal(err)
			}
		}
		c.ref = ref
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, sess := range ref.Sessions() {
				if err := sess.Tune(scfg.TuneWindow); err != nil {
					errs[len(errs)-1] = err
					return
				}
			}
			errs[len(errs)-1] = ref.IngestAll(scfg.Window)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	rt, err := router.New(router.Config{Map: smap, Refresh: 100 * time.Millisecond, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	c.rt = rt
	c.http = httptest.NewServer(rt.Handler())
	t.Cleanup(c.http.Close)
	// Zero retries: tests must see raw overload/draining outcomes.
	c.cli = client.New(c.http.URL, client.WithRetries(0, 0))
	return c
}

// queryV1 issues one typed v1 request through the router.
func (c *testCluster) queryV1(req *api.QueryRequest) (*api.QueryResponse, error) {
	return c.cli.Query(context.Background(), req)
}

// advance moves one shard stream's watermark (NoBackgroundIngest fixtures).
func (c *testCluster) advance(stream string, toSec float64) {
	c.t.Helper()
	for _, sh := range c.shards {
		if sess := sh.sys.Session(stream); sess != nil {
			if _, err := sess.AdvanceLive(toSec); err != nil {
				c.t.Fatal(err)
			}
			return
		}
	}
	c.t.Fatalf("stream %q not on any shard", stream)
}

// getQuery POSTs one single-class /v1/query written as query parameters
// ("class=car&streams=a,b"), decoding the payload when 2xx; the raw
// response is returned for status assertions.
func (c *testCluster) getQuery(params string) (*api.QueryResponse, *http.Response) {
	c.t.Helper()
	q, err := url.ParseQuery(params)
	if err != nil {
		c.t.Fatal(err)
	}
	req := map[string]any{"expr": q.Get("class")}
	if v := q.Get("streams"); v != "" {
		req["streams"] = strings.Split(v, ",")
	}
	return c.post(req)
}

// postPlan POSTs one ranked /v1/query from a raw JSON object: a fresh
// request is forced into the ranked form, a cursor continuation goes out
// as is.
func (c *testCluster) postPlan(req map[string]any) (*api.QueryResponse, *http.Response) {
	c.t.Helper()
	if _, paged := req["cursor"]; !paged {
		req["form"] = api.FormRanked
	}
	return c.post(req)
}

func (c *testCluster) post(req map[string]any) (*api.QueryResponse, *http.Response) {
	c.t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(c.http.URL+api.PathQuery, "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr api.QueryResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			c.t.Fatal(err)
		}
	}
	return &qr, resp
}

// waitShardState polls the router's view until the named shard reaches the
// wanted state.
func (c *testCluster) waitShardState(shard, state string) {
	c.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, ss := range c.rt.Snapshot().Shards {
			if ss.Name == shard && ss.State == state {
				return
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	c.t.Fatalf("shard %s never reached state %s: %+v", shard, state, c.rt.Snapshot().Shards)
}

// TestRoutedAnswersMatchDirect is the acceptance pin for the scatter-gather
// contract: with uneven shard sizes and uneven per-stream watermarks, every
// routed frames-form and ranked answer must be bit-identical to a direct
// execution on one focus.System holding all streams, pinned to the merged
// watermark vector the response reports.
func TestRoutedAnswersMatchDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 2-shard cluster plus a reference system")
	}
	c := bootTestCluster(t,
		[][]string{{"auburn_c", "jacksonh"}, {"city_a_d"}},
		serve.Config{NoBackgroundIngest: true},
		true)
	// Uneven vector: nothing aligns across shards or streams.
	c.advance("auburn_c", 20)
	c.advance("jacksonh", 35)
	c.advance("city_a_d", 50)

	verify := loadgen.NewDirectVerifier(c.ref)
	for _, req := range []*api.QueryRequest{
		{Expr: "car"},
		{Expr: "person"},
		{Expr: "bus"},
		{Expr: "car", Streams: []string{"auburn_c", "city_a_d"}}, // spans both shards
		{Expr: "car", Streams: []string{"jacksonh"}},             // single shard
		{Expr: "person", Kx: 2},
		{Expr: "car", Start: 5, End: 30},
		// pinned below the snapshot
		{Expr: "car", At: api.WatermarkVector{"auburn_c": 10, "jacksonh": 35, "city_a_d": 25}},
	} {
		qr, err := c.queryV1(req)
		if err != nil {
			t.Fatalf("v1 query %+v: %v", req, err)
		}
		if qr.Form != api.FormFrames {
			t.Fatalf("v1 query %+v answered in %q form", req, qr.Form)
		}
		if err := verify(qr); err != nil {
			t.Errorf("routed v1 query %+v diverges from direct execution: %v", req, err)
		}
	}

	verifyPlan := loadgen.NewDirectPlanVerifier(c.ref)
	for _, req := range []*api.QueryRequest{
		{Expr: "car & person"},
		{Expr: "car & person & !bus", TopK: 7},
		{Expr: "(car | truck) & person", TopK: 5, Kx: 2},
		// One-leaf plan forced into the ranked form.
		{Expr: "car", Streams: []string{"auburn_c", "city_a_d"}, Form: api.FormRanked},
	} {
		pr, err := c.queryV1(req)
		if err != nil {
			t.Fatalf("v1 ranked query %+v: %v", req, err)
		}
		if pr.Form != api.FormRanked {
			t.Fatalf("v1 ranked query %+v answered in %q form", req, pr.Form)
		}
		if err := verifyPlan(pr); err != nil {
			t.Errorf("routed v1 plan %+v diverges from direct execution: %v", req, err)
		}
	}

	// Cursor paging through the router: pages at the pinned vector must
	// concatenate to exactly the one-shot ranking at that vector — and the
	// assembled read must verify against the reference system.
	oneShot, err := c.queryV1(&api.QueryRequest{Expr: "car & person", TopK: 9})
	if err != nil {
		t.Fatal(err)
	}
	assembled, err := c.cli.CollectPages(context.Background(),
		&api.QueryRequest{Expr: "car & person", TopK: 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(assembled.Watermarks, oneShot.Watermarks) {
		t.Fatalf("paged read pinned %v, one-shot %v", assembled.Watermarks, oneShot.Watermarks)
	}
	if !reflect.DeepEqual(assembled.Items, oneShot.Items) {
		t.Fatalf("cursor pages diverge from one-shot:\npaged: %+v\nfull:  %+v", assembled.Items, oneShot.Items)
	}
	if err := verifyPlan(assembled); err != nil {
		t.Errorf("assembled cursor read diverges from direct execution: %v", err)
	}

	// Raw limit/cursor paging (no client-side pager) must slice the same
	// merged ranking.
	full, resp := c.postPlan(map[string]any{"expr": "car & person", "top_k": 9})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unpaged plan: status %d", resp.StatusCode)
	}
	var paged []api.Item
	next := map[string]any{"expr": "car & person", "top_k": 9, "limit": 2, "at": full.Watermarks}
	for offset := 0; ; offset += 2 {
		page, resp := c.postPlan(next)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("page at offset %d: status %d", offset, resp.StatusCode)
		}
		paged = append(paged, page.Items...)
		if page.Cursor == "" {
			break
		}
		next = map[string]any{"cursor": page.Cursor, "limit": 2}
	}
	if !reflect.DeepEqual(paged, full.Items) {
		t.Fatalf("paged items diverge from one-shot:\npaged: %+v\nfull:  %+v", paged, full.Items)
	}
}

// TestRoutedPinnedVectorStableUnderLiveIngest hammers one pinned-vector
// query from many goroutines while every shard's background ingester races
// ahead: all responses must agree on every answer field, and match the
// direct execution. (Cost counters legitimately vary — concurrent cache
// misses execute with warmer GT verdict caches.) Run under -race this also
// covers the router's poller/handler concurrency against live shards.
func TestRoutedPinnedVectorStableUnderLiveIngest(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a live-ingesting 2-shard cluster plus a reference system")
	}
	c := bootTestCluster(t,
		[][]string{{"auburn_c"}, {"jacksonh", "city_a_d"}},
		serve.Config{
			Window:         focus.GenOptions{DurationSec: 90, SampleEvery: 1},
			ChunkSec:       2,
			IngestInterval: 20 * time.Millisecond,
		},
		true)

	// Wait until every stream has sealed past the pin while ingest keeps
	// racing toward the 90s window.
	pin := 10.0
	deadline := time.Now().Add(30 * time.Second)
	for {
		minWM := -1.0
		for _, sh := range c.shards {
			for _, sess := range sh.sys.Sessions() {
				if wm := sess.Watermark(); minWM < 0 || wm < minWM {
					minWM = wm
				}
			}
		}
		if minWM >= pin {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("watermarks never reached %g", pin)
		}
		time.Sleep(20 * time.Millisecond)
	}

	pinReq := &api.QueryRequest{Expr: "car",
		At: api.WatermarkVector{"auburn_c": 10, "jacksonh": 10, "city_a_d": 10}}
	verify := loadgen.NewDirectVerifier(c.ref)
	answers := make([]*api.QueryResponse, 24)
	var wg sync.WaitGroup
	errCh := make(chan error, len(answers))
	for i := range answers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			qr, err := c.queryV1(pinReq)
			if err != nil {
				errCh <- err
				return
			}
			answers[i] = qr
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	first := answerFields(answers[0])
	for i, qr := range answers {
		if got := answerFields(qr); !reflect.DeepEqual(got, first) {
			t.Fatalf("pinned-vector answer %d diverged:\n%+v\nvs\n%+v", i, got, first)
		}
	}
	if err := verify(answers[0]); err != nil {
		t.Fatalf("pinned routed answer diverges from direct execution: %v", err)
	}
}

// answerFields projects a response onto its answer (not cost) fields.
func answerFields(qr *api.QueryResponse) map[string]any {
	out := map[string]any{"total": qr.TotalFrames}
	for name, sr := range qr.Streams {
		out[name] = []any{sr.Watermark, sr.Frames, sr.Segments,
			sr.ExaminedClusters, sr.MatchedClusters, sr.ViaOther}
	}
	return out
}

// TestRouterPartialFailure pins the all-or-nothing semantics: a query
// touching a draining or down shard fails with an explicit, attributed
// 503 — never a silently partial answer — while queries confined to
// healthy shards keep working.
func TestRouterPartialFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 2-shard cluster")
	}
	c := bootTestCluster(t,
		[][]string{{"auburn_c"}, {"jacksonh"}},
		serve.Config{
			Window:             focus.GenOptions{DurationSec: 40, SampleEvery: 1},
			TuneWindow:         focus.GenOptions{DurationSec: 20, SampleEvery: 1},
			NoBackgroundIngest: true,
		},
		false)
	c.advance("auburn_c", 20)
	c.advance("jacksonh", 20)

	if _, resp := c.getQuery("class=car"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy cluster query: status %d", resp.StatusCode)
	}

	// Drain shard-1 through its admin endpoint, as an operator would.
	dresp, err := http.Post(c.shards[1].http.URL+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	c.waitShardState("shard-1", router.StateDraining)

	_, resp := c.getQuery("class=car") // touches both shards
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query touching a draining shard: status %d, want 503", resp.StatusCode)
	}
	// The failure is a structured error code naming the shard — no header
	// sniffing.
	if _, err := c.queryV1(&api.QueryRequest{Expr: "car"}); !api.IsCode(err, api.CodeDraining) {
		t.Fatalf("v1 query touching a draining shard: %v, want code draining", err)
	} else if err.(*api.Error).Shard != "shard-1" {
		t.Fatalf("v1 draining error names shard %q, want shard-1", err.(*api.Error).Shard)
	}
	if _, resp := c.getQuery("class=car&streams=auburn_c"); resp.StatusCode != http.StatusOK {
		t.Fatalf("query on the healthy shard during drain: status %d", resp.StatusCode)
	}
	healthyOnly, err := c.queryV1(&api.QueryRequest{Expr: "car", Streams: []string{"auburn_c"}})
	if err != nil {
		t.Fatalf("v1 query on the healthy shard during drain: %v", err)
	}
	if healthyOnly.Partial != nil {
		t.Fatal("complete answer carries a partial marker")
	}

	// allow_partial opts into the degraded answer: the healthy shard's
	// merged result, explicitly marked with what is missing — and
	// bit-identical to the same query asked of the healthy subset alone.
	partial, err := c.queryV1(&api.QueryRequest{Expr: "car", AllowPartial: true})
	if err != nil {
		t.Fatalf("allow_partial query during drain: %v", err)
	}
	if partial.Partial == nil {
		t.Fatal("allow_partial answer with a drained shard carries no partial marker")
	}
	if !reflect.DeepEqual(partial.Partial.MissingShards, []string{"shard-1"}) ||
		!reflect.DeepEqual(partial.Partial.MissingStreams, []string{"jacksonh"}) {
		t.Fatalf("partial marker = %+v, want shard-1/jacksonh", partial.Partial)
	}
	if _, ok := partial.Watermarks["jacksonh"]; ok {
		t.Fatal("partial answer's watermark vector covers a missing stream")
	}
	if !reflect.DeepEqual(partial.Streams, healthyOnly.Streams) ||
		partial.TotalFrames != healthyOnly.TotalFrames {
		t.Fatalf("partial answer diverges from the healthy-subset execution:\npartial: %+v\nsubset:  %+v",
			partial.Streams, healthyOnly.Streams)
	}
	if _, presp := c.postPlan(map[string]any{"expr": "car & person"}); presp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("plan touching a draining shard: status %d, want 503", presp.StatusCode)
	}

	// Degraded but alive: the router keeps serving what it can.
	hresp, err := http.Get(c.http.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string            `json:"status"`
		Shards map[string]string `json:"shards"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || health.Status != "degraded" {
		t.Fatalf("healthz during drain: status %d body %+v, want 200/degraded", hresp.StatusCode, health)
	}

	// Kill shard-0 outright: ownership is sticky, so its streams fail with
	// "down", not "unknown stream".
	c.shards[0].http.Close()
	c.waitShardState("shard-0", router.StateDown)
	_, resp = c.getQuery("class=car&streams=auburn_c")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query on a down shard: status %d, want 503", resp.StatusCode)
	}
	if _, err := c.queryV1(&api.QueryRequest{Expr: "car", Streams: []string{"auburn_c"}}); !api.IsCode(err, api.CodeShardDown) {
		t.Fatalf("v1 query on a down shard: %v, want code shard_down", err)
	}

	// No healthy shard left at all.
	hresp, err = http.Get(c.http.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with no healthy shards: status %d, want 503", hresp.StatusCode)
	}

	if _, resp := c.getQuery("class=car&streams=nosuch"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown stream: status %d, want 400", resp.StatusCode)
	}
}

// TestRouterStartRequiresShards pins the boot contract: discovery must
// reach every shard.
func TestRouterStartRequiresShards(t *testing.T) {
	rt, err := router.New(router.Config{
		Map: &router.ShardMap{Shards: []router.ShardSpec{
			{Name: "shard-0", URL: "http://127.0.0.1:1"}, // nothing listens here
		}},
		Refresh: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Start(); err == nil {
		rt.Stop()
		t.Fatal("Start succeeded with an unreachable shard")
	}
}

// TestRouterPreV1PathsAreGone: the unversioned query endpoints and ops
// aliases were removed outright; nothing may answer there.
func TestRouterPreV1PathsAreGone(t *testing.T) {
	rt, err := router.New(router.Config{Map: &router.ShardMap{Shards: []router.ShardSpec{
		{Name: "shard-0", URL: "http://127.0.0.1:1"},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	for _, r := range []struct{ method, path string }{
		{http.MethodGet, "/query?class=car"},
		{http.MethodPost, "/plan"},
		{http.MethodGet, "/streams"},
		{http.MethodGet, "/stats"},
	} {
		req, err := http.NewRequest(r.method, ts.URL+r.path, strings.NewReader(`{"expr":"car"}`))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("%s %s: status %d, want 404", r.method, r.path, resp.StatusCode)
		}
	}
}
