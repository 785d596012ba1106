package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"focus"
	"focus/api"
	"focus/internal/loadgen"
	"focus/internal/serve"
)

// testService is an in-process focus-serve with manually advanced ingest, so
// cache hit/miss sequences are deterministic.
type testService struct {
	sys  *focus.System
	srv  *serve.Server
	http *httptest.Server
}

func bootTestService(t testing.TB, fcfg focus.Config, scfg serve.Config, streams ...string) *testService {
	t.Helper()
	if fcfg.Targets == (focus.Targets{}) {
		fcfg.Targets = focus.Targets{Recall: 0.7, Precision: 0.7}
	}
	if fcfg.TuneOptions == nil {
		fcfg.TuneOptions = serve.QuickTuneOptions()
	}
	sys, err := focus.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	for _, name := range streams {
		if _, err := sys.AddTable1Stream(name); err != nil {
			t.Fatal(err)
		}
	}
	if scfg.Window.DurationSec <= 0 {
		scfg.Window = focus.GenOptions{DurationSec: 60, SampleEvery: 1}
	}
	if scfg.TuneWindow.DurationSec <= 0 {
		scfg.TuneWindow = focus.GenOptions{DurationSec: 30, SampleEvery: 1}
	}
	srv := serve.New(sys, scfg)
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testService{sys: sys, srv: srv, http: ts}
}

// advanceAll moves every stream's watermark to toSec.
func (s *testService) advanceAll(t testing.TB, toSec float64) {
	t.Helper()
	for _, sess := range s.sys.Sessions() {
		if _, err := sess.AdvanceLive(toSec); err != nil {
			t.Fatal(err)
		}
	}
}

// postQuery POSTs one /v1/query written in the query-parameter spelling
// these tests use for single-class requests ("class=car&streams=a,b&
// at=a@20,b@20&kx=2"): class becomes expr, streams a list, at a watermark
// vector, everything else a numeric option. A value that is not a number
// passes through as a string, so a malformed parameter stays a malformed
// request.
func postQuery(t testing.TB, baseURL, params string) *http.Response {
	t.Helper()
	q, err := url.ParseQuery(params)
	if err != nil {
		t.Fatal(err)
	}
	number := func(v string) any {
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			return f
		}
		return v
	}
	body := map[string]any{}
	for key := range q {
		switch v := q.Get(key); key {
		case "class":
			body["expr"] = v
		case "streams":
			body["streams"] = strings.Split(v, ",")
		case "at":
			at := map[string]any{}
			for _, pair := range strings.Split(v, ",") {
				name, sec, _ := strings.Cut(pair, "@")
				at[name] = number(sec)
			}
			body["at"] = at
		default:
			body[key] = number(v)
		}
	}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(baseURL+api.PathQuery, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func (s *testService) getQuery(t testing.TB, params string) (*api.QueryResponse, *http.Response) {
	t.Helper()
	resp := postQuery(t, s.http.URL, params)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s %s: status %d", api.PathQuery, params, resp.StatusCode)
	}
	var qr api.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return &qr, resp
}

// TestResultCacheHitAndInvalidation is the satellite contract: a repeat
// query at an unchanged watermark is served from cache with zero additional
// GT-CNN GPU time; advancing the watermark invalidates (the key changes),
// forcing a re-execution whose answer matches a direct library query.
func TestResultCacheHitAndInvalidation(t *testing.T) {
	svc := bootTestService(t, focus.Config{},
		serve.Config{NoBackgroundIngest: true}, "auburn_c", "jacksonh")
	verify := loadgen.NewDirectVerifier(svc.sys)

	svc.advanceAll(t, 20)
	miss1, resp := svc.getQuery(t, "class=car")
	if miss1.Cached || resp.Header.Get("X-Focus-Cache") != "miss" {
		t.Fatalf("first query should miss, got cached=%v header=%q", miss1.Cached, resp.Header.Get("X-Focus-Cache"))
	}
	for name, sr := range miss1.Streams {
		if sr.Watermark != 20 {
			t.Errorf("stream %s served watermark %v, want 20", name, sr.Watermark)
		}
	}

	gpuBefore := svc.sys.GPUMeter()
	hit, resp := svc.getQuery(t, "class=car")
	if !hit.Cached || resp.Header.Get("X-Focus-Cache") != "hit" {
		t.Fatalf("repeat query should hit, got cached=%v header=%q", hit.Cached, resp.Header.Get("X-Focus-Cache"))
	}
	if gpuAfter := svc.sys.GPUMeter(); gpuAfter.QueryMS != gpuBefore.QueryMS {
		t.Errorf("cache hit consumed GT-CNN time: %v -> %v GPU-ms", gpuBefore.QueryMS, gpuAfter.QueryMS)
	}
	if hit.TotalFrames != miss1.TotalFrames {
		t.Errorf("hit served %d frames, miss served %d", hit.TotalFrames, miss1.TotalFrames)
	}

	// Advancing the watermark must invalidate: same request misses, answers
	// for the new horizon, and matches a direct query bit for bit.
	svc.advanceAll(t, 40)
	miss2, _ := svc.getQuery(t, "class=car")
	if miss2.Cached {
		t.Fatal("query after watermark advance should miss the cache")
	}
	for name, sr := range miss2.Streams {
		if sr.Watermark != 40 {
			t.Errorf("stream %s served watermark %v, want 40", name, sr.Watermark)
		}
	}
	if miss2.TotalFrames < miss1.TotalFrames {
		t.Errorf("larger horizon lost frames: %d at 20s, %d at 40s", miss1.TotalFrames, miss2.TotalFrames)
	}
	if err := verify(miss2); err != nil {
		t.Errorf("re-verified result diverges from direct query: %v", err)
	}
	if hit2, _ := svc.getQuery(t, "class=car"); !hit2.Cached {
		t.Error("repeat query at the new watermark should hit")
	}

	stats := svc.srv.Snapshot()
	if stats.CacheHits != 2 || stats.CacheMisses != 2 {
		t.Errorf("stats: %d hits / %d misses, want 2/2", stats.CacheHits, stats.CacheMisses)
	}
}

// TestAdmissionControlRejectsOverload saturates a one-worker, zero-queue
// server with slow (GPU-paced) cold queries: the overflow must come back as
// 429s, never as hangs or 5xx.
func TestAdmissionControlRejectsOverload(t *testing.T) {
	svc := bootTestService(t,
		focus.Config{GPUPace: 2 * time.Millisecond},
		serve.Config{NoBackgroundIngest: true, QueryWorkers: 1, QueueDepth: 0},
		"auburn_c")
	svc.advanceAll(t, 60)

	classes := []string{"car", "person", "truck", "bus", "van", "dog", "bicycle", "motorcycle"}
	codes := make([]int, len(classes))
	var wg sync.WaitGroup
	for i, class := range classes {
		wg.Add(1)
		go func(i int, class string) {
			defer wg.Done()
			resp, err := http.Post(svc.http.URL+api.PathQuery, "application/json",
				strings.NewReader(`{"expr":"`+class+`"}`))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
		}(i, class)
	}
	wg.Wait()

	ok, rejected := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			rejected++
		default:
			t.Errorf("class %s: unexpected status %d", classes[i], code)
		}
	}
	if ok == 0 {
		t.Error("no query succeeded under overload")
	}
	if rejected == 0 {
		t.Error("no query was rejected: admission control did not engage")
	}
	if stats := svc.srv.Snapshot(); stats.Rejected != int64(rejected) {
		t.Errorf("stats counted %d rejections, clients saw %d", stats.Rejected, rejected)
	}
}

// TestEndpointsAndValidation covers /healthz, /v1/streams, /v1/stats and
// the single-class query error taxonomy.
func TestEndpointsAndValidation(t *testing.T) {
	svc := bootTestService(t, focus.Config{},
		serve.Config{NoBackgroundIngest: true}, "auburn_c", "msnbc")
	svc.advanceAll(t, 10)

	resp, err := http.Get(svc.http.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz: %d", resp.StatusCode)
	}

	resp, err = http.Get(svc.http.URL + api.PathStreams)
	if err != nil {
		t.Fatal(err)
	}
	var streams []serve.StreamStatus
	if err := json.NewDecoder(resp.Body).Decode(&streams); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(streams) != 2 {
		t.Fatalf("%s returned %d entries, want 2", api.PathStreams, len(streams))
	}
	for _, st := range streams {
		if st.Watermark != 10 {
			t.Errorf("stream %s watermark %v, want 10", st.Name, st.Watermark)
		}
		if st.Model == "" {
			t.Errorf("stream %s missing chosen model", st.Name)
		}
	}

	resp, err = http.Get(svc.http.URL + api.PathStats)
	if err != nil {
		t.Fatal(err)
	}
	var stats serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !stats.Ready || len(stats.Watermarks) != 2 {
		t.Errorf("%s: ready=%v watermarks=%v", api.PathStats, stats.Ready, stats.Watermarks)
	}

	for _, bad := range []string{
		"",                       // missing class
		"class=no_such_class",    // unknown class
		"class=car&streams=nope", // unknown stream
		"class=car&kx=-3",        // bad kx
		"class=car&start=x",      // bad float
	} {
		resp := postQuery(t, svc.http.URL, bad)
		var e api.Envelope
		_ = json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Err == nil {
			t.Errorf("query %q: status %d (%+v), want a 400 envelope", bad, resp.StatusCode, e.Err)
		}
	}

	// /drain is POST-only, and says so in the v1 envelope.
	resp, err = http.Get(svc.http.URL + "/drain")
	if err != nil {
		t.Fatal(err)
	}
	var e api.Envelope
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || e.Err == nil || e.Err.Code != api.CodeBadRequest {
		t.Errorf("GET /drain: status %d (%+v), want 405 with a bad_request envelope", resp.StatusCode, e.Err)
	}
	if svc.srv.Draining() {
		t.Error("a rejected GET /drain drained the server")
	}
}

// TestPreV1PathsAreGone: the unversioned query endpoints and ops aliases
// were removed outright; nothing may answer there.
func TestPreV1PathsAreGone(t *testing.T) {
	svc := bootTestService(t, focus.Config{},
		serve.Config{NoBackgroundIngest: true}, "auburn_c")
	for _, r := range []struct{ method, path string }{
		{http.MethodGet, "/query?class=car"},
		{http.MethodPost, "/plan"},
		{http.MethodGet, "/streams"},
		{http.MethodGet, "/stats"},
	} {
		req, err := http.NewRequest(r.method, svc.http.URL+r.path, strings.NewReader(`{"expr":"car"}`))
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

// TestServeUnderConcurrentLoadWithBackgroundIngest is the in-repo miniature
// of the CI smoke gate: background ingesters advancing watermarks while
// loadgen clients hammer /v1/query, every response verified against a direct
// library query at its watermark vector. Run under -race this is the
// concurrent Query/Ingest satellite test.
func TestServeUnderConcurrentLoadWithBackgroundIngest(t *testing.T) {
	fcfg := focus.Config{Targets: focus.Targets{Recall: 0.7, Precision: 0.7}, TuneOptions: serve.QuickTuneOptions()}
	sys, err := focus.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	for _, name := range []string{"auburn_c", "jacksonh"} {
		if _, err := sys.AddTable1Stream(name); err != nil {
			t.Fatal(err)
		}
	}
	srv := serve.New(sys, serve.Config{
		Window:         focus.GenOptions{DurationSec: 60, SampleEvery: 1},
		TuneWindow:     focus.GenOptions{DurationSec: 30, SampleEvery: 1},
		ChunkSec:       4,
		IngestInterval: 50 * time.Millisecond,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := loadgen.Run(loadgen.Config{
		BaseURL:     ts.URL,
		Clients:     8,
		Duration:    3 * time.Second,
		Classes:     []string{"car", "person", "truck", "bus"},
		VerifyEvery: 5,
		Verifier:    loadgen.NewDirectVerifier(sys),
	})
	if err != nil {
		t.Fatal(err)
	}
	if failures := rep.Failures(); len(failures) > 0 {
		t.Fatalf("load run failed: %v", failures)
	}
	if rep.OK == 0 || rep.Verified == 0 {
		t.Fatalf("no verified traffic: %+v", rep)
	}
	if rep.CacheHits == 0 {
		t.Error("popular repeat queries never hit the cache")
	}
	t.Logf("served %d requests (%.0f rps), %d cache hits, %d verified, p99 %.1fms",
		rep.Requests, rep.ThroughputRPS, rep.CacheHits, rep.Verified, rep.P99MS)
}
