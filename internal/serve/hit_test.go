package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"focus"
	"focus/api"
)

// bootHitService starts a server over one stream ingested to 40 s, with one
// query worker and a one-deep queue.
func bootHitService(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	sys, err := focus.New(focus.Config{Targets: focus.Targets{Recall: 0.7, Precision: 0.7}, TuneOptions: QuickTuneOptions()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := sys.AddTable1Stream("auburn_c"); err != nil {
		t.Fatal(err)
	}
	srv := New(sys, Config{
		Window:             focus.GenOptions{DurationSec: 60, SampleEvery: 1},
		TuneWindow:         focus.GenOptions{DurationSec: 30, SampleEvery: 1},
		NoBackgroundIngest: true,
		QueryWorkers:       1,
		QueueDepth:         1,
	})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	if _, err := sys.Session("auburn_c").AdvanceLive(40); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postV1(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+api.PathQuery, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestCacheHitBypassesAdmission: the result cache is probed before the
// limiter, so with every worker held by a miss and the queue full a request
// whose answer is cached is still served (and counted), while a fresh miss
// is rejected overloaded with a Retry-After.
func TestCacheHitBypassesAdmission(t *testing.T) {
	srv, ts := bootHitService(t)
	const hot = `{"expr":"car & person","top_k":5}`
	if resp, raw := postV1(t, ts.URL, hot); resp.StatusCode != http.StatusOK {
		t.Fatalf("warming the cache: status %d: %s", resp.StatusCode, raw)
	}
	before := srv.Snapshot()

	// Stand in for the blocked misses: hold the only worker slot, and park
	// one more admission in the queue.
	if !srv.limiter.Acquire() {
		t.Fatal("could not take the worker slot")
	}
	queued := make(chan bool)
	go func() { queued <- srv.limiter.Acquire() }()
	for srv.limiter.Waiting() != 1 {
		runtime.Gosched() // until the goroutine is parked in the queue
	}

	resp, raw := postV1(t, ts.URL, hot)
	var hit api.QueryResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &hit) != nil || !hit.Cached {
		t.Errorf("cached request under overload: status %d body %s, want 200 cached=true", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Focus-Cache"); got != "hit" {
		t.Errorf("X-Focus-Cache %q, want hit", got)
	}

	resp, raw = postV1(t, ts.URL, `{"expr":"bus & person","top_k":5}`)
	var env api.Envelope
	if resp.StatusCode != http.StatusTooManyRequests || json.Unmarshal(raw, &env) != nil ||
		env.Err == nil || env.Err.Code != api.CodeOverloaded {
		t.Errorf("fresh miss under overload: status %d body %s, want 429 overloaded", resp.StatusCode, raw)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("overloaded reply carries no Retry-After")
	}

	srv.limiter.Release()
	if !<-queued {
		t.Fatal("the queued admission was rejected")
	}
	srv.limiter.Release()

	after := srv.Snapshot()
	if after.PlanQueries != before.PlanQueries+1 || after.CacheHits != before.CacheHits+1 ||
		after.CacheMisses != before.CacheMisses || after.Rejected != before.Rejected+1 {
		t.Errorf("counters moved %+v -> %+v, want one more plan query, cache hit and rejection, no miss", before, after)
	}
}

// TestCachedBodyIsTheEncodedHit: for all three forms, what a cache hit
// writes — the body kept on the entry — is byte for byte the append
// encoder's rendering of that answer with cached=true, and differs from the
// miss's body in that flag alone.
func TestCachedBodyIsTheEncodedHit(t *testing.T) {
	_, ts := bootHitService(t)
	for _, body := range []string{
		`{"expr":"car"}`,                          // frames
		`{"expr":"car & person","top_k":5}`,       // ranked
		`{"expr":"car & dur(2)","top_k":5}`,       // tracks
		`{"expr":"car","start":5,"end":25}`,       // frames, windowed
		`{"expr":"car | person","form":"ranked"}`, // ranked, unbounded
	} {
		resp, miss := postV1(t, ts.URL, body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Focus-Cache") != "miss" {
			t.Fatalf("%s: first request: status %d cache %q: %s", body, resp.StatusCode, resp.Header.Get("X-Focus-Cache"), miss)
		}
		var answer api.QueryResponse
		if err := json.Unmarshal(miss, &answer); err != nil {
			t.Fatal(err)
		}
		answer.Cached = true
		want := append(api.AppendQueryResponse(nil, &answer), '\n')
		for i := 0; i < 4; i++ { // hit 0 is rendered for itself, hit 1 builds the kept body, later ones reuse it
			resp, hit := postV1(t, ts.URL, body)
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Focus-Cache") != "hit" {
				t.Fatalf("%s: hit %d: status %d cache %q", body, i, resp.StatusCode, resp.Header.Get("X-Focus-Cache"))
			}
			if !bytes.Equal(hit, want) {
				t.Errorf("%s: hit %d body differs from the encoded answer with cached=true:\n got  %s\n want %s", body, i, hit, want)
			}
			if resp.ContentLength != int64(len(want)) {
				t.Errorf("%s: hit %d Content-Length %d, want %d", body, i, resp.ContentLength, len(want))
			}
		}
		if !bytes.Equal(bytes.Replace(want, []byte(`"cached":true`), []byte(`"cached":false`), 1), miss) {
			t.Errorf("%s: miss and hit bodies differ in more than the cached flag", body)
		}
	}
}

// TestCachedBodyKeptFromSecondHit: a miss retains no encoded body, nor
// does a paged hit on the entry, nor its first whole-answer hit (a router's
// two-page read hits a shard's entry exactly once); the second builds it,
// once.
func TestCachedBodyKeptFromSecondHit(t *testing.T) {
	srv, ts := bootHitService(t)
	bodies := func() (n int) {
		for i := range srv.cache.shards {
			sh := &srv.cache.shards[i]
			sh.mu.Lock()
			for el := sh.order.Front(); el != nil; el = el.Next() {
				if el.Value.(*cacheEntry).body.Load() != nil {
					n++
				}
			}
			sh.mu.Unlock()
		}
		return n
	}
	const q = `{"expr":"car | person","form":"ranked"}`
	for _, step := range []struct {
		what, body string
		want       int
	}{
		{"a miss", q, 0},
		{"a paged hit", `{"expr":"car | person","limit":2}`, 0},
		{"the first whole-answer hit", q, 0},
		{"the second whole-answer hit", q, 1},
		{"a third", q, 1},
	} {
		if resp, raw := postV1(t, ts.URL, step.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", step.what, resp.StatusCode, raw)
		}
		if n := bodies(); n != step.want {
			t.Fatalf("%d encoded bodies kept after %s, want %d", n, step.what, step.want)
		}
	}
}

// TestExecKeyRendering pins the strconv rendering of the cache key to the
// fmt rendering it replaced, %g floats included, over one-shot keys and the
// standing-query coalescing key (nil vector: every stream at 0).
func TestExecKeyRendering(t *testing.T) {
	fmtKey := func(form string, id *api.Cursor) string {
		var b strings.Builder
		fmt.Fprintf(&b, "%s|%s|k=%d&kx=%d&s=%g&e=%g&m=%d&mode=%s", form, id.Expr, id.TopK,
			id.Kx, id.Start, id.End, id.MaxClusters, id.Mode)
		for _, n := range id.Streams {
			fmt.Fprintf(&b, "|%s@%g", n, id.At[n])
		}
		return b.String()
	}
	for _, c := range []struct {
		form string
		id   api.Cursor
	}{
		{api.FormFrames, api.Cursor{Expr: "car", Streams: []string{"auburn_c"}, At: api.WatermarkVector{"auburn_c": 30}}},
		{api.FormFrames, api.Cursor{Expr: "car", Streams: []string{"a", "b"}, Kx: 2, Start: 5, End: 25.5, MaxClusters: 7,
			At: api.WatermarkVector{"a": 12.25, "b": 0}}},
		{api.FormRanked, api.Cursor{Expr: "(car&person)", Streams: []string{"auburn_c", "jacksonh"}, TopK: 5, Mode: api.ModeEarlyExit,
			At: api.WatermarkVector{"auburn_c": 1e21, "jacksonh": 1e-7}}},
		{api.FormRanked, api.Cursor{Expr: "((car|truck)&person)", Streams: []string{"s"}, TopK: 1 << 40, Start: 0.1, End: 1e6,
			At: api.WatermarkVector{"s": 123456789.125}}},
		{api.FormTracks, api.Cursor{Expr: "(car&dur(5,0))", Streams: []string{"x"}, Form: api.FormTracks, Start: 1e20, End: 1.7976931348623157e308,
			At: api.WatermarkVector{"x": 4.9e-324}}},
		{api.FormTracks, api.Cursor{Expr: "(car&dur(5,0))", Streams: []string{"x", "y"}, TopK: 10, Start: 2.5e-5, End: 100000}}, // coalescing key
		{api.FormRanked, api.Cursor{Expr: "car", Streams: nil, At: nil}},
	} {
		if got, want := execKey(c.form, &c.id), fmtKey(c.form, &c.id); got != want {
			t.Errorf("execKey = %q, want %q", got, want)
		}
	}
}

// TestOversizedRequestBody: a /v1/query or /v1/subscribe body past
// api.MaxRequestBytes is answered with the typed bad_request envelope; one
// just under it is read whole.
func TestOversizedRequestBody(t *testing.T) {
	_, ts := bootHitService(t)
	padded := func(n int) string { return `{"expr":"car","pad":"` + strings.Repeat("a", n) + `"}` }
	for _, c := range []struct {
		path, body string
		status     int
	}{
		{api.PathQuery, padded(api.MaxRequestBytes), http.StatusBadRequest},
		{api.PathSubscribe, padded(api.MaxRequestBytes), http.StatusBadRequest},
		{api.PathQuery, padded(api.MaxRequestBytes - 64), http.StatusOK},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.status {
			t.Errorf("%s with %d bytes: status %d, want %d", c.path, len(c.body), resp.StatusCode, c.status)
		}
		if c.status != http.StatusBadRequest {
			continue
		}
		var env api.Envelope
		if err := json.Unmarshal(raw, &env); err != nil || env.Err == nil ||
			env.Err.Code != api.CodeBadRequest || !strings.Contains(env.Err.Message, "too large") {
			t.Errorf("%s: body %.200q (%v), want a bad_request envelope naming the size", c.path, raw, err)
		}
	}
}
