package client

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"focus/api"
)

// rankedStub serves a fixed 12-item ranking with real server-side cursor
// paging, so the pager/collector logic is exercised against the same
// slicing rules the serve layer implements.
func rankedStub(t *testing.T, items int) *httptest.Server {
	t.Helper()
	all := make([]api.Item, items)
	for i := range all {
		all[i] = api.Item{Stream: "s", Frame: int64(i), Score: float64(items - i)}
	}
	vector := api.WatermarkVector{"s": 30}
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathQuery, func(w http.ResponseWriter, r *http.Request) {
		var req api.QueryRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			t.Errorf("stub decode: %v", err)
		}
		offset := 0
		if req.Cursor != "" {
			cur, err := api.DecodeCursor(req.Cursor)
			if err != nil {
				w.WriteHeader(http.StatusBadRequest)
				_ = json.NewEncoder(w).Encode(api.Envelope{Err: api.Errorf(api.CodeBadCursor, "%v", err)})
				return
			}
			offset = cur.Offset
		}
		page := all[min(offset, len(all)):]
		cursor := ""
		if req.Limit > 0 && req.Limit < len(page) {
			page = page[:req.Limit]
			cursor = (&api.Cursor{Expr: "car", Streams: []string{"s"}, At: vector, Offset: offset + len(page)}).Encode()
		}
		_ = json.NewEncoder(w).Encode(&api.QueryResponse{
			Expr: "car", Form: api.FormRanked, Watermarks: vector,
			Items: page, TotalItems: len(all), Cursor: cursor,
		})
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

func TestCollectPagesReassemblesRanking(t *testing.T) {
	ts := rankedStub(t, 12)
	c := New(ts.URL)
	full, err := c.CollectPages(context.Background(), &api.QueryRequest{Expr: "car"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Items) != 12 || full.TotalItems != 12 {
		t.Fatalf("assembled %d items (total %d), want 12", len(full.Items), full.TotalItems)
	}
	for i, it := range full.Items {
		if it.Frame != int64(i) {
			t.Fatalf("item %d out of order: %+v", i, it)
		}
	}
	if full.Cursor != "" {
		t.Fatal("assembled response still carries a continuation cursor")
	}

	// The pager surfaces the same pages one at a time.
	pager := c.Pager(&api.QueryRequest{Expr: "car"}, 5)
	var sizes []int
	for pager.More() {
		page, err := pager.Next(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if page.TotalItems != 12 {
			t.Fatalf("page response: %+v", page)
		}
		sizes = append(sizes, len(page.Items))
	}
	if !reflect.DeepEqual(sizes, []int{5, 5, 2}) {
		t.Fatalf("page sizes %v, want [5 5 2]", sizes)
	}
}

// TestRetryOnOverloaded: overloaded responses are retried with backoff;
// other errors are final; draining is retried only with the opt-in.
func TestRetryOnOverloaded(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathQuery, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(api.Envelope{Err: api.Errorf(api.CodeOverloaded, "queue full")})
			return
		}
		_ = json.NewEncoder(w).Encode(&api.QueryResponse{Expr: "car", Form: api.FormRanked})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c := New(ts.URL, WithRetries(5, time.Millisecond))
	if _, err := c.Query(context.Background(), &api.QueryRequest{Expr: "car"}); err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3 (2 rejections + success)", calls.Load())
	}

	calls.Store(0)
	noRetry := New(ts.URL, WithRetries(0, 0))
	_, err := noRetry.Query(context.Background(), &api.QueryRequest{Expr: "car"})
	if !api.IsCode(err, api.CodeOverloaded) {
		t.Fatalf("zero-retry client: %v, want overloaded", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("zero-retry client issued %d calls", calls.Load())
	}
}

func TestDrainingToleranceOptIn(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathQuery, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(api.Envelope{Err: api.Errorf(api.CodeDraining, "draining")})
			return
		}
		_ = json.NewEncoder(w).Encode(&api.QueryResponse{Expr: "car", Form: api.FormRanked})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// Without tolerance: draining is final.
	c := New(ts.URL, WithRetries(3, time.Millisecond))
	if _, err := c.Query(context.Background(), &api.QueryRequest{Expr: "car"}); !api.IsCode(err, api.CodeDraining) {
		t.Fatalf("intolerant client: %v, want draining", err)
	}
	// With tolerance: ride through.
	calls.Store(0)
	tolerant := New(ts.URL, WithRetries(3, time.Millisecond), WithDrainingTolerance())
	if _, err := tolerant.Query(context.Background(), &api.QueryRequest{Expr: "car"}); err != nil {
		t.Fatalf("tolerant client failed: %v", err)
	}
}

func TestErrorDecoding(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathQuery, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusBadRequest)
		_ = json.NewEncoder(w).Encode(api.Envelope{Err: api.Errorf(api.CodeBadExpr, "plan: unexpected '&'")})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	c := New(ts.URL)
	_, err := c.Query(context.Background(), &api.QueryRequest{Expr: "car &"})
	if !api.IsCode(err, api.CodeBadExpr) {
		t.Fatalf("got %v, want bad_expr", err)
	}
}

// TestRetryHonorsRetryAfter verifies the server's Retry-After header
// overrides the computed backoff: a large base backoff would stall the test,
// but the header says come back immediately.
func TestRetryHonorsRetryAfter(t *testing.T) {
	var calls atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathQuery, func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) < 3 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(api.Envelope{Err: api.Errorf(api.CodeOverloaded, "queue full")})
			return
		}
		_ = json.NewEncoder(w).Encode(&api.QueryResponse{Expr: "car", Form: api.FormRanked})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	// A minute of base backoff: only the Retry-After override lets this
	// finish within the test deadline.
	c := New(ts.URL, WithRetries(5, time.Minute))
	start := time.Now()
	if _, err := c.Query(context.Background(), &api.QueryRequest{Expr: "car"}); err != nil {
		t.Fatalf("retrying client failed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("Retry-After ignored: waited %v", elapsed)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d calls, want 3", calls.Load())
	}
}

// TestRetryDelayJitterAndCap pins the computed backoff envelope: attempt n
// waits within [d/2, d] for d = base<<n capped at maxBackoff, and a
// Retry-After HTTP-date in the past means retry now.
func TestRetryDelayJitterAndCap(t *testing.T) {
	c := New("http://unused", WithRetries(3, 100*time.Millisecond))
	for attempt := 0; attempt < 12; attempt++ {
		d := 100 * time.Millisecond << uint(attempt)
		if d > maxBackoff || d <= 0 {
			d = maxBackoff
		}
		for i := 0; i < 20; i++ {
			got := c.retryDelay(attempt, "")
			if got < d/2 || got > d {
				t.Fatalf("attempt %d: delay %v outside [%v, %v]", attempt, got, d/2, d)
			}
		}
	}
	if got := c.retryDelay(0, "2.5"); got != 2500*time.Millisecond {
		t.Fatalf("fractional Retry-After: %v", got)
	}
	if got := c.retryDelay(0, "Mon, 02 Jan 2006 15:04:05 GMT"); got != 0 {
		t.Fatalf("past HTTP-date Retry-After: %v, want 0", got)
	}
	zero := New("http://unused", WithRetries(3, 0))
	if got := zero.retryDelay(5, ""); got != 0 {
		t.Fatalf("zero-backoff client delay: %v, want 0", got)
	}
}

// TestQueryReadsSizedAndUnsizedBodies: Query decodes an answer whether the
// server declared its length (the buffer is taken at that size) or streamed
// it chunked, and a length-declared read leaves the connection reusable.
func TestQueryReadsSizedAndUnsizedBodies(t *testing.T) {
	want := &api.QueryResponse{Expr: "car", Form: api.FormFrames, Watermarks: api.WatermarkVector{"s": 30},
		Streams: map[string]*api.StreamResult{"s": {Watermark: 30, Frames: make([]int64, 5000), Segments: []int64{}}}, TotalFrames: 5000}
	for i := range want.Streams["s"].Frames {
		want.Streams["s"].Frames[i] = int64(i) * 3
	}
	var conns atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc(api.PathQuery, func(w http.ResponseWriter, r *http.Request) {
		var req api.QueryRequest
		_ = json.NewDecoder(r.Body).Decode(&req)
		if req.Expr == "chunked" {
			w.WriteHeader(http.StatusOK)
			w.(http.Flusher).Flush() // headers leave without a Content-Length
			_, _ = w.Write(append(api.AppendQueryResponse(nil, want), '\n'))
			return
		}
		api.WriteQueryResponse(w, want)
	})
	ts := httptest.NewUnstartedServer(mux)
	ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			conns.Add(1)
		}
	}
	ts.Start()
	defer ts.Close()
	c := New(ts.URL, WithHTTPClient(ts.Client()))
	for i, expr := range []string{"car", "car", "chunked", "car"} {
		got, err := c.Query(context.Background(), &api.QueryRequest{Expr: expr})
		if err != nil {
			t.Fatalf("query %d (%s): %v", i, expr, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("query %d (%s): decoded answer differs", i, expr)
		}
	}
	if n := conns.Load(); n != 1 {
		t.Errorf("four sequential queries used %d connections, want 1 (every body read to its end)", n)
	}
}

// TestQueryRejectsMalformedAnswer: a 200 body the codec rejects is an
// error naming the decode, never a half-filled response.
func TestQueryRejectsMalformedAnswer(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(`{"expr":"car","total_items":1e2}`))
	}))
	defer ts.Close()
	resp, err := New(ts.URL).Query(context.Background(), &api.QueryRequest{Expr: "car"})
	if err == nil || resp != nil || !strings.Contains(err.Error(), "decoding") {
		t.Fatalf("Query = %+v, %v; want a decoding error", resp, err)
	}
}
