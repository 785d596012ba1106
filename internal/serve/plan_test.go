package serve_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"

	"focus"
	"focus/api"
	"focus/internal/serve"
)

// postPlan POSTs one ranked /v1/query: a fresh request is forced into the
// ranked form (a one-leaf plan would otherwise answer in frames), a cursor
// continuation goes out as is.
func postPlan(t testing.TB, s *testService, req api.QueryRequest) (*api.QueryResponse, *http.Response) {
	t.Helper()
	if req.Cursor == "" {
		req.Form = api.FormRanked
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.http.URL+api.PathQuery, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s %+v: status %d", api.PathQuery, req, resp.StatusCode)
	}
	var pr api.QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	return &pr, resp
}

// TestPlanServedEqualsDirect: the served compound result must be identical
// to a direct library execution pinned to the served watermark vector.
func TestPlanServedEqualsDirect(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{NoBackgroundIngest: true}, "auburn_c", "jacksonh")
	s.advanceAll(t, 40)

	pr, _ := postPlan(t, s, api.QueryRequest{Expr: "car & person & !bus", TopK: 10})
	if pr.Cached {
		t.Fatal("first plan response claims cached")
	}
	if pr.Expr != "(car&person&!bus)" {
		t.Fatalf("canonical expr %q", pr.Expr)
	}
	direct, err := s.sys.PlanQuery("car & person & !bus", focus.PlanOptions{
		TopK:         10,
		AtWatermarks: pr.Watermarks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pr.Items) != len(direct.Items) {
		t.Fatalf("served %d items, direct %d", len(pr.Items), len(direct.Items))
	}
	for i, it := range pr.Items {
		d := direct.Items[i]
		if it.Stream != d.Stream || it.Frame != int64(d.Frame) || it.Score != d.Score ||
			it.Segment != int64(d.Segment) || it.TimeSec != d.TimeSec {
			t.Fatalf("item %d: served %+v, direct %+v", i, it, d)
		}
	}

	// Leaf options (window, Kx) shape execution and are echoed back so a
	// verifier can replay them.
	windowed, _ := postPlan(t, s, api.QueryRequest{Expr: "car & !bus", TopK: 5, Start: 10, End: 30, Kx: 2})
	if windowed.Start != 10 || windowed.End != 30 || windowed.Kx != 2 {
		t.Fatalf("leaf options not echoed: %+v", windowed)
	}
	directWindowed, err := s.sys.PlanQuery("car & !bus", focus.PlanOptions{
		TopK:         5,
		Leaf:         focus.QueryOptions{StartSec: 10, EndSec: 30, Kx: 2},
		AtWatermarks: windowed.Watermarks,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(windowed.Items) != len(directWindowed.Items) {
		t.Fatalf("windowed: served %d items, direct %d", len(windowed.Items), len(directWindowed.Items))
	}
	for i, it := range windowed.Items {
		d := directWindowed.Items[i]
		if it.Stream != d.Stream || it.Frame != int64(d.Frame) || it.Score != d.Score {
			t.Fatalf("windowed item %d: served %+v, direct %+v", i, it, d)
		}
		if it.TimeSec < 10 || it.TimeSec > 30 {
			t.Fatalf("windowed item %d outside [10,30]: %+v", i, it)
		}
	}
}

// TestPlanCacheHit: the same plan at the same vector is served from the
// cache with zero new GT-CNN work; advancing a watermark changes the key.
func TestPlanCacheHit(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{NoBackgroundIngest: true}, "auburn_c")
	s.advanceAll(t, 30)

	first, resp := postPlan(t, s, api.QueryRequest{Expr: "car & !bus"})
	if h := resp.Header.Get("X-Focus-Cache"); h != "miss" {
		t.Fatalf("first response cache header %q", h)
	}
	gpuBefore := s.sys.GPUMeter()
	// Whitespace and request-text differences must still hit: the cache
	// keys on the canonical form.
	second, resp := postPlan(t, s, api.QueryRequest{Expr: "  car   &  !bus "})
	if h := resp.Header.Get("X-Focus-Cache"); h != "hit" {
		t.Fatalf("second response cache header %q", h)
	}
	if !second.Cached {
		t.Error("second response not marked cached")
	}
	if got := s.sys.GPUMeter(); got.QueryMS != gpuBefore.QueryMS {
		t.Errorf("cache hit consumed %.1f GPU ms", got.QueryMS-gpuBefore.QueryMS)
	}
	if len(second.Items) != len(first.Items) {
		t.Fatalf("cached %d items, original %d", len(second.Items), len(first.Items))
	}
	for i := range second.Items {
		if second.Items[i] != first.Items[i] {
			t.Fatalf("cached item %d differs: %+v vs %+v", i, second.Items[i], first.Items[i])
		}
	}

	s.advanceAll(t, 45)
	third, resp := postPlan(t, s, api.QueryRequest{Expr: "car & !bus"})
	if h := resp.Header.Get("X-Focus-Cache"); h != "miss" {
		t.Fatalf("post-advance response cache header %q: watermark advance must change the key", h)
	}
	if third.Cached {
		t.Error("post-advance response marked cached")
	}
}

// TestPlanPaging: limit and the cursor slice the cached execution — pages
// concatenate to the full ranking and share one execution.
func TestPlanPaging(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{NoBackgroundIngest: true}, "auburn_c")
	s.advanceAll(t, 30)

	full, _ := postPlan(t, s, api.QueryRequest{Expr: "car & person", TopK: 9})
	if full.TotalItems != len(full.Items) {
		t.Fatalf("total %d != %d items", full.TotalItems, len(full.Items))
	}
	if full.TotalItems == 0 {
		t.Fatal("plan matched nothing; pick a denser window")
	}
	gpuBefore := s.sys.GPUMeter()
	var paged []api.Item
	page, _ := postPlan(t, s, api.QueryRequest{Expr: "car & person", TopK: 9, Limit: 4})
	for off := 0; ; off += 4 {
		if page.TotalItems != full.TotalItems {
			t.Fatalf("page at offset %d reports %d total, want %d", off, page.TotalItems, full.TotalItems)
		}
		paged = append(paged, page.Items...)
		if page.Cursor == "" {
			break
		}
		page, _ = postPlan(t, s, api.QueryRequest{Cursor: page.Cursor, Limit: 4})
	}
	if got := s.sys.GPUMeter(); got.QueryMS != gpuBefore.QueryMS {
		t.Errorf("HTTP paging consumed %.1f GPU ms; pages must share the cached execution", got.QueryMS-gpuBefore.QueryMS)
	}
	if len(paged) != len(full.Items) {
		t.Fatalf("pages sum to %d items, full %d", len(paged), len(full.Items))
	}
	for i := range paged {
		if paged[i] != full.Items[i] {
			t.Fatalf("paged item %d differs: %+v vs %+v", i, paged[i], full.Items[i])
		}
	}
	// Past-the-end offset is an empty page, not an error.
	cur := api.Cursor{Expr: full.Expr, Streams: []string{"auburn_c"}, TopK: 9,
		At: full.Watermarks, Offset: full.TotalItems + 5}
	empty, _ := postPlan(t, s, api.QueryRequest{Cursor: cur.Encode()})
	if len(empty.Items) != 0 || empty.Cursor != "" {
		t.Fatalf("past-the-end page returned %d items, cursor %q", len(empty.Items), empty.Cursor)
	}
}

// TestPlanPagingPinnedAcrossIngest: the cursor freezes the first page's
// watermark vector, keeping pages coherent while background ingest
// advances between page requests — every page reads the same pinned
// execution instead of re-snapshotting a moving horizon.
func TestPlanPagingPinnedAcrossIngest(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{NoBackgroundIngest: true}, "auburn_c")
	s.advanceAll(t, 30)

	const expr = "car & person"
	page1, _ := postPlan(t, s, api.QueryRequest{Expr: expr, TopK: 8, Limit: 4})
	if page1.TotalItems == 0 {
		t.Fatal("plan matched nothing; pick a denser window")
	}

	// Ingest advances between the client's page requests.
	s.advanceAll(t, 45)

	pinned, resp := postPlan(t, s, api.QueryRequest{Cursor: page1.Cursor, Limit: 4})
	if h := resp.Header.Get("X-Focus-Cache"); h != "hit" {
		t.Errorf("pinned page after ingest advance: cache header %q, want hit (same execution)", h)
	}
	if pinned.TotalItems != page1.TotalItems {
		t.Fatalf("pinned page reports %d total, page 1 saw %d", pinned.TotalItems, page1.TotalItems)
	}
	for name, wm := range page1.Watermarks {
		if pinned.Watermarks[name] != wm {
			t.Fatalf("pinned page executed at %s@%g, want %g", name, pinned.Watermarks[name], wm)
		}
	}
	// The two pages concatenate to the pinned one-shot ranking.
	oneShot, _ := postPlan(t, s, api.QueryRequest{Expr: expr, TopK: 8, At: page1.Watermarks})
	both := append(append([]api.Item{}, page1.Items...), pinned.Items...)
	if len(both) != len(oneShot.Items) {
		t.Fatalf("pages sum to %d items, pinned one-shot %d", len(both), len(oneShot.Items))
	}
	for i := range both {
		if both[i] != oneShot.Items[i] {
			t.Fatalf("pinned paging item %d differs: %+v vs %+v", i, both[i], oneShot.Items[i])
		}
	}
	// An unpinned request after the advance snapshots the new horizon.
	fresh, _ := postPlan(t, s, api.QueryRequest{Expr: expr, TopK: 8})
	for name, wm := range fresh.Watermarks {
		if wm <= page1.Watermarks[name] {
			t.Fatalf("unpinned request still at %s@%g", name, wm)
		}
	}
}

// TestPlanBadRequests: malformed plans are 4xx before consuming a slot.
func TestPlanBadRequests(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{NoBackgroundIngest: true}, "auburn_c")

	post := func(body string) int {
		resp, err := http.Post(s.http.URL+api.PathQuery, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		body string
		want int
	}{
		{`{}`, http.StatusBadRequest},                                   // missing expr
		{`{"expr": "car &"}`, http.StatusBadRequest},                    // syntax error
		{`{"expr": "!bus"}`, http.StatusBadRequest},                     // unanchored
		{`{"expr": "car & warp_drive"}`, http.StatusBadRequest},         // unknown class
		{`{"expr": "car", "streams": ["nope"]}`, http.StatusBadRequest}, // unknown stream
		{`{"expr": "car", "top_k": -1}`, http.StatusBadRequest},         // negative parameter
		{`not json`, http.StatusBadRequest},                             // body not JSON
	}
	for _, tc := range cases {
		if got := post(tc.body); got != tc.want {
			t.Errorf("POST %s %s: status %d, want %d", api.PathQuery, tc.body, got, tc.want)
		}
	}
	resp, err := http.Get(s.http.URL + api.PathQuery)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET %s: status %d, want 405", api.PathQuery, resp.StatusCode)
	}
}
