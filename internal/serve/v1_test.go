package serve_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"focus"
	"focus/api"
	"focus/client"
	"focus/internal/loadgen"
	"focus/internal/serve"
)

func v1Client(s *testService) *client.Client {
	return client.New(s.http.URL, client.WithRetries(0, 0))
}

// TestV1Forms pins the form decision: a bare one-leaf expr answers in the
// frames form through the single-class engine; TopK, Limit, a compound
// expr, or an explicit form override answer ranked.
func TestV1Forms(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{NoBackgroundIngest: true}, "auburn_c", "jacksonh")
	s.advanceAll(t, 30)
	cli := v1Client(s)
	ctx := context.Background()

	frames, err := cli.Query(ctx, &api.QueryRequest{Expr: "car"})
	if err != nil {
		t.Fatal(err)
	}
	if frames.Form != api.FormFrames || frames.Streams == nil || frames.Items != nil {
		t.Fatalf("bare one-leaf answered %q form: %+v", frames.Form, frames)
	}
	if frames.Expr != "car" {
		t.Fatalf("canonical echo %q", frames.Expr)
	}
	if err := loadgen.NewDirectVerifier(s.sys)(frames); err != nil {
		t.Fatalf("frames response diverges from direct: %v", err)
	}

	for name, req := range map[string]*api.QueryRequest{
		"compound":  {Expr: "car & person"},
		"topk":      {Expr: "car", TopK: 5},
		"limit":     {Expr: "car", Limit: 5},
		"form-flag": {Expr: "car", Form: api.FormRanked},
	} {
		resp, err := cli.Query(ctx, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if resp.Form != api.FormRanked {
			t.Fatalf("%s answered %q form", name, resp.Form)
		}
	}

	// The ranked one-leaf form agrees with the frames form on the match
	// set: every ranked item's frame appears in the frames answer.
	ranked, err := cli.Query(ctx, &api.QueryRequest{Expr: "car", Form: api.FormRanked,
		At: frames.Watermarks})
	if err != nil {
		t.Fatal(err)
	}
	if ranked.TotalItems != frames.TotalFrames {
		t.Fatalf("ranked one-leaf has %d items, frames form %d frames", ranked.TotalItems, frames.TotalFrames)
	}
	if err := loadgen.NewDirectPlanVerifier(s.sys)(ranked); err != nil {
		t.Fatalf("ranked response diverges from direct: %v", err)
	}
}

// TestV1CursorPagedEqualsOneShot is the serve-side paged-equals-one-shot
// pin over the opaque cursor: pages are watermark-stable by construction
// (the token freezes the vector), share one cached execution, and
// concatenate bit-identically to the one-shot answer — even when ingest
// advances between pages.
func TestV1CursorPagedEqualsOneShot(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{NoBackgroundIngest: true}, "auburn_c", "jacksonh")
	s.advanceAll(t, 30)
	cli := v1Client(s)
	ctx := context.Background()

	req := &api.QueryRequest{Expr: "car & person", TopK: 9}
	first, err := cli.Query(ctx, &api.QueryRequest{Expr: req.Expr, TopK: req.TopK, Limit: 3})
	if err != nil {
		t.Fatal(err)
	}
	if first.TotalItems == 0 {
		t.Fatal("plan matched nothing; pick a denser window")
	}
	if first.Cursor == "" {
		t.Fatal("first page carries no continuation cursor")
	}

	// Ingest advances between the client's page fetches; the cursor must
	// keep every later page pinned to the original vector.
	s.advanceAll(t, 45)
	gpuBefore := s.sys.GPUMeter()

	items := append([]api.Item(nil), first.Items...)
	cursor := first.Cursor
	for cursor != "" {
		page, err := cli.Query(ctx, &api.QueryRequest{Cursor: cursor, Limit: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !page.Cached {
			t.Fatal("cursor page re-executed instead of reading the pinned execution")
		}
		if !reflect.DeepEqual(page.Watermarks, first.Watermarks) {
			t.Fatalf("cursor page executed at %v, pinned %v", page.Watermarks, first.Watermarks)
		}
		items = append(items, page.Items...)
		cursor = page.Cursor
	}
	if got := s.sys.GPUMeter(); got.QueryMS != gpuBefore.QueryMS {
		t.Errorf("cursor paging consumed %.1f GPU ms; pages must share the cached execution", got.QueryMS-gpuBefore.QueryMS)
	}

	oneShot, err := cli.Query(ctx, &api.QueryRequest{Expr: req.Expr, TopK: req.TopK, At: first.Watermarks})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(items, oneShot.Items) {
		t.Fatalf("cursor pages diverge from one-shot:\npaged: %+v\nfull:  %+v", items, oneShot.Items)
	}

	// CollectPages (the client-side convenience) reaches the same answer
	// and passes the direct verifier.
	assembled, err := cli.CollectPages(ctx, &api.QueryRequest{Expr: req.Expr, TopK: req.TopK, At: first.Watermarks}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(assembled.Items, oneShot.Items) {
		t.Fatal("CollectPages diverges from one-shot")
	}
	if err := loadgen.NewDirectPlanVerifier(s.sys)(assembled); err != nil {
		t.Fatalf("assembled paged read diverges from direct: %v", err)
	}
}

// TestV1ErrorCodes pins the machine-readable error taxonomy.
func TestV1ErrorCodes(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{NoBackgroundIngest: true}, "auburn_c")
	s.advanceAll(t, 20)
	cli := v1Client(s)
	ctx := context.Background()

	cases := []struct {
		name string
		req  *api.QueryRequest
		want api.Code
	}{
		{"missing expr", &api.QueryRequest{}, api.CodeBadRequest},
		{"negative", &api.QueryRequest{Expr: "car", TopK: -1}, api.CodeBadRequest},
		{"syntax", &api.QueryRequest{Expr: "car &"}, api.CodeBadExpr},
		{"unknown class", &api.QueryRequest{Expr: "warp_drive"}, api.CodeBadExpr},
		{"unanchored", &api.QueryRequest{Expr: "!bus"}, api.CodeBadExpr},
		{"unknown stream", &api.QueryRequest{Expr: "car", Streams: []string{"nope"}}, api.CodeUnknownStream},
		{"pin ahead", &api.QueryRequest{Expr: "car", At: api.WatermarkVector{"auburn_c": 999}}, api.CodePinAhead},
		{"pin outside", &api.QueryRequest{Expr: "car", Streams: []string{"auburn_c"}, At: api.WatermarkVector{"jacksonh": 5}}, api.CodeBadRequest},
		{"bad cursor", &api.QueryRequest{Cursor: "v1.garbage"}, api.CodeBadCursor},
		{"cursor plus fields", &api.QueryRequest{Cursor: "v1.x", Expr: "car"}, api.CodeBadCursor},
		{"bad form", &api.QueryRequest{Expr: "car", Form: "frames"}, api.CodeBadRequest},
	}
	for _, tc := range cases {
		_, err := cli.Query(ctx, tc.req)
		if !api.IsCode(err, tc.want) {
			t.Errorf("%s: got %v, want code %s", tc.name, err, tc.want)
		}
	}

	// Draining: structured code on v1, no header semantics needed.
	resp, err := http.Post(s.http.URL+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := cli.Query(ctx, &api.QueryRequest{Expr: "car"}); !api.IsCode(err, api.CodeDraining) {
		t.Fatalf("draining query: %v, want code draining", err)
	}
}

// ---- v1 golden wire format ----

// updateGolden rewrites the goldens under testdata/v1 instead of comparing
// against them:
//
//	go test ./internal/serve -run 'TestV1WireGolden|TestCursorTokenGolden' -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite wire golden files")

// v1CaptureSequence pins the v1 JSON encodings — request handling, both
// response forms, the error envelope, and the cursor token — byte for
// byte. These are the contract of record for /v1: regenerate deliberately
// with -update-golden when the contract version changes.
var v1CaptureSequence = []struct {
	name string
	body string
}{
	{"frames", `{"expr":"car"}`},
	{"frames_windowed", `{"expr":"car","streams":["auburn_c"],"kx":2,"start":5,"end":25,"max_clusters":40}`},
	{"ranked", `{"expr":"car & person","top_k":5}`},
	{"ranked_paged", `{"expr":"car & person","top_k":5,"limit":2,"at":{"auburn_c":30,"jacksonh":30}}`},
	{"error_bad_expr", `{"expr":"!bus"}`},
	{"error_unknown_stream", `{"expr":"car","streams":["nope"]}`},
	{"error_pin_ahead", `{"expr":"car","at":{"auburn_c":999,"jacksonh":30}}`},
	{"error_bad_cursor", `{"cursor":"v1.garbage"}`},
}

func TestV1WireGolden(t *testing.T) {
	s := bootTestService(t, focus.Config{Seed: 1}, serve.Config{NoBackgroundIngest: true}, "auburn_c", "jacksonh")
	s.advanceAll(t, 30)
	for _, tc := range v1CaptureSequence {
		resp, err := http.Post(s.http.URL+api.PathQuery, "application/json", bytes.NewReader([]byte(tc.body)))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		fmt.Fprintf(&b, "HTTP %d\n\n", resp.StatusCode)
		b.Write(body)
		checkV1Golden(t, tc.name, b.Bytes())
	}
	// The ownership surface the router polls, after the traffic above.
	resp, err := http.Get(s.http.URL + api.PathStreams)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	checkV1Golden(t, "streams", append([]byte(fmt.Sprintf("HTTP %d\n\n", resp.StatusCode)), body...))
}

func checkV1Golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "v1", name+".golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update-golden to capture): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: v1 wire bytes changed\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestCursorTokenGolden pins the cursor token encoding: a fixed cursor
// state must always yield the same opaque string (resumability across
// server restarts and mixed fleets depends on it).
func TestCursorTokenGolden(t *testing.T) {
	tok := (&api.Cursor{
		Expr:    "(car&person)",
		Streams: []string{"auburn_c", "jacksonh"},
		TopK:    5,
		At:      api.WatermarkVector{"auburn_c": 30, "jacksonh": 30},
		Offset:  2,
	}).Encode()
	checkV1Golden(t, "cursor_token", []byte(tok))
}
