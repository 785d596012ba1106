package api

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"
)

// TestFormatWatermarkVector pins the textual vector form: stream@seconds
// pairs, sorted by stream name.
func TestFormatWatermarkVector(t *testing.T) {
	v := WatermarkVector{"b": 40, "a": 35.5, "c": -1}
	if got := FormatWatermarkVector(v); got != "a@35.5,b@40,c@-1" {
		t.Fatalf("formatted %q", got)
	}
	if got := FormatWatermarkVector(nil); got != "" {
		t.Fatalf("empty vector formatted %q", got)
	}
}

func TestNormalizeStreams(t *testing.T) {
	got := NormalizeStreams([]string{" b", "a", "b", "", "  ", "a "})
	if !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("normalized %v", got)
	}
	if NormalizeStreams(nil) != nil {
		t.Fatal("nil input should stay nil")
	}
}

// TestCursorRoundTrip: tokens are deterministic, opaque-but-decodable, and
// preserve every frozen field.
func TestCursorRoundTrip(t *testing.T) {
	c := &Cursor{
		Expr:    "(car&person&!bus)",
		Streams: []string{"auburn_c", "jacksonh"},
		TopK:    25,
		Kx:      2,
		Start:   5,
		End:     120,
		At:      WatermarkVector{"auburn_c": 35, "jacksonh": 40.5},
		Offset:  10,
	}
	tok := c.Encode()
	if tok2 := c.Encode(); tok2 != tok {
		t.Fatalf("cursor encoding is not deterministic: %q vs %q", tok, tok2)
	}
	back, err := DecodeCursor(tok)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, c) {
		t.Fatalf("round trip lost data:\n%+v\nvs\n%+v", back, c)
	}
}

func TestCursorRejectsGarbage(t *testing.T) {
	good := (&Cursor{Expr: "car", Streams: []string{"a"}, At: WatermarkVector{"a": 1}}).Encode()
	// Forged tokens carrying options no server would mint must be rejected
	// at decode — the execution layers trust decoded cursors and skip
	// re-validation.
	forgedKx := (&Cursor{Expr: "car", Streams: []string{"a"}, Kx: -1, At: WatermarkVector{"a": 1}}).Encode()
	forgedOffset := (&Cursor{Expr: "car", Streams: []string{"a"}, Offset: -2, At: WatermarkVector{"a": 1}}).Encode()
	for _, bad := range []string{
		"",
		"nonsense",
		"v2." + good[3:],        // wrong version prefix
		"v1.!!!not-base64!!!",   // not base64
		"v1.e30",                // decodes to {} — empty expr
		good + "corrupt-suffix", // trailing garbage breaks base64
		forgedKx,
		forgedOffset,
	} {
		if _, err := DecodeCursor(bad); err == nil {
			t.Errorf("DecodeCursor(%q) accepted", bad)
		}
	}
	if _, err := DecodeCursor(good); err != nil {
		t.Fatalf("control token rejected: %v", err)
	}
}

// checkPage pins the page slice for one item type; five is a list of five
// distinct items.
func checkPage[T comparable](t *testing.T, five []T, page func([]T, int, int) []T) {
	t.Helper()
	if got := page(five, 2, 1); len(got) != 2 || got[0] != five[1] {
		t.Fatalf("page(2,1) = %+v", got)
	}
	if got := page(five, 0, 3); len(got) != 2 {
		t.Fatalf("page(0,3) = %+v", got)
	}
	if got := page(five, 2, 99); got == nil || len(got) != 0 {
		t.Fatalf("past-the-end page must be empty and non-nil, got %#v", got)
	}
}

// TestContinuationAndPaging pins the shared paging helpers both layers
// slice and mint with.
func TestContinuationAndPaging(t *testing.T) {
	checkPage(t, []Item{{Frame: 0}, {Frame: 1}, {Frame: 2}, {Frame: 3}, {Frame: 4}}, PageItems)
	checkPage(t, []TrackItem{{Track: 0}, {Track: 1}, {Track: 2}, {Track: 3}, {Track: 4}}, PageTracks)
	base := Cursor{Expr: "car", Streams: []string{"a"}, At: WatermarkVector{"a": 1}}
	if tok := ContinuationToken(base, 0, 0, 5, 5); tok != "" {
		t.Fatal("unpaged read minted a cursor")
	}
	if tok := ContinuationToken(base, 2, 3, 2, 5); tok != "" {
		t.Fatal("exhausted read minted a cursor")
	}
	tok := ContinuationToken(base, 2, 0, 2, 5)
	cur, err := DecodeCursor(tok)
	if err != nil || cur.Offset != 2 || cur.Expr != "car" {
		t.Fatalf("continuation decoded to %+v (%v)", cur, err)
	}

	// PageOf is the two together, for either form: the page of a full
	// answer plus the cursor continuing it, the full answer untouched.
	full := &QueryResponse{Form: FormTracks, TotalItems: 3,
		Tracks: []TrackItem{{Track: 0}, {Track: 1}, {Track: 2}}}
	base.Form, base.Offset = FormTracks, 1
	page := PageOf(full, base, 1)
	if len(page.Tracks) != 1 || page.Tracks[0].Track != 1 || len(full.Tracks) != 3 || full.Cursor != "" {
		t.Fatalf("PageOf page %+v, full %+v", page, full)
	}
	if cur, err := DecodeCursor(page.Cursor); err != nil || cur.Offset != 2 || cur.Form != FormTracks {
		t.Fatalf("PageOf continuation decoded to %+v (%v)", cur, err)
	}
	if last := PageOf(full, Cursor{Offset: 2}, 1); last.Cursor != "" {
		t.Fatal("final page minted a cursor")
	}
}

// TestErrorEnvelope pins code→status mapping and envelope decoding, the
// two halves every client and the router rely on.
func TestErrorEnvelope(t *testing.T) {
	statuses := map[Code]int{
		CodeBadRequest:    400,
		CodeBadExpr:       400,
		CodeBadCursor:     400,
		CodeUnknownStream: 400,
		CodePinAhead:      400,
		CodeOverloaded:    429,
		CodeDraining:      503,
		CodeShardDown:     503,
		CodeNotReady:      503,
		CodeUnavailable:   503,
		CodeInternal:      500,
	}
	for code, want := range statuses {
		if got := (&Error{Code: code}).HTTPStatus(); got != want {
			t.Errorf("%s → %d, want %d", code, got, want)
		}
	}

	// A structured envelope round-trips code, message and shard.
	e := DecodeError(503, []byte(`{"error":{"code":"draining","message":"shard x is draining","shard":"x"}}`))
	if e.Code != CodeDraining || e.Shard != "x" {
		t.Fatalf("decoded %+v", e)
	}
	if !IsCode(e, CodeDraining) || IsCode(e, CodeOverloaded) {
		t.Fatal("IsCode misclassifies")
	}

	// Non-envelope bodies degrade to a status-inferred code with the raw
	// body as message (a proxy 502, a bare string error).
	e = DecodeError(http.StatusTooManyRequests, []byte(`{"error":"overloaded: queue full"}`))
	if e.Code != CodeOverloaded {
		t.Fatalf("string-bodied 429 decoded as %+v", e)
	}
	e = DecodeError(http.StatusBadGateway, []byte("<html>bad gateway</html>"))
	if e.Code != CodeInternal || e.Message == "" {
		t.Fatalf("opaque 502 decoded as %+v", e)
	}
}

// TestResolveRequest pins the one request-shape rule both tiers resolve
// through: which form a request answers in, what the resolved identity
// carries, and the code each violation is rejected with.
func TestResolveRequest(t *testing.T) {
	shapes := map[string]ExprShape{
		"car":          {SingleLeaf: true},
		"car & person": {},
		"car & dur(5)": {Temporal: true},
	}
	parse := func(expr string) (ExprShape, error) {
		shape, ok := shapes[expr]
		if !ok {
			return ExprShape{}, fmt.Errorf("no such expr %q", expr)
		}
		return shape, nil
	}
	token := (&Cursor{Expr: "(car&dur(5,0))", Streams: []string{"a"}, At: WatermarkVector{"a": 5},
		Offset: 4, Form: FormTracks}).Encode()

	forms := []struct {
		name string
		req  QueryRequest
		want string
	}{
		{"bare one-leaf", QueryRequest{Expr: "car"}, FormFrames},
		{"one-leaf top_k", QueryRequest{Expr: "car", TopK: 3}, FormRanked},
		{"one-leaf limit", QueryRequest{Expr: "car", Limit: 3}, FormRanked},
		{"one-leaf forced", QueryRequest{Expr: "car", Form: FormRanked}, FormRanked},
		{"compound", QueryRequest{Expr: "car & person"}, FormRanked},
		{"temporal", QueryRequest{Expr: "car & dur(5)", Form: FormTracks}, FormTracks},
		{"cursor", QueryRequest{Cursor: token, Limit: 2}, FormTracks},
	}
	for _, tc := range forms {
		ex, aerr := ResolveRequest(&tc.req, parse)
		if aerr != nil {
			t.Fatalf("%s: %v", tc.name, aerr)
		}
		if got := ex.ResponseForm(); got != tc.want {
			t.Errorf("%s: form %q, want %q", tc.name, got, tc.want)
		}
	}

	ex, aerr := ResolveRequest(&QueryRequest{Expr: "car & person", Streams: []string{"b", " a", "b"},
		TopK: 5, Kx: 2, Limit: 3, Mode: ModeEarlyExit, At: WatermarkVector{"a": 7}}, parse)
	if aerr != nil {
		t.Fatal(aerr)
	}
	want := Exec{Limit: 3, Cursor: Cursor{Expr: "car & person", Streams: []string{"a", "b"},
		TopK: 5, Kx: 2, Mode: ModeEarlyExit, At: WatermarkVector{"a": 7}}}
	if !reflect.DeepEqual(*ex, want) {
		t.Fatalf("resolved %+v, want %+v", *ex, want)
	}
	if ex, _ := ResolveRequest(&QueryRequest{Cursor: token, Limit: 2}, parse); ex.Offset != 4 ||
		ex.Limit != 2 || ex.Expr != "(car&dur(5,0))" || ex.At["a"] != 5 {
		t.Fatalf("cursor resolved to %+v", ex)
	}

	rejects := []struct {
		name string
		req  QueryRequest
		want Code
	}{
		{"missing expr", QueryRequest{}, CodeBadRequest},
		{"negative limit", QueryRequest{Expr: "car", Limit: -1}, CodeBadRequest},
		{"negative option", QueryRequest{Expr: "car", Kx: -1}, CodeBadRequest},
		{"unparsable", QueryRequest{Expr: "car &"}, CodeBadExpr},
		{"unknown mode", QueryRequest{Expr: "car", Mode: "fast"}, CodeBadRequest},
		{"early exit without top_k", QueryRequest{Expr: "car & person", Mode: ModeEarlyExit}, CodeBadRequest},
		{"early exit on temporal", QueryRequest{Expr: "car & dur(5)", TopK: 3, Mode: ModeEarlyExit}, CodeBadRequest},
		{"ranked forced on temporal", QueryRequest{Expr: "car & dur(5)", Form: FormRanked}, CodeBadRequest},
		{"tracks forced on boolean", QueryRequest{Expr: "car", Form: FormTracks}, CodeBadRequest},
		{"frames forced", QueryRequest{Expr: "car", Form: FormFrames}, CodeBadRequest},
		{"bad cursor", QueryRequest{Cursor: "v1.garbage"}, CodeBadCursor},
		{"cursor plus fields", QueryRequest{Cursor: token, Expr: "car"}, CodeBadCursor},
	}
	for _, tc := range rejects {
		if _, aerr := ResolveRequest(&tc.req, parse); aerr == nil || aerr.Code != tc.want {
			t.Errorf("%s: got %v, want code %s", tc.name, aerr, tc.want)
		}
	}
}
