package serve_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"focus"
	"focus/api"
	"focus/internal/loadgen"
	"focus/internal/serve"
)

// TestV1TracksForm pins the temporal side of the form decision: an expr
// with a temporal operator answers in the tracks form (and only that
// form), a boolean expr cannot be forced into it, and temporal syntax
// errors surface the parser's offset/context detail through the wire
// error message.
func TestV1TracksForm(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{NoBackgroundIngest: true}, "auburn_c", "jacksonh")
	// Tracks assemble from sealed clusters only, and a cluster seals ~20s
	// (the ingest idle timeout) after its object leaves — advance deep
	// enough into the 60s window that the pinned horizon holds plenty.
	s.advanceAll(t, 45)
	cli := v1Client(s)
	ctx := context.Background()

	resp, err := cli.Query(ctx, &api.QueryRequest{Expr: "car & dur(1)"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Form != api.FormTracks || resp.Tracks == nil || resp.Items != nil || resp.Streams != nil {
		t.Fatalf("temporal expr answered %q form: %+v", resp.Form, resp)
	}
	if len(resp.Tracks) == 0 {
		t.Fatal("temporal query matched nothing; pick a denser window")
	}
	if resp.TotalItems != len(resp.Tracks) {
		t.Fatalf("TotalItems %d, %d tracks", resp.TotalItems, len(resp.Tracks))
	}
	if err := loadgen.NewDirectTrackVerifier(s.sys)(resp); err != nil {
		t.Fatalf("tracks response diverges from direct: %v", err)
	}

	// An explicit tracks form is accepted and hits the response cache.
	again, err := cli.Query(ctx, &api.QueryRequest{Expr: "car & dur(1)", Form: api.FormTracks,
		At: resp.Watermarks})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Cached {
		t.Error("identical pinned track query re-executed instead of hitting the cache")
	}
	if !reflect.DeepEqual(again.Tracks, resp.Tracks) {
		t.Fatal("cached track answer diverges from the original")
	}
	if stats := s.srv.Snapshot(); stats.TrackQueries < 2 {
		t.Errorf("track_queries counter %d, want >= 2", stats.TrackQueries)
	}

	// Form mismatches reject in both directions with bad_request.
	if _, err := cli.Query(ctx, &api.QueryRequest{Expr: "car", Form: api.FormTracks}); !api.IsCode(err, api.CodeBadRequest) {
		t.Errorf("tracks form on boolean expr: %v, want code bad_request", err)
	}
	if _, err := cli.Query(ctx, &api.QueryRequest{Expr: "car & dur(1)", Form: api.FormRanked}); !api.IsCode(err, api.CodeBadRequest) {
		t.Errorf("ranked form on temporal expr: %v, want code bad_request", err)
	}

	// Temporal syntax errors carry the parser's offset and quoted context
	// all the way to the client.
	_, err = cli.Query(ctx, &api.QueryRequest{Expr: "seq(car & dur("})
	if !api.IsCode(err, api.CodeBadExpr) {
		t.Fatalf("temporal syntax error: %v, want code bad_expr", err)
	}
	if msg := err.Error(); !strings.Contains(msg, "at offset") || !strings.Contains(msg, "near") {
		t.Errorf("syntax error lost the parser's offset/context detail: %q", msg)
	}
}

// TestV1TracksCursorPagedEqualsOneShot is the tracks-form twin of
// TestV1CursorPagedEqualsOneShot: cursor pages stay pinned to the first
// page's watermark vector while ingest advances, share one cached
// execution (no new GPU work), and concatenate bit-identically to the
// one-shot answer at that vector.
func TestV1TracksCursorPagedEqualsOneShot(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{NoBackgroundIngest: true}, "auburn_c", "jacksonh")
	s.advanceAll(t, 45)
	cli := v1Client(s)
	ctx := context.Background()

	first, err := cli.Query(ctx, &api.QueryRequest{Expr: "car & dur(1)", Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if first.Form != api.FormTracks {
		t.Fatalf("answered %q form", first.Form)
	}
	if first.TotalItems < 3 {
		t.Fatalf("only %d tracks; pick a denser window", first.TotalItems)
	}
	if first.Cursor == "" {
		t.Fatal("first page carries no continuation cursor")
	}

	// Ingest advances between page fetches; the cursor must keep every
	// later page pinned to the original vector.
	s.advanceAll(t, 60)
	gpuBefore := s.sys.GPUMeter()

	tracks := append([]api.TrackItem(nil), first.Tracks...)
	cursor := first.Cursor
	for cursor != "" {
		page, err := cli.Query(ctx, &api.QueryRequest{Cursor: cursor, Limit: 2})
		if err != nil {
			t.Fatal(err)
		}
		if page.Form != api.FormTracks {
			t.Fatalf("cursor page answered %q form", page.Form)
		}
		if !page.Cached {
			t.Fatal("cursor page re-executed instead of reading the pinned execution")
		}
		if !reflect.DeepEqual(page.Watermarks, first.Watermarks) {
			t.Fatalf("cursor page executed at %v, pinned %v", page.Watermarks, first.Watermarks)
		}
		tracks = append(tracks, page.Tracks...)
		cursor = page.Cursor
	}
	if got := s.sys.GPUMeter(); got.QueryMS != gpuBefore.QueryMS {
		t.Errorf("cursor paging consumed %.1f GPU ms; pages must share the cached execution", got.QueryMS-gpuBefore.QueryMS)
	}

	oneShot, err := cli.Query(ctx, &api.QueryRequest{Expr: "car & dur(1)", At: first.Watermarks})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tracks, oneShot.Tracks) {
		t.Fatalf("cursor pages diverge from one-shot:\npaged: %+v\nfull:  %+v", tracks, oneShot.Tracks)
	}

	// CollectPages (the client-side convenience) reaches the same
	// answer and passes the direct verifier.
	assembled, err := cli.CollectPages(ctx, &api.QueryRequest{Expr: "car & dur(1)", At: first.Watermarks}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(assembled.Tracks, oneShot.Tracks) {
		t.Fatal("CollectPages diverges from one-shot")
	}
	if err := loadgen.NewDirectTrackVerifier(s.sys)(assembled); err != nil {
		t.Fatalf("assembled paged track read diverges from direct: %v", err)
	}
}
