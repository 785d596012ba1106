package router_test

import (
	"context"
	"reflect"
	"testing"

	"focus/api"
	"focus/internal/loadgen"
	"focus/internal/serve"
)

// TestRoutedTracksMatchDirect extends the scatter-gather acceptance pin to
// the tracks form: every routed temporal query must be bit-identical to a
// direct focus.System.TrackQuery on one system holding all streams, pinned
// to the merged watermark vector the response reports — track assembly is
// per-stream, so sharding must never change an answer.
func TestRoutedTracksMatchDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a 2-shard cluster plus a reference system")
	}
	c := bootTestCluster(t,
		[][]string{{"auburn_c", "jacksonh"}, {"city_a_d"}},
		serve.Config{NoBackgroundIngest: true},
		true)
	// Uneven vector, but deep everywhere: a cluster seals ~20s (the ingest
	// idle timeout) after its object leaves, and tracks assemble from
	// sealed clusters only — shallow watermarks would pin empty answers.
	c.advance("auburn_c", 35)
	c.advance("jacksonh", 45)
	c.advance("city_a_d", 50)

	verify := loadgen.NewDirectTrackVerifier(c.ref)
	total := 0
	for _, req := range []*api.QueryRequest{
		{Expr: "car & dur(1)"},
		{Expr: "car & dur(1)", TopK: 5},
		{Expr: "(car | bus) & dur(2)", TopK: 7},
		{Expr: "person & vel(0)"},
		{Expr: "car & dur(1)", Streams: []string{"jacksonh"}}, // single shard
		// pinned below the snapshot, still past the seal lag
		{Expr: "car & dur(1)", At: api.WatermarkVector{"auburn_c": 30, "jacksonh": 45, "city_a_d": 40}},
	} {
		tr, err := c.queryV1(req)
		if err != nil {
			t.Fatalf("v1 track query %+v: %v", req, err)
		}
		if tr.Form != api.FormTracks {
			t.Fatalf("v1 track query %+v answered in %q form", req, tr.Form)
		}
		if err := verify(tr); err != nil {
			t.Errorf("routed track query %+v diverges from direct execution: %v", req, err)
		}
		total += tr.TotalItems
	}
	if total == 0 {
		t.Fatal("no track query matched anything; pick denser windows")
	}

	// Form mismatches reject at the router exactly as at a shard.
	if _, err := c.queryV1(&api.QueryRequest{Expr: "car", Form: api.FormTracks}); !api.IsCode(err, api.CodeBadRequest) {
		t.Errorf("tracks form on boolean expr: %v, want code bad_request", err)
	}
	if _, err := c.queryV1(&api.QueryRequest{Expr: "car & dur(1)", Form: api.FormRanked}); !api.IsCode(err, api.CodeBadRequest) {
		t.Errorf("ranked form on temporal expr: %v, want code bad_request", err)
	}

	// Cursor paging through the router: pages at the pinned vector must
	// concatenate to exactly the one-shot merged ranking at that vector —
	// and the assembled read must verify against the reference system.
	oneShot, err := c.queryV1(&api.QueryRequest{Expr: "car & dur(1)", TopK: 9})
	if err != nil {
		t.Fatal(err)
	}
	assembled, err := c.cli.CollectPages(context.Background(),
		&api.QueryRequest{Expr: "car & dur(1)", TopK: 9, At: oneShot.Watermarks}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(assembled.Watermarks, oneShot.Watermarks) {
		t.Fatalf("paged read pinned %v, one-shot %v", assembled.Watermarks, oneShot.Watermarks)
	}
	if !reflect.DeepEqual(assembled.Tracks, oneShot.Tracks) {
		t.Fatalf("cursor pages diverge from one-shot:\npaged: %+v\nfull:  %+v", assembled.Tracks, oneShot.Tracks)
	}
	if err := verify(assembled); err != nil {
		t.Errorf("assembled cursor read diverges from direct execution: %v", err)
	}
}
