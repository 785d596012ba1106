package serve_test

import (
	"context"
	"reflect"
	"testing"

	"focus"
	"focus/api"
	"focus/internal/loadgen"
	"focus/internal/serve"
)

// TestV1EarlyExitMode pins the served two-mode contract: mode=early_exit
// is an opt-in, answers are deterministic and cacheable, the two modes
// never share a cache entry, every early-exit item replays against a
// direct early-exit execution (single node, same pure function), and the
// early_exit_queries stat counts exactly the opted-in traffic.
func TestV1EarlyExitMode(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{NoBackgroundIngest: true}, "auburn_c", "jacksonh")
	s.advanceAll(t, 30)
	cli := v1Client(s)
	ctx := context.Background()

	const expr = "car & person"
	exact, err := cli.Query(ctx, &api.QueryRequest{Expr: expr, TopK: 5})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Mode != "" {
		t.Fatalf("exact response echoes mode %q, want empty (golden compatibility)", exact.Mode)
	}

	// Same expr/options with mode=early_exit at the same vector: must
	// execute fresh — the exact entry above must not be served for it.
	early, err := cli.Query(ctx, &api.QueryRequest{Expr: expr, TopK: 5, Mode: api.ModeEarlyExit,
		At: exact.Watermarks})
	if err != nil {
		t.Fatal(err)
	}
	if early.Cached {
		t.Fatal("early-exit query hit the exact-mode cache entry — modes must be cache-disjoint")
	}
	if early.Mode != api.ModeEarlyExit {
		t.Fatalf("early-exit response echoes mode %q", early.Mode)
	}
	if len(early.Items) == 0 || len(early.Items) > 5 {
		t.Fatalf("early exit returned %d items for top_k 5", len(early.Items))
	}
	// On a single node early-exit is deterministic, so the strict verifier
	// replays it bit-identically (it reads the response's Mode).
	if err := loadgen.NewDirectPlanVerifier(s.sys)(early); err != nil {
		t.Fatalf("early-exit response diverges from direct replay: %v", err)
	}
	// The subset verifier (the routed-deployment contract) must accept it
	// too: verified items with exact scores, in rank order, within cap.
	if err := loadgen.NewSubsetPlanVerifier(s.sys)(early); err != nil {
		t.Fatalf("early-exit response fails the subset contract: %v", err)
	}

	// Repeating each mode hits its own entry, answers unchanged.
	earlyAgain, err := cli.Query(ctx, &api.QueryRequest{Expr: expr, TopK: 5, Mode: api.ModeEarlyExit,
		At: exact.Watermarks})
	if err != nil {
		t.Fatal(err)
	}
	if !earlyAgain.Cached {
		t.Fatal("repeated early-exit query missed its cache entry")
	}
	if !reflect.DeepEqual(earlyAgain.Items, early.Items) {
		t.Fatal("cached early-exit answer differs from the first execution")
	}
	exactAgain, err := cli.Query(ctx, &api.QueryRequest{Expr: expr, TopK: 5, At: exact.Watermarks})
	if err != nil {
		t.Fatal(err)
	}
	if !exactAgain.Cached {
		t.Fatal("repeated exact query missed its cache entry")
	}
	if !reflect.DeepEqual(exactAgain.Items, exact.Items) {
		t.Fatal("exact answer changed after early-exit traffic — modes leaked into each other")
	}

	// "exact" spelled explicitly is the same mode as the default: it must
	// hit the default-mode cache entry, not mint a third one.
	exactExplicit, err := cli.Query(ctx, &api.QueryRequest{Expr: expr, TopK: 5, Mode: api.ModeExact,
		At: exact.Watermarks})
	if err != nil {
		t.Fatal(err)
	}
	if !exactExplicit.Cached {
		t.Fatal(`mode "exact" minted its own cache entry instead of sharing the default's`)
	}
	if exactExplicit.Mode != "" {
		t.Fatalf(`mode "exact" echoed %q, want the canonical empty form`, exactExplicit.Mode)
	}

	// Cursor paging an early-exit execution: the token freezes the mode,
	// pages share the cached execution and reassemble to the one-shot.
	assembled, err := cli.CollectPages(ctx, &api.QueryRequest{Expr: expr, TopK: 5,
		Mode: api.ModeEarlyExit, At: exact.Watermarks}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(assembled.Items, early.Items) {
		t.Fatalf("paged early-exit read diverges from one-shot:\npaged: %+v\nfull:  %+v",
			assembled.Items, early.Items)
	}

	// The validation taxonomy: early_exit needs a result cap, unknown
	// modes and temporal expressions are rejected loudly.
	for name, req := range map[string]*api.QueryRequest{
		"no top_k":     {Expr: expr, Mode: api.ModeEarlyExit},
		"unknown mode": {Expr: expr, TopK: 5, Mode: "banana"},
		"temporal":     {Expr: "car & dur(2)", TopK: 5, Mode: api.ModeEarlyExit},
	} {
		if _, err := cli.Query(ctx, req); !api.IsCode(err, api.CodeBadRequest) {
			t.Errorf("%s: got %v, want code bad_request", name, err)
		}
	}

	// early_exit_queries counts opted-in ranked queries — cache hits and
	// cursor reads of an early-exit execution included — and nothing else.
	stats := s.srv.Snapshot()
	if stats.EarlyExitQueries == 0 {
		t.Fatal("early_exit_queries stayed 0 after early-exit traffic")
	}
	if stats.EarlyExitQueries >= stats.PlanQueries {
		t.Fatalf("early_exit_queries %d >= plan_queries %d: exact traffic was miscounted",
			stats.EarlyExitQueries, stats.PlanQueries)
	}
}

// TestEarlyExitQueriesCountsAdmissionsOnly pins early_exit_queries as "the
// subset of plan_queries": it is counted where plan_queries is, at
// admission, so the evaluations of a mode=early_exit standing query —
// which run the same executor on the ingest clock, not on client arrivals
// — never move it.
func TestEarlyExitQueriesCountsAdmissionsOnly(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{NoBackgroundIngest: true}, "auburn_c")
	sub := openSubscription(t, s, &api.SubscribeRequest{Expr: "car & person", TopK: 3, Mode: api.ModeEarlyExit})
	sub.next(t) // the opening catch-up
	const advances = 4
	for i := 1; i <= advances; i++ {
		s.advanceAll(t, float64(5*i))
		s.srv.PumpSubscriptions()
		if ev := sub.next(t); ev.Type != api.EventDelta {
			t.Fatalf("advance %d: got %q, want a delta", i, ev.Type)
		}
	}
	if evals := s.srv.Snapshot().SubscribeEvals; evals < advances {
		t.Fatalf("standing query evaluated %d times over %d advances", evals, advances)
	}

	const oneShots = 3
	for i := 0; i < oneShots; i++ {
		// One fresh execution, then cache hits: each is an admission.
		if _, err := v1Client(s).Query(context.Background(),
			&api.QueryRequest{Expr: "car & person", TopK: 5, Mode: api.ModeEarlyExit}); err != nil {
			t.Fatal(err)
		}
	}
	stats := s.srv.Snapshot()
	if stats.EarlyExitQueries != oneShots || stats.EarlyExitQueries > stats.PlanQueries {
		t.Fatalf("early_exit_queries = %d (plan_queries %d), want exactly the %d one-shots",
			stats.EarlyExitQueries, stats.PlanQueries, oneShots)
	}
}
