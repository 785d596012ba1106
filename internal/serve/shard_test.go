package serve_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"focus"
	"focus/api"
	"focus/internal/serve"
)

// TestCacheKeyingWithPinnedVectors is the router-facing cache contract:
// requests arriving via the router carry stream subsets and explicit
// pinned vectors, and their cache keys must collide with single-node keys
// exactly when — and only when — they denote the same pure function.
func TestCacheKeyingWithPinnedVectors(t *testing.T) {
	svc := bootTestService(t, focus.Config{},
		serve.Config{NoBackgroundIngest: true}, "auburn_c", "jacksonh")
	svc.advanceAll(t, 20)

	cacheState := func(params string) (*api.QueryResponse, string) {
		qr, resp := svc.getQuery(t, params)
		return qr, resp.Header.Get("X-Focus-Cache")
	}

	// Snapshot query at vector (20,20) populates the cache.
	snap, state := cacheState("class=car")
	if state != "miss" {
		t.Fatalf("first snapshot query: %s, want miss", state)
	}
	// An explicitly pinned request at the same vector is the same pure
	// function — it must share the entry, not create a colliding one.
	pinned, state := cacheState("class=car&at=auburn_c@20,jacksonh@20")
	if state != "hit" {
		t.Fatalf("pinned request at the snapshot vector: %s, want hit", state)
	}
	if pinned.TotalFrames != snap.TotalFrames {
		t.Fatalf("pinned hit served %d frames, snapshot served %d", pinned.TotalFrames, snap.TotalFrames)
	}
	// A different pinned vector is a different function: own entry.
	if _, state := cacheState("class=car&at=auburn_c@10,jacksonh@20"); state != "miss" {
		t.Fatalf("pinned request at a lower vector: %s, want miss", state)
	}
	// A router-style subset request must not collide with the full-corpus
	// entry (its key renders only its own streams)…
	sub, state := cacheState("class=car&streams=auburn_c")
	if state != "miss" {
		t.Fatalf("subset request: %s, want miss", state)
	}
	if len(sub.Streams) != 1 {
		t.Fatalf("subset request answered %d streams", len(sub.Streams))
	}
	// …while the same subset pinned at the same vector shares the subset
	// entry.
	if _, state := cacheState("class=car&streams=auburn_c&at=auburn_c@20"); state != "hit" {
		t.Fatalf("pinned subset at the snapshot vector: %s, want hit", state)
	}

	// Ingest advances: the snapshot key moves, but a pinned replay of the
	// old vector still hits the old entry — that is what keeps routed
	// paging and verification coherent while shards ingest.
	svc.advanceAll(t, 30)
	if _, state := cacheState("class=car"); state != "miss" {
		t.Fatalf("snapshot query after advance: %s, want miss", state)
	}
	old, state := cacheState("class=car&at=auburn_c@20,jacksonh@20")
	if state != "hit" {
		t.Fatalf("pinned replay of the old vector: %s, want hit", state)
	}
	if old.TotalFrames != snap.TotalFrames {
		t.Fatalf("pinned replay served %d frames, original %d", old.TotalFrames, snap.TotalFrames)
	}

	// A pin beyond the sealed horizon has no stable answer — and would
	// poison the cache entry a future snapshot legitimately keys on. 400.
	resp := postQuery(t, svc.http.URL, "class=car&at=auburn_c@55,jacksonh@30")
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("future-pinned query: status %d, want 400", resp.StatusCode)
	}
}

// TestDrainingRejectsQueriesKeepsOpsSurfaces pins the shard-side drain
// semantics the router consumes.
func TestDrainingRejectsQueriesKeepsOpsSurfaces(t *testing.T) {
	svc := bootTestService(t, focus.Config{},
		serve.Config{NoBackgroundIngest: true}, "auburn_c")
	svc.advanceAll(t, 10)

	// Admin drain over HTTP, as the operator (or a rollout) would.
	resp, err := http.Post(svc.http.URL+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /drain: status %d", resp.StatusCode)
	}

	resp = postQuery(t, svc.http.URL, "class=car")
	var e api.Envelope
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || e.Err == nil || e.Err.Code != api.CodeDraining {
		t.Fatalf("query while draining: status %d, error %+v", resp.StatusCode, e.Err)
	}

	resp, err = http.Get(svc.http.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get(serve.DrainingHeader) == "" {
		t.Fatalf("healthz while draining: status %d, draining header %q",
			resp.StatusCode, resp.Header.Get(serve.DrainingHeader))
	}

	// Ops surfaces stay live so the router keeps its ownership view.
	for _, ep := range []string{api.PathStreams, api.PathStats} {
		resp, err := http.Get(svc.http.URL + ep)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s while draining: status %d", ep, resp.StatusCode)
		}
	}
	if !svc.srv.Snapshot().Draining {
		t.Fatal("Snapshot does not report draining")
	}
}

// TestStatsConcurrentWithBootAndDrain is the -race regression net for the
// /v1/stats counter audit: the ops surfaces are served from the moment the
// listener is up — during Start (readiness probing), during queries, and
// during a drain — so every counter Snapshot reads must be safely
// published. The uptime field was the one audit finding: Start stored a
// plain time.Time that Snapshot read concurrently; it is atomic now.
func TestStatsConcurrentWithBootAndDrain(t *testing.T) {
	fcfg := focus.Config{
		Seed:        1,
		Targets:     focus.Targets{Recall: 0.7, Precision: 0.7},
		TuneOptions: serve.QuickTuneOptions(),
	}
	sys, err := focus.New(fcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sys.Close() })
	if _, err := sys.AddTable1Stream("auburn_c"); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(sys, serve.Config{
		Window:             focus.GenOptions{DurationSec: 40, SampleEvery: 1},
		TuneWindow:         focus.GenOptions{DurationSec: 20, SampleEvery: 1},
		NoBackgroundIngest: true,
	})
	// Listener up before Start, exactly like cmd/focus-serve: probes race
	// the boot path.
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	stop := make(chan struct{})
	var probes sync.WaitGroup
	for i := 0; i < 4; i++ {
		probes.Add(1)
		go func() {
			defer probes.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, ep := range []string{api.PathStats, "/healthz", api.PathStreams} {
					resp, err := http.Get(ts.URL + ep)
					if err == nil {
						resp.Body.Close()
					}
				}
				resp, err := http.Post(ts.URL+api.PathQuery, "application/json", strings.NewReader(`{"expr":"car"}`))
				if err == nil {
					resp.Body.Close()
				}
			}
		}()
	}

	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Stop)
	for _, sess := range sys.Sessions() {
		if _, err := sess.AdvanceLive(10); err != nil {
			t.Fatal(err)
		}
	}
	srv.StartDrain()
	close(stop)
	probes.Wait()
	if !srv.Snapshot().Ready || !srv.Snapshot().Draining {
		t.Fatalf("final snapshot: %+v", srv.Snapshot())
	}
}
