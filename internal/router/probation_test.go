package router

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"focus/api"
)

// fakeShard is a scriptable backend for poller tests: /healthz flips
// between ok and 500 via the up flag, /v1/streams always reports the
// shard's streams. No focus.System behind it — these tests exercise the
// router's state machine, not query execution.
type fakeShard struct {
	name    string
	streams []string
	up      atomic.Bool
	http    *httptest.Server
}

func newFakeShard(t *testing.T, name string, streams ...string) *fakeShard {
	t.Helper()
	f := &fakeShard{name: name, streams: streams}
	f.up.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if !f.up.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc(api.PathStreams, func(w http.ResponseWriter, r *http.Request) {
		var out []api.StreamStatus
		for _, st := range f.streams {
			out = append(out, api.StreamStatus{Name: st, Watermark: 10})
		}
		_ = json.NewEncoder(w).Encode(out)
	})
	f.http = httptest.NewServer(mux)
	t.Cleanup(f.http.Close)
	return f
}

func probationRouter(t *testing.T, polls int, shards ...*fakeShard) *Router {
	t.Helper()
	smap := &ShardMap{Pins: map[string]string{}}
	for _, f := range shards {
		smap.Shards = append(smap.Shards, ShardSpec{Name: f.name, URL: f.http.URL})
		for _, st := range f.streams {
			smap.Pins[st] = f.name
		}
	}
	r, err := New(Config{Map: smap, ProbationPolls: polls, Timeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func (r *Router) stateOf(name string) string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.shards[name].state
}

// TestFlappingShardProbation drives the poller's state machine by hand: a
// recovered shard must string together ProbationPolls consecutive healthy
// polls before it is routed to again, so a flapping shard (up one poll,
// down the next) never re-enters rotation — and its stream ownership stays
// sticky the whole time.
func TestFlappingShardProbation(t *testing.T) {
	a := newFakeShard(t, "shard-a", "left")
	b := newFakeShard(t, "shard-b", "right")
	r := probationRouter(t, 3, a, b)

	// First-ever poll: healthy shards readmit directly (no probation at
	// boot — Start's discovery must be able to succeed).
	r.refresh()
	if got := r.stateOf("shard-b"); got != StateHealthy {
		t.Fatalf("first healthy poll left shard-b %q, want healthy", got)
	}

	// Outage: down on the next poll, ownership sticky.
	b.up.Store(false)
	r.refresh()
	if got := r.stateOf("shard-b"); got != StateDown {
		t.Fatalf("down shard reads %q, want down", got)
	}
	if _, _, aerr := r.groupByShard([]string{"right"}, false); !api.IsCode(aerr, api.CodeShardDown) {
		t.Fatalf("query for a down shard's stream: %v, want shard_down (sticky ownership)", aerr)
	}

	// Recovery: each healthy poll advances probation; routing stays closed
	// until the streak completes.
	b.up.Store(true)
	for i := 1; i <= 2; i++ {
		r.refresh()
		if got := r.stateOf("shard-b"); got != StateProbation {
			t.Fatalf("after %d healthy polls shard-b reads %q, want probation", i, got)
		}
		if _, _, aerr := r.groupByShard([]string{"right"}, false); !api.IsCode(aerr, api.CodeShardDown) {
			t.Fatalf("probation shard routed after %d polls: %v, want shard_down", i, aerr)
		}
	}
	r.refresh()
	if got := r.stateOf("shard-b"); got != StateHealthy {
		t.Fatalf("after 3 consecutive healthy polls shard-b reads %q, want healthy", got)
	}
	if _, _, aerr := r.groupByShard([]string{"right"}, false); aerr != nil {
		t.Fatalf("readmitted shard still unroutable: %v", aerr)
	}

	// Flapping: up one poll, down the next. The streak resets on every
	// down observation, so the shard must never reach healthy.
	for round := 0; round < 4; round++ {
		b.up.Store(false)
		r.refresh()
		if got := r.stateOf("shard-b"); got != StateDown {
			t.Fatalf("flap round %d: down poll reads %q", round, got)
		}
		b.up.Store(true)
		r.refresh()
		if got := r.stateOf("shard-b"); got != StateProbation {
			t.Fatalf("flap round %d: single healthy poll reads %q, want probation", round, got)
		}
	}

	// The healthy shard never budged through any of this: no thrash.
	if got := r.stateOf("shard-a"); got != StateHealthy {
		t.Fatalf("uninvolved shard-a reads %q, want healthy", got)
	}

	// allow_partial during probation: the probation shard's streams are
	// reported missing, the healthy shard's group survives.
	groups, missing, aerr := r.groupByShard(nil, true)
	if aerr != nil {
		t.Fatal(aerr)
	}
	if len(groups) != 1 || groups[0].spec.Name != "shard-a" {
		t.Fatalf("partial groups = %+v, want only shard-a", groups)
	}
	if len(missing) != 1 || missing[0].spec.Name != "shard-b" || missing[0].streams[0] != "right" {
		t.Fatalf("partial missing = %+v, want shard-b owning right", missing)
	}
	// …but with every owning shard unroutable, allow_partial still fails.
	if _, _, aerr := r.groupByShard([]string{"right"}, true); !api.IsCode(aerr, api.CodeShardDown) {
		t.Fatalf("allow_partial with no routable shard: %v, want shard_down", aerr)
	}
}

// TestCallShardRetriesTransientFailures pins the sub-request retry policy:
// transport errors and typed unavailable/overloaded replies are retried
// (honoring Retry-After), deterministic failures are not.
func TestCallShardRetriesTransientFailures(t *testing.T) {
	r, err := New(Config{
		Map:          &ShardMap{Shards: []ShardSpec{{Name: "s", URL: "http://unused"}}},
		ShardRetries: 3,
		ShardBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	g := shardGroup{spec: ShardSpec{Name: "s"}}

	reply := func(status int, code api.Code, retryAfter string) *http.Response {
		rec := httptest.NewRecorder()
		if retryAfter != "" {
			rec.Header().Set("Retry-After", retryAfter)
		}
		rec.WriteHeader(status)
		_ = json.NewEncoder(rec).Encode(api.Envelope{Err: api.Errorf(code, "injected")})
		return rec.Result()
	}

	// Transport errors retry until the budget runs out.
	calls := 0
	var rep shardReply
	r.callShard(g, func(shardGroup) (*http.Response, error) {
		calls++
		return nil, fmt.Errorf("connection refused")
	}, &rep)
	if calls != 4 || rep.err == nil {
		t.Fatalf("transport error: %d calls (want 4 = 1+3 retries), err %v", calls, rep.err)
	}

	// Typed unavailable heals on the third attempt.
	calls = 0
	r.callShard(g, func(shardGroup) (*http.Response, error) {
		calls++
		if calls < 3 {
			return reply(http.StatusServiceUnavailable, api.CodeUnavailable, ""), nil
		}
		return reply(http.StatusOK, "", ""), nil
	}, &rep)
	if calls != 3 || rep.err != nil || rep.status != http.StatusOK {
		t.Fatalf("unavailable retry: %d calls, status %d, err %v", calls, rep.status, rep.err)
	}

	// Overloaded with Retry-After: 0 retries promptly and succeeds.
	calls = 0
	start := time.Now()
	r.callShard(g, func(shardGroup) (*http.Response, error) {
		calls++
		if calls == 1 {
			return reply(http.StatusTooManyRequests, api.CodeOverloaded, "0"), nil
		}
		return reply(http.StatusOK, "", ""), nil
	}, &rep)
	if calls != 2 || rep.status != http.StatusOK {
		t.Fatalf("overloaded retry: %d calls, status %d", calls, rep.status)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Retry-After 0 ignored: took %v", elapsed)
	}

	// Draining is deliberate, not transient: no retry.
	calls = 0
	r.callShard(g, func(shardGroup) (*http.Response, error) {
		calls++
		return reply(http.StatusServiceUnavailable, api.CodeDraining, ""), nil
	}, &rep)
	if calls != 1 {
		t.Fatalf("draining was retried: %d calls, want 1", calls)
	}

	// Client errors are final too.
	calls = 0
	r.callShard(g, func(shardGroup) (*http.Response, error) {
		calls++
		return reply(http.StatusBadRequest, api.CodeBadRequest, ""), nil
	}, &rep)
	if calls != 1 {
		t.Fatalf("bad_request was retried: %d calls, want 1", calls)
	}
	if r.shardRetried.Load() == 0 {
		t.Error("shard_retries counter never moved")
	}
}

// TestRouterOversizedRequestBody: the router bounds the /v1/query and
// /v1/subscribe bodies it reads like a shard does — past
// api.MaxRequestBytes is the typed bad_request envelope, before any shard
// is asked.
func TestRouterOversizedRequestBody(t *testing.T) {
	r := probationRouter(t, 1, newFakeShard(t, "shard-0", "auburn_c"))
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	body := `{"expr":"car","pad":"` + strings.Repeat("a", api.MaxRequestBytes) + `"}`
	for _, path := range []string{api.PathQuery, api.PathSubscribe} {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var env api.Envelope
		err = json.NewDecoder(resp.Body).Decode(&env)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || err != nil || env.Err == nil ||
			env.Err.Code != api.CodeBadRequest || !strings.Contains(env.Err.Message, "too large") {
			t.Errorf("%s with %d bytes: status %d, envelope %+v (%v), want 400 bad_request naming the size",
				path, len(body), resp.StatusCode, env.Err, err)
		}
	}
	if got := r.shardReqs.Load(); got != 0 {
		t.Errorf("%d shard requests for bodies that were never read whole", got)
	}
}
