package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"focus"
	"focus/api"
	"focus/internal/serve"
)

// subscription is a test-side live SSE stream off POST /v1/subscribe.
type subscription struct {
	resp  *http.Response
	rd    *api.SSEReader
	hello *api.SubscribeHello
}

func openSubscription(t testing.TB, s *testService, req *api.SubscribeRequest) *subscription {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.http.URL+api.PathSubscribe, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("POST %s: status %d: %s", api.PathSubscribe, resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("subscription Content-Type = %q", ct)
	}
	t.Cleanup(func() { resp.Body.Close() })
	rd := api.NewSSEReader(resp.Body)
	ev, err := rd.Next()
	if err != nil {
		t.Fatalf("reading hello: %v", err)
	}
	if ev.Type != api.EventHello {
		t.Fatalf("first frame is %q, want hello", ev.Type)
	}
	return &subscription{resp: resp, rd: rd, hello: ev.Hello}
}

func (sub *subscription) next(t testing.TB) *api.SubscribeEvent {
	t.Helper()
	ev, err := sub.rd.Next()
	if err != nil {
		t.Fatalf("reading subscription frame: %v", err)
	}
	return ev
}

// subscribeError posts a subscription request expected to fail before the
// stream starts and returns the typed error.
func subscribeError(t testing.TB, s *testService, req *api.SubscribeRequest) *api.Error {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.http.URL+api.PathSubscribe, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatalf("expected a typed error, got a stream")
	}
	raw, _ := io.ReadAll(resp.Body)
	return api.DecodeError(resp.StatusCode, raw)
}

// reassembly applies a subscription's deltas in order, enforcing the
// contiguity contract (each From continues the previous To).
type reassembly struct {
	form   string // api.FormRanked or api.FormTracks
	items  []api.Item
	tracks []api.TrackItem
	last   api.WatermarkVector
}

func (a *reassembly) apply(t testing.TB, d *api.Delta) {
	t.Helper()
	if !api.VectorsEqual(d.From, a.last) {
		t.Fatalf("delta From %v does not continue last To %v", d.From, a.last)
	}
	var err error
	if a.form == api.FormTracks {
		a.tracks, err = api.ApplyDelta(a.tracks, d.Tracks, d.RemovedTracks, d.TotalItems)
	} else {
		a.items, err = api.ApplyDeltaItems(a.items, d)
	}
	if err != nil {
		t.Fatalf("applying delta (%v → %v): %v", d.From, d.To, err)
	}
	a.last = d.To
}

// TestSubscribeDeltasEqualOneShot is the tentpole invariant on the real
// engine: the concatenation of a subscription's deltas from genesis
// reconstructs the one-shot /v1/query answer pinned at the last delivered
// vector, bit-identically, in both forms, with deterministic ingest.
func TestSubscribeDeltasEqualOneShot(t *testing.T) {
	cases := []struct {
		name string
		expr string
		form string
	}{
		{"ranked", "car & person", api.FormRanked},
		{"tracks", "car & dur(1)", api.FormTracks},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := bootTestService(t, focus.Config{},
				serve.Config{NoBackgroundIngest: true}, "auburn_c", "jacksonh")
			sub := openSubscription(t, s, &api.SubscribeRequest{Expr: tc.expr})
			if sub.hello.Form != tc.form {
				t.Fatalf("hello form %q, want %q", sub.hello.Form, tc.form)
			}
			if !reflect.DeepEqual(sub.hello.Streams, []string{"auburn_c", "jacksonh"}) {
				t.Fatalf("hello streams %v", sub.hello.Streams)
			}
			asm := &reassembly{form: tc.form, last: api.WatermarkVector{"auburn_c": 0, "jacksonh": 0}}
			// The stream opens with the genesis catch-up delta — empty
			// here, since nothing has been ingested yet.
			opening := sub.next(t)
			if opening.Type != api.EventDelta || !api.VectorsEqual(opening.Delta.From, opening.Delta.To) {
				t.Fatalf("expected an empty opening catch-up, got %+v", opening)
			}
			asm.apply(t, opening.Delta)
			for to := 5.0; to <= 60; to += 5 {
				s.advanceAll(t, to)
				s.srv.PumpSubscriptions()
				ev := sub.next(t)
				if ev.Type != api.EventDelta {
					t.Fatalf("expected delta at %g, got %q", to, ev.Type)
				}
				asm.apply(t, ev.Delta)
			}
			// The 60s window is exhausted: the pump completed the registry.
			bye := sub.next(t)
			if bye.Type != api.EventBye || bye.Reason != api.ReasonComplete {
				t.Fatalf("terminal = %+v, want complete bye", bye)
			}
			if _, err := sub.rd.Next(); err != io.EOF {
				t.Fatalf("stream after bye: %v, want EOF", err)
			}
			oneShot, err := v1Client(s).Query(context.Background(),
				&api.QueryRequest{Expr: tc.expr, At: asm.last})
			if err != nil {
				t.Fatal(err)
			}
			if tc.form == api.FormTracks {
				if len(asm.tracks) == 0 {
					t.Fatal("subscription reassembled no tracks; pick a denser window")
				}
				if !reflect.DeepEqual(asm.tracks, oneShot.Tracks) {
					t.Fatalf("reassembled tracks != one-shot at %v:\ngot  %+v\nwant %+v",
						asm.last, asm.tracks, oneShot.Tracks)
				}
			} else {
				if len(asm.items) == 0 {
					t.Fatal("subscription reassembled no items; pick a denser window")
				}
				if !reflect.DeepEqual(asm.items, oneShot.Items) {
					t.Fatalf("reassembled items != one-shot at %v:\ngot  %+v\nwant %+v",
						asm.last, asm.items, oneShot.Items)
				}
			}
		})
	}
}

// TestSubscribeDeltasEqualOneShotLive races real background ingest (run
// under -race): both forms subscribe while the ingesters advance
// watermarks on their own clock, stream until the window completes, and
// every reassembly must equal the one-shot answer at its final vector.
func TestSubscribeDeltasEqualOneShotLive(t *testing.T) {
	s := bootTestService(t, focus.Config{}, serve.Config{
		Window:         focus.GenOptions{DurationSec: 30, SampleEvery: 1},
		TuneWindow:     focus.GenOptions{DurationSec: 15, SampleEvery: 1},
		IngestInterval: 2 * time.Millisecond,
	}, "auburn_c", "jacksonh")
	for _, tc := range []struct {
		name string
		expr string
	}{
		{"ranked", "car & person"},
		{"tracks", "car & dur(1)"},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			sub := openSubscription(t, s, &api.SubscribeRequest{Expr: tc.expr})
			asm := &reassembly{form: sub.hello.Form, last: api.WatermarkVector{"auburn_c": 0, "jacksonh": 0}}
			sawBye := false
			for {
				ev, err := sub.rd.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				switch ev.Type {
				case api.EventDelta:
					asm.apply(t, ev.Delta)
				case api.EventBye:
					if ev.Reason != api.ReasonComplete {
						t.Fatalf("bye reason %q, want complete", ev.Reason)
					}
					sawBye = true
				default:
					t.Fatalf("unexpected event %q", ev.Type)
				}
			}
			if !sawBye {
				t.Fatal("stream ended without a terminal bye")
			}
			oneShot, err := v1Client(s).Query(context.Background(),
				&api.QueryRequest{Expr: tc.expr, At: asm.last})
			if err != nil {
				t.Fatal(err)
			}
			if oneShot.Form == api.FormTracks {
				if !reflect.DeepEqual(asm.tracks, oneShot.Tracks) {
					t.Fatalf("reassembled tracks != one-shot at %v", asm.last)
				}
			} else {
				if !reflect.DeepEqual(asm.items, oneShot.Items) {
					t.Fatalf("reassembled items != one-shot at %v", asm.last)
				}
			}
		})
	}
}

// TestSubscribeCoalescingSharesGPU is the cost-sharing acceptance proof:
// two identical servers run the identical ingest schedule, one with a
// single subscriber and one with five on the same plan — and their query
// GPU-ms meters end exactly equal, because the registry coalesces the
// five onto one incremental evaluation per advance.
func TestSubscribeCoalescingSharesGPU(t *testing.T) {
	boot := func() *testService {
		return bootTestService(t, focus.Config{},
			serve.Config{NoBackgroundIngest: true}, "auburn_c")
	}
	run := func(s *testService, nSubs int) (gpuMS float64, evals int64) {
		subs := make([]*subscription, nSubs)
		for i := range subs {
			subs[i] = openSubscription(t, s, &api.SubscribeRequest{Expr: "car & person"})
		}
		for to := 5.0; to <= 30; to += 5 {
			s.advanceAll(t, to)
			s.srv.PumpSubscriptions()
			first := subs[0].next(t)
			if first.Type != api.EventDelta {
				t.Fatalf("expected delta, got %q", first.Type)
			}
			for _, sub := range subs[1:] {
				if ev := sub.next(t); !reflect.DeepEqual(ev, first) {
					t.Fatalf("subscribers diverged:\n%+v\n%+v", ev, first)
				}
			}
		}
		return s.sys.GPUMeter().QueryMS, s.srv.SubscriptionStats().Evals
	}
	gpuOne, evalsOne := run(boot(), 1)
	gpuFive, evalsFive := run(boot(), 5)
	if gpuFive != gpuOne {
		t.Fatalf("5 subscribers cost %.3f query GPU-ms, 1 subscriber cost %.3f — coalescing broken", gpuFive, gpuOne)
	}
	if evalsFive != evalsOne {
		t.Fatalf("5 subscribers ran %d evals, 1 subscriber ran %d", evalsFive, evalsOne)
	}
	if evalsOne == 0 || gpuOne == 0 {
		t.Fatalf("schedule did no measurable work (evals=%d, gpu=%.3f)", evalsOne, gpuOne)
	}
}

// TestSubscribeSharesResultCache pins that subscription evaluations land
// in the same result cache one-shot queries read: after an advance is
// evaluated for a subscription, the identical one-shot query is a hit.
func TestSubscribeSharesResultCache(t *testing.T) {
	s := bootTestService(t, focus.Config{},
		serve.Config{NoBackgroundIngest: true}, "auburn_c")
	sub := openSubscription(t, s, &api.SubscribeRequest{Expr: "car & person"})
	s.advanceAll(t, 10)
	s.srv.PumpSubscriptions()
	if ev := sub.next(t); ev.Type != api.EventDelta {
		t.Fatalf("expected delta, got %q", ev.Type)
	}
	resp, err := v1Client(s).Query(context.Background(), &api.QueryRequest{Expr: "car & person"})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Cached {
		t.Fatal("one-shot query after a subscription evaluation missed the result cache")
	}
}

// TestSubscribeDrain pins the lifecycle contract: draining closes live
// streams with a typed terminal bye and refuses new subscriptions with
// the structured draining error.
func TestSubscribeDrain(t *testing.T) {
	s := bootTestService(t, focus.Config{},
		serve.Config{NoBackgroundIngest: true}, "auburn_c")
	sub := openSubscription(t, s, &api.SubscribeRequest{Expr: "car & person"})
	if ev := sub.next(t); ev.Type != api.EventDelta {
		t.Fatalf("expected the opening catch-up delta, got %q", ev.Type)
	}
	s.srv.StartDrain()
	bye := sub.next(t)
	if bye.Type != api.EventBye || bye.Reason != api.ReasonDraining {
		t.Fatalf("terminal = %+v, want draining bye", bye)
	}
	if _, err := sub.rd.Next(); err != io.EOF {
		t.Fatalf("stream after bye: %v, want EOF", err)
	}
	aerr := subscribeError(t, s, &api.SubscribeRequest{Expr: "car & person"})
	if aerr.Code != api.CodeDraining {
		t.Fatalf("subscribe while draining = %+v, want %q", aerr, api.CodeDraining)
	}
}

// TestSubscribeResume pins the serve-side resume path: a client that
// disconnects and resubscribes with From at its last delivered vector
// continues gap-free and duplicate-free to the same one-shot answer.
func TestSubscribeResume(t *testing.T) {
	s := bootTestService(t, focus.Config{},
		serve.Config{NoBackgroundIngest: true}, "auburn_c", "jacksonh")
	sub := openSubscription(t, s, &api.SubscribeRequest{Expr: "car & person"})
	asm := &reassembly{last: api.WatermarkVector{"auburn_c": 0, "jacksonh": 0}}
	asm.apply(t, sub.next(t).Delta) // empty genesis catch-up
	for _, to := range []float64{5, 10} {
		s.advanceAll(t, to)
		s.srv.PumpSubscriptions()
		asm.apply(t, sub.next(t).Delta)
	}
	sub.resp.Body.Close() // disconnect mid-subscription

	s.advanceAll(t, 20)
	resumed := openSubscription(t, s, &api.SubscribeRequest{Expr: "car & person", From: asm.last})
	// The catch-up delta covers everything missed while disconnected.
	asm.apply(t, resumed.next(t).Delta)
	s.advanceAll(t, 25)
	s.srv.PumpSubscriptions()
	asm.apply(t, resumed.next(t).Delta)

	oneShot, err := v1Client(s).Query(context.Background(),
		&api.QueryRequest{Expr: "car & person", At: asm.last})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asm.items, oneShot.Items) {
		t.Fatalf("resumed reassembly != one-shot at %v:\ngot  %+v\nwant %+v",
			asm.last, asm.items, oneShot.Items)
	}
	// Five delta events: each stream opened with a catch-up (the first
	// empty, the resumed one covering the disconnected span) plus three
	// advance broadcasts.
	if st := s.srv.Snapshot(); st.Subscriptions != 2 || st.DeltaEvents != 5 {
		t.Fatalf("stats = subscriptions %d, delta_events %d", st.Subscriptions, st.DeltaEvents)
	}
}

// TestSubscribeErrors pins the pre-stream error surface.
func TestSubscribeErrors(t *testing.T) {
	s := bootTestService(t, focus.Config{},
		serve.Config{NoBackgroundIngest: true}, "auburn_c")
	s.advanceAll(t, 5)
	cases := []struct {
		name string
		req  *api.SubscribeRequest
		code api.Code
	}{
		{"syntax", &api.SubscribeRequest{Expr: "car &"}, api.CodeBadExpr},
		{"frames form", &api.SubscribeRequest{Expr: "car", Form: api.FormFrames}, api.CodeBadRequest},
		{"unknown stream", &api.SubscribeRequest{Expr: "car", Streams: []string{"nope"}}, api.CodeUnknownStream},
		{"resume ahead", &api.SubscribeRequest{Expr: "car",
			From: api.WatermarkVector{"auburn_c": 999}}, api.CodePinAhead},
		{"resume partial", &api.SubscribeRequest{Expr: "car",
			Streams: []string{"auburn_c"}, From: api.WatermarkVector{"other": 1}}, api.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if aerr := subscribeError(t, s, tc.req); aerr.Code != tc.code {
				t.Fatalf("error = %+v, want code %q", aerr, tc.code)
			}
		})
	}
	t.Run("method", func(t *testing.T) {
		resp, err := http.Get(s.http.URL + api.PathSubscribe)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET %s: status %d", api.PathSubscribe, resp.StatusCode)
		}
	})
}
