package subscribe

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"focus/api"
)

// fakeWorld is a deterministic stand-in for the query engine: a mutable
// watermark vector plus a pure answer function of the pinned vector. Its
// answers are deliberately non-monotone — items rescore and retract as
// watermarks advance — so deltas must be real edit scripts, not appends.
type fakeWorld struct {
	mu    sync.Mutex
	wm    api.WatermarkVector
	evals atomic.Int64
	fail  atomic.Bool
}

func newFakeWorld(streams ...string) *fakeWorld {
	w := &fakeWorld{wm: make(api.WatermarkVector, len(streams))}
	for _, s := range streams {
		w.wm[s] = 0
	}
	return w
}

func (w *fakeWorld) advance(stream string, to float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.wm[stream] = to
}

func (w *fakeWorld) vector() api.WatermarkVector {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.wm.Clone()
}

// itemsAt is the pure ranked answer at a vector. Item t exists while
// (t+wm)%7 != 0 (retraction) and item 1 rescores on every advance.
func itemsAt(v api.WatermarkVector) []api.Item {
	var out []api.Item
	for stream, wm := range v {
		for t := 1; t <= int(wm); t++ {
			if (t+int(wm))%7 == 0 {
				continue
			}
			score := float64((t*7)%5) + 1
			if t == 1 {
				score += wm / 1024
			}
			out = append(out, api.Item{
				Stream: stream, Frame: int64(t * 30), TimeSec: float64(t),
				Segment: int64(t), Score: score,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return api.ItemRankBefore(out[i], out[j]) })
	return out
}

// tracksAt is the pure tracks answer at a vector: one track per pair of
// sealed seconds, growing a sighting (same rank key, different struct)
// when the second of the pair seals.
func tracksAt(v api.WatermarkVector) []api.TrackItem {
	var out []api.TrackItem
	for stream, wm := range v {
		for t := 1; t <= int(wm); t += 2 {
			sightings := 1
			if float64(t+1) <= wm {
				sightings = 2
			}
			out = append(out, api.TrackItem{
				Stream: stream, Track: int64(t), Object: int64(t % 3),
				StartFrame: int64(t * 30), EndFrame: int64((t + sightings) * 30),
				StartSec: float64(t), EndSec: float64(t + sightings),
				Sightings: sightings, Score: float64((t*3)%4) + 1,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].RankBefore(out[j]) })
	return out
}

func (w *fakeWorld) respAt(v api.WatermarkVector, form string) *api.QueryResponse {
	resp := &api.QueryResponse{Form: form, Watermarks: v.Clone(), GTInferences: 3, GPUTimeMS: 1.5}
	if form == api.FormTracks {
		resp.Tracks = tracksAt(v)
		resp.TotalItems = len(resp.Tracks)
	} else {
		resp.Items = itemsAt(v)
		resp.TotalItems = len(resp.Items)
	}
	return resp
}

func (w *fakeWorld) evaluator(form string) Eval {
	return func(pins api.WatermarkVector) (*api.QueryResponse, error) {
		if w.fail.Load() {
			return nil, errors.New("injected eval failure")
		}
		w.evals.Add(1)
		v := pins
		if v == nil {
			v = w.vector()
		}
		return w.respAt(v, form), nil
	}
}

func opts(w *fakeWorld, form string, streams ...string) Options {
	sort.Strings(streams)
	return Options{
		Key:     fmt.Sprintf("%s|%v", form, streams),
		Form:    form,
		Streams: streams,
		Eval:    w.evaluator(form),
	}
}

// recv pops the next event or fails after a timeout.
func recv(t *testing.T, sub *Subscription) *api.SubscribeEvent {
	t.Helper()
	select {
	case ev, ok := <-sub.Events():
		if !ok {
			t.Fatalf("event stream closed; terminal=%+v", sub.Terminal())
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for an event")
	}
	panic("unreachable")
}

// recvClosed asserts the stream is closed and returns the terminal event.
func recvClosed(t *testing.T, sub *Subscription) *api.SubscribeEvent {
	t.Helper()
	select {
	case ev, ok := <-sub.Events():
		if ok {
			t.Fatalf("expected closed stream, got event %+v", ev)
		}
		return sub.Terminal()
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the stream to close")
	}
	panic("unreachable")
}

func noEvent(t *testing.T, sub *Subscription) {
	t.Helper()
	select {
	case ev, ok := <-sub.Events():
		if !ok {
			t.Fatalf("stream closed unexpectedly; terminal=%+v", sub.Terminal())
		}
		t.Fatalf("expected no event, got %+v", ev)
	default:
	}
}

func TestCatchUpFromGenesis(t *testing.T) {
	w := newFakeWorld("a")
	w.advance("a", 3)
	r := NewRegistry()
	sub, err := r.Subscribe(opts(w, api.FormRanked, "a"))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ev := recv(t, sub)
	if ev.Type != api.EventDelta {
		t.Fatalf("expected delta, got %+v", ev)
	}
	if !api.VectorsEqual(ev.Delta.From, api.WatermarkVector{"a": 0}) {
		t.Fatalf("catch-up From = %v, want genesis", ev.Delta.From)
	}
	if !api.VectorsEqual(ev.Delta.To, api.WatermarkVector{"a": 3}) {
		t.Fatalf("catch-up To = %v, want {a:3}", ev.Delta.To)
	}
	state, err := api.ApplyDeltaItems(nil, ev.Delta)
	if err != nil {
		t.Fatal(err)
	}
	if want := itemsAt(w.vector()); !reflect.DeepEqual(state, want) {
		t.Fatalf("catch-up reassembly = %+v, want %+v", state, want)
	}
	if ev.Delta.GTInferences != 3 || ev.Delta.GPUTimeMS != 1.5 {
		t.Fatalf("delta lost eval cost: %+v", ev.Delta)
	}
	// A second subscriber joining at the group's current vector has
	// nothing to catch up on: its opening delta is empty (From == To, no
	// edits) but still declares the answer size and vector.
	sub2, err := r.Subscribe(Options{
		Key: opts(w, api.FormRanked, "a").Key, Form: api.FormRanked,
		Streams: []string{"a"}, Eval: w.evaluator(api.FormRanked),
		From: api.WatermarkVector{"a": 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	empty := recv(t, sub2)
	if !api.VectorsEqual(empty.Delta.From, empty.Delta.To) || !api.VectorsEqual(empty.Delta.To, api.WatermarkVector{"a": 3}) {
		t.Fatalf("no-progress catch-up = %+v, want empty From==To=={a:3}", empty.Delta)
	}
	if len(empty.Delta.Items) != 0 || len(empty.Delta.RemovedItems) != 0 || empty.Delta.TotalItems != len(state) {
		t.Fatalf("no-progress catch-up carries edits: %+v", empty.Delta)
	}
	noEvent(t, sub2)
	if st := r.Stats(); st.Subscriptions != 2 || st.Active != 2 || st.Groups != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestDeltasComposeToOneShot is the package-level core invariant: the
// concatenation of a subscription's deltas from genesis reassembles the
// one-shot answer at the last delivered vector, bit for bit, in both
// forms, under rescoring and retraction.
func TestDeltasComposeToOneShot(t *testing.T) {
	for _, form := range []string{api.FormRanked, api.FormTracks} {
		t.Run(form, func(t *testing.T) {
			w := newFakeWorld("a", "b")
			r := NewRegistry()
			sub, err := r.Subscribe(opts(w, form, "a", "b"))
			if err != nil {
				t.Fatal(err)
			}
			defer sub.Close()
			var items []api.Item
			var tracks []api.TrackItem
			last := api.WatermarkVector{"a": 0, "b": 0}
			apply := func(d *api.Delta) {
				t.Helper()
				if !api.VectorsEqual(d.From, last) {
					t.Fatalf("delta From %v does not continue last To %v", d.From, last)
				}
				if form == api.FormTracks {
					tracks, err = api.ApplyDelta(tracks, d.Tracks, d.RemovedTracks, d.TotalItems)
				} else {
					items, err = api.ApplyDeltaItems(items, d)
				}
				if err != nil {
					t.Fatal(err)
				}
				last = d.To
			}
			// The stream opens with the (empty, genesis) catch-up delta.
			apply(recv(t, sub).Delta)
			for step := 1; step <= 9; step++ {
				w.advance("a", float64(step))
				if step%2 == 0 {
					w.advance("b", float64(step/2))
				}
				r.Pump()
				apply(recv(t, sub).Delta)
			}
			// An empty Pump (no watermark progress) must not emit.
			r.Pump()
			noEvent(t, sub)
			if form == api.FormTracks {
				if want := tracksAt(last); !reflect.DeepEqual(tracks, want) {
					t.Fatalf("reassembled tracks != one-shot at %v:\ngot  %+v\nwant %+v", last, tracks, want)
				}
			} else {
				if want := itemsAt(last); !reflect.DeepEqual(items, want) {
					t.Fatalf("reassembled items != one-shot at %v:\ngot  %+v\nwant %+v", last, items, want)
				}
			}
		})
	}
}

// TestCoalescing pins the cost contract: N subscribers on one plan pay
// one evaluation per advance, and all see the identical delta.
func TestCoalescing(t *testing.T) {
	w := newFakeWorld("a")
	r := NewRegistry()
	o := opts(w, api.FormRanked, "a")
	const n = 8
	subs := make([]*Subscription, n)
	var err error
	for i := range subs {
		if subs[i], err = r.Subscribe(o); err != nil {
			t.Fatal(err)
		}
		defer subs[i].Close()
	}
	if got := w.evals.Load(); got != 1 {
		t.Fatalf("joining %d subscribers cost %d evals, want 1", n, got)
	}
	for _, sub := range subs {
		if ev := recv(t, sub); !api.VectorsEqual(ev.Delta.From, ev.Delta.To) {
			t.Fatalf("opening catch-up is not empty: %+v", ev.Delta)
		}
	}
	for step := 1; step <= 5; step++ {
		w.advance("a", float64(step))
		r.Pump()
		first := recv(t, subs[0])
		for _, sub := range subs[1:] {
			if ev := recv(t, sub); !reflect.DeepEqual(ev, first) {
				t.Fatalf("subscribers diverged: %+v vs %+v", ev, first)
			}
		}
	}
	if got := w.evals.Load(); got != 6 {
		t.Fatalf("%d subscribers over 5 advances cost %d evals, want 6", n, got)
	}
	// 5 broadcast deltas plus the opening catch-up, per subscriber.
	if st := r.Stats(); st.Evals != 6 || st.DeltaEvents != 6*n {
		t.Fatalf("stats = %+v", st)
	}
}

func TestResumeFromMidVector(t *testing.T) {
	w := newFakeWorld("a")
	w.advance("a", 8)
	r := NewRegistry()
	o := opts(w, api.FormRanked, "a")
	o.From = api.WatermarkVector{"a": 5}
	sub, err := r.Subscribe(o)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	ev := recv(t, sub)
	if !api.VectorsEqual(ev.Delta.From, api.WatermarkVector{"a": 5}) {
		t.Fatalf("resume delta From = %v, want {a:5}", ev.Delta.From)
	}
	state, err := api.ApplyDeltaItems(itemsAt(api.WatermarkVector{"a": 5}), ev.Delta)
	if err != nil {
		t.Fatal(err)
	}
	if want := itemsAt(api.WatermarkVector{"a": 8}); !reflect.DeepEqual(state, want) {
		t.Fatalf("resume reassembly mismatch:\ngot  %+v\nwant %+v", state, want)
	}
}

func TestSubscribeErrors(t *testing.T) {
	w := newFakeWorld("a", "b")
	r := NewRegistry()
	o := opts(w, api.FormRanked, "a", "b")
	o.From = api.WatermarkVector{"a": 1}
	if _, err := r.Subscribe(o); err == nil {
		t.Fatal("resume vector with missing stream was accepted")
	}
	o.From = api.WatermarkVector{"a": 1, "c": 1}
	if _, err := r.Subscribe(o); err == nil {
		t.Fatal("resume vector with alien stream was accepted")
	}

	// First-join snapshot evaluation failing must surface, not wedge.
	w.fail.Store(true)
	o = opts(w, api.FormRanked, "a", "b")
	if _, err := r.Subscribe(o); err == nil {
		t.Fatal("failed snapshot eval was not surfaced")
	}
	w.fail.Store(false)

	// Resume evaluation failing must surface and leave the group usable.
	w.advance("a", 4)
	sub, err := r.Subscribe(opts(w, api.FormRanked, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	recv(t, sub)
	w.fail.Store(true)
	o = opts(w, api.FormRanked, "a", "b")
	o.From = api.WatermarkVector{"a": 2, "b": 0}
	if _, err := r.Subscribe(o); err == nil {
		t.Fatal("failed resume eval was not surfaced")
	}
	w.fail.Store(false)
	if st := r.Stats(); st.EvalErrors != 2 || st.Active != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestSlowConsumerDrop pins the backpressure contract: a full queue sheds
// the subscriber with a typed drop whose Resume vector continues exactly
// where delivery stopped — never a skipped or partial delta.
func TestSlowConsumerDrop(t *testing.T) {
	w := newFakeWorld("a")
	r := NewRegistry()
	o := opts(w, api.FormRanked, "a")
	o.Queue = 1
	sub, err := r.Subscribe(o)
	if err != nil {
		t.Fatal(err)
	}
	catchup := recv(t, sub) // opening (empty, genesis) catch-up
	state, err := api.ApplyDeltaItems(nil, catchup.Delta)
	if err != nil {
		t.Fatal(err)
	}
	// Two advances without reading: the first delta fills the queue, the
	// second overflows it.
	w.advance("a", 1)
	r.Pump()
	w.advance("a", 2)
	r.Pump()
	first := recv(t, sub)
	if !api.VectorsEqual(first.Delta.To, api.WatermarkVector{"a": 1}) {
		t.Fatalf("buffered delta To = %v, want {a:1}", first.Delta.To)
	}
	term := recvClosed(t, sub)
	if term == nil || term.Type != api.EventDrop || term.Reason != api.ReasonSlowConsumer {
		t.Fatalf("terminal = %+v, want slow_consumer drop", term)
	}
	if !api.VectorsEqual(term.Resume, first.Delta.To) {
		t.Fatalf("drop Resume = %v, want last delivered To %v", term.Resume, first.Delta.To)
	}
	if st := r.Stats(); st.Drops != 1 || st.Active != 0 {
		t.Fatalf("stats = %+v", st)
	}

	// Resuming from the advertised vector continues gap-free.
	if state, err = api.ApplyDeltaItems(state, first.Delta); err != nil {
		t.Fatal(err)
	}
	o = opts(w, api.FormRanked, "a")
	o.From = term.Resume
	sub2, err := r.Subscribe(o)
	if err != nil {
		t.Fatal(err)
	}
	defer sub2.Close()
	ev := recv(t, sub2)
	if state, err = api.ApplyDeltaItems(state, ev.Delta); err != nil {
		t.Fatal(err)
	}
	if want := itemsAt(api.WatermarkVector{"a": 2}); !reflect.DeepEqual(state, want) {
		t.Fatalf("post-resume reassembly mismatch:\ngot  %+v\nwant %+v", state, want)
	}
}

func TestDrain(t *testing.T) {
	w := newFakeWorld("a")
	r := NewRegistry()
	sub, err := r.Subscribe(opts(w, api.FormRanked, "a"))
	if err != nil {
		t.Fatal(err)
	}
	recv(t, sub) // opening catch-up
	r.Drain()
	term := recvClosed(t, sub)
	if term == nil || term.Type != api.EventBye || term.Reason != api.ReasonDraining {
		t.Fatalf("terminal = %+v, want draining bye", term)
	}
	if _, err := r.Subscribe(opts(w, api.FormRanked, "a")); err == nil {
		t.Fatal("Subscribe after Drain was accepted")
	}
	if st := r.Stats(); st.Groups != 0 || st.Active != 0 {
		t.Fatalf("stats = %+v", st)
	}
	r.Drain() // idempotent
	r.Kick()  // no-op after drain, must not panic
}

func TestComplete(t *testing.T) {
	w := newFakeWorld("a")
	w.advance("a", 2)
	r := NewRegistry()
	sub, err := r.Subscribe(opts(w, api.FormRanked, "a"))
	if err != nil {
		t.Fatal(err)
	}
	recv(t, sub) // catch-up to {a:2}
	w.advance("a", 3)
	r.Complete()
	final := recv(t, sub)
	if !api.VectorsEqual(final.Delta.To, api.WatermarkVector{"a": 3}) {
		t.Fatalf("final delta To = %v, want the frozen vector", final.Delta.To)
	}
	term := recvClosed(t, sub)
	if term == nil || term.Type != api.EventBye || term.Reason != api.ReasonComplete {
		t.Fatalf("terminal = %+v, want complete bye", term)
	}

	// A subscriber arriving after completion still gets the full catch-up
	// against the frozen answer, then the same terminal.
	late, err := r.Subscribe(opts(w, api.FormRanked, "a"))
	if err != nil {
		t.Fatal(err)
	}
	ev := recv(t, late)
	state, err := api.ApplyDeltaItems(nil, ev.Delta)
	if err != nil {
		t.Fatal(err)
	}
	if want := itemsAt(api.WatermarkVector{"a": 3}); !reflect.DeepEqual(state, want) {
		t.Fatalf("late catch-up mismatch:\ngot  %+v\nwant %+v", state, want)
	}
	if term := recvClosed(t, late); term == nil || term.Reason != api.ReasonComplete {
		t.Fatalf("late terminal = %+v, want complete bye", term)
	}
}

func TestCloseRemovesGroup(t *testing.T) {
	w := newFakeWorld("a")
	r := NewRegistry()
	sub, err := r.Subscribe(opts(w, api.FormRanked, "a"))
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := r.Subscribe(opts(w, api.FormRanked, "a"))
	if err != nil {
		t.Fatal(err)
	}
	sub.Close()
	sub.Close() // idempotent
	if st := r.Stats(); st.Groups != 1 || st.Active != 1 {
		t.Fatalf("stats after first close = %+v", st)
	}
	sub2.Close()
	if st := r.Stats(); st.Groups != 0 || st.Active != 0 {
		t.Fatalf("stats after last close = %+v", st)
	}
	if sub.Terminal() != nil {
		t.Fatalf("consumer-initiated close has no terminal, got %+v", sub.Terminal())
	}
	r.Kick() // empty registry, must not panic
}

// TestKickCoalesces pins that a burst of watermark advances collapses
// into few evaluations rather than one per kick.
func TestKickCoalesces(t *testing.T) {
	w := newFakeWorld("a")
	r := NewRegistry()
	gate := make(chan struct{})
	var evals atomic.Int64
	o := opts(w, api.FormRanked, "a")
	inner := o.Eval
	o.Eval = func(pins api.WatermarkVector) (*api.QueryResponse, error) {
		if evals.Add(1) > 1 {
			<-gate // hold the evaluator so kicks pile up
		}
		return inner(pins)
	}
	sub, err := r.Subscribe(o)
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	const kicks = 20
	for i := 1; i <= kicks; i++ {
		w.advance("a", float64(i))
		r.Kick()
	}
	close(gate)
	// The final coalesced evaluation must land on the final vector; read
	// deltas until it does.
	last := api.WatermarkVector{"a": 0}
	for !api.VectorsEqual(last, api.WatermarkVector{"a": kicks}) {
		last = recv(t, sub).Delta.To
	}
	if got := evals.Load(); got >= kicks {
		t.Fatalf("%d kicks cost %d evals, want coalescing", kicks, got)
	}
}

// TestJoinLeaveRace exercises the registry's whole lifecycle under the
// race detector: subscribers join, reassemble, and leave concurrently
// with watermark advances, and every completed subscription's reassembled
// state must equal the one-shot answer at its final vector.
func TestJoinLeaveRace(t *testing.T) {
	w := newFakeWorld("a", "b")
	r := NewRegistry()
	stop := make(chan struct{})
	var advancer sync.WaitGroup
	advancer.Add(1)
	go func() {
		defer advancer.Done()
		for step := 1; ; step++ {
			select {
			case <-stop:
				return
			default:
			}
			w.advance("a", float64(step))
			w.advance("b", float64(step)/2)
			r.Kick()
			time.Sleep(time.Millisecond)
		}
	}()

	var subscribers sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		subscribers.Add(1)
		go func(i int) {
			defer subscribers.Done()
			form := api.FormRanked
			if i%2 == 1 {
				form = api.FormTracks
			}
			for round := 0; round < 4; round++ {
				if err := subscribeOnce(r, w, form, 3+i%5); err != nil {
					errs <- fmt.Errorf("subscriber %d round %d: %w", i, round, err)
					return
				}
			}
		}(i)
	}
	subscribers.Wait()
	close(stop)
	advancer.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// subscribeOnce joins, reassembles a few deltas, validates the state
// against the pure answer at the last delivered vector, and leaves.
func subscribeOnce(r *Registry, w *fakeWorld, form string, deltas int) error {
	sub, err := r.Subscribe(opts(w, form, "a", "b"))
	if err != nil {
		return err
	}
	defer sub.Close()
	var items []api.Item
	var tracks []api.TrackItem
	last := api.WatermarkVector{"a": 0, "b": 0}
	deadline := time.After(10 * time.Second)
	for n := 0; n < deltas; {
		select {
		case ev, ok := <-sub.Events():
			if !ok {
				return fmt.Errorf("stream ended early: terminal=%+v", sub.Terminal())
			}
			d := ev.Delta
			if !api.VectorsEqual(d.From, last) {
				return fmt.Errorf("delta From %v does not continue last To %v", d.From, last)
			}
			if form == api.FormTracks {
				tracks, err = api.ApplyDelta(tracks, d.Tracks, d.RemovedTracks, d.TotalItems)
			} else {
				items, err = api.ApplyDeltaItems(items, d)
			}
			if err != nil {
				return err
			}
			last = d.To
			n++
		case <-deadline:
			return errors.New("timed out waiting for deltas")
		}
	}
	if form == api.FormTracks {
		if want := tracksAt(last); !reflect.DeepEqual(tracks, want) {
			return fmt.Errorf("reassembled tracks != one-shot at %v", last)
		}
	} else {
		if want := itemsAt(last); !reflect.DeepEqual(items, want) {
			return fmt.Errorf("reassembled items != one-shot at %v", last)
		}
	}
	return nil
}

func TestGenesisHelpers(t *testing.T) {
	v := genesisVector([]string{"a", "b"})
	if !genesis(v) {
		t.Fatalf("genesisVector(%v) is not genesis", v)
	}
	if genesis(api.WatermarkVector{"a": 0.5}) {
		t.Fatal("positive watermark misread as genesis")
	}
	if !genesis(api.WatermarkVector{"a": 0, "b": -math.SmallestNonzeroFloat64}) {
		t.Fatal("non-positive watermarks must read as genesis")
	}
}

// TestCloseStreams pins the handoff path: subscriptions touching a moved
// stream end with a typed bye, everything else keeps streaming, and new
// subscriptions are still accepted (they will resolve against the
// post-handoff stream set).
func TestCloseStreams(t *testing.T) {
	w := newFakeWorld("a", "b")
	r := NewRegistry()
	onA, err := r.Subscribe(opts(w, api.FormRanked, "a"))
	if err != nil {
		t.Fatal(err)
	}
	onB, err := r.Subscribe(opts(w, api.FormRanked, "b"))
	if err != nil {
		t.Fatal(err)
	}
	onBoth, err := r.Subscribe(opts(w, api.FormRanked, "a", "b"))
	if err != nil {
		t.Fatal(err)
	}
	recv(t, onA)
	recv(t, onB)
	recv(t, onBoth) // opening catch-ups

	r.CloseStreams(api.ReasonMoved, "a")
	for _, sub := range []*Subscription{onA, onBoth} {
		term := recvClosed(t, sub)
		if term == nil || term.Type != api.EventBye || term.Reason != api.ReasonMoved {
			t.Fatalf("terminal = %+v, want moved bye", term)
		}
	}
	if st := r.Stats(); st.Groups != 1 || st.Active != 1 {
		t.Fatalf("stats after close = %+v", st)
	}

	// The untouched group keeps streaming.
	w.advance("b", 2)
	r.Kick()
	if ev := recv(t, onB); ev.Type != api.EventDelta {
		t.Fatalf("survivor got %+v, want a delta", ev)
	}

	// Unlike Drain, CloseStreams leaves the registry open for business:
	// a fresh subscription on the moved stream resolves anew.
	fresh, err := r.Subscribe(opts(w, api.FormRanked, "a"))
	if err != nil {
		t.Fatalf("Subscribe after CloseStreams: %v", err)
	}
	recv(t, fresh)
	fresh.Close()
	onB.Close()

	r.CloseStreams(api.ReasonMoved, "nothing-matches") // no-op, must not panic
}
