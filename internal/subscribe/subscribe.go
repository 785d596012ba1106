// Package subscribe is the standing-query registry behind POST
// /v1/subscribe: it turns the one-shot query engine into an incremental
// one by re-evaluating each subscribed plan as ingest watermarks advance
// and broadcasting only the delta between consecutive answers.
//
// The registry's job is cost sharing and delivery discipline, in three
// mechanisms:
//
//   - Coalescing: subscriptions are grouped by (canonical plan, options,
//     stream set). Each group owns one evaluator goroutine and evaluates
//     once per watermark advance however many subscribers it has — kicks
//     arriving during an evaluation collapse into a single follow-up run.
//     Together with the engine-level GT-verdict cache (which makes each
//     re-evaluation pay GT-CNN cost only for clusters sealed since the
//     last one), N overlapping subscribers cost ~1 incremental evaluation
//     per advance.
//   - Delta purity: every broadcast delta is the exact edit between two
//     full answers of the same pure function at two vectors, so applying
//     a subscription's deltas in order from genesis reconstructs the
//     one-shot answer at the last delivered vector bit-identically, and a
//     resumed subscription (Options.From) continues gap-free and
//     duplicate-free from wherever the previous stream ended.
//   - Bounded delivery: each subscriber owns a bounded event queue. A
//     consumer that falls behind is dropped with a typed terminal event
//     carrying the vector through which delivery is complete — never a
//     skipped or partial delta — and can resume from there.
//
// The package is engine-agnostic: evaluation is injected as an Eval
// closure (the serve layer passes its cache-sharing executor), so the
// registry's lifecycle, coalescing and backpressure behavior is testable
// against fake evaluators.
package subscribe

import (
	"fmt"
	"sync"
	"sync/atomic"

	"focus/api"
)

// Eval evaluates the subscribed query pinned at the given watermark
// vector and returns the full (unpaged) answer. A nil vector snapshots
// the current watermarks; the response echoes the vector it executed at.
// Implementations must be pure functions of (plan, options, vector).
type Eval func(pins api.WatermarkVector) (*api.QueryResponse, error)

// DefaultQueue is the per-subscriber event buffer used when Options.Queue
// is zero: deep enough that a consumer reading at network speed never
// drops, small enough that an abandoned consumer is shed quickly.
const DefaultQueue = 64

// Options describes one subscription joining the registry.
type Options struct {
	// Key identifies the coalescing group: every subscription with the
	// same key shares one evaluation per advance. Callers must derive it
	// from exactly the tuple that makes answers a pure function
	// (canonical plan, options, resolved stream set) — the registry
	// treats it as opaque.
	Key string
	// Form is api.FormRanked or api.FormTracks: which delta payload the
	// group's answers carry.
	Form string
	// Streams is the resolved target stream set, sorted. It defines the
	// genesis vector (every stream at 0) and the key set From must cover.
	Streams []string
	// Queue bounds the subscriber's event buffer; 0 means DefaultQueue.
	Queue int
	// Eval evaluates the group's query. Only the first subscription of a
	// group installs it; later joins must pass an equivalent closure.
	Eval Eval
	// From resumes from the vector a previous delta stream was delivered
	// through; nil subscribes from genesis. Must cover exactly Streams.
	From api.WatermarkVector
}

// Stats is a snapshot of the registry's counters.
type Stats struct {
	// Subscriptions counts subscriptions ever accepted; Active the ones
	// currently attached; Groups the live coalescing groups.
	Subscriptions int64
	Active        int64
	Groups        int
	// DeltaEvents counts delta events enqueued across all subscribers;
	// Drops subscribers shed for falling behind their queue.
	DeltaEvents int64
	Drops       int64
	// Evals counts coalesced evaluations (including per-subscriber
	// resume evaluations); EvalErrors the ones that failed.
	Evals      int64
	EvalErrors int64
}

// Registry coalesces subscriptions into per-plan groups and fans deltas
// out to their subscribers. One registry serves one focus-serve process.
type Registry struct {
	mu        sync.Mutex
	groups    map[string]*group
	draining  bool
	completed bool

	subscriptions atomic.Int64
	active        atomic.Int64
	deltaEvents   atomic.Int64
	drops         atomic.Int64
	evals         atomic.Int64
	evalErrs      atomic.Int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: make(map[string]*group)}
}

// group is one coalescing unit: all subscriptions of one (plan, options,
// streams) tuple, one evaluator goroutine, one shared last-answer state.
type group struct {
	reg     *Registry
	key     string
	form    string
	streams []string
	eval    Eval
	// kick coalesces watermark-advance notifications: capacity 1, closed
	// (under reg.mu) when the group is removed.
	kick chan struct{}

	mu     sync.Mutex
	state  *groupState
	subs   map[*Subscription]bool
	closed bool
}

// groupState is one full evaluated answer.
type groupState struct {
	vector api.WatermarkVector
	items  []api.Item
	tracks []api.TrackItem
	cost   evalCost
}

// Subscription is one subscriber's handle: a bounded event stream plus a
// terminal event. Events are delivered in order; after the events channel
// closes, Terminal reports how the stream ended.
type Subscription struct {
	g      *group
	events chan *api.SubscribeEvent
	// The fields below are guarded by g.mu on the writer side; readers
	// may touch term only after events is closed (the close provides the
	// happens-before edge).
	term   *api.SubscribeEvent
	lastTo api.WatermarkVector
	closed bool
}

// Events returns the subscriber's event stream. The channel closes when
// the subscription ends for any reason; Terminal then reports why.
func (s *Subscription) Events() <-chan *api.SubscribeEvent { return s.events }

// Terminal returns the typed terminal event (EventDrop or EventBye), or
// nil when the subscription was closed by the consumer itself. Valid only
// after Events is closed.
func (s *Subscription) Terminal() *api.SubscribeEvent { return s.term }

// Close detaches the subscriber (idempotent): the consumer went away.
// Its group is garbage-collected when the last subscriber leaves.
func (s *Subscription) Close() {
	g := s.g
	g.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.events)
		g.reg.active.Add(-1)
	}
	delete(g.subs, s)
	empty := len(g.subs) == 0
	g.mu.Unlock()
	if empty {
		g.reg.removeGroup(g)
	}
}

// Subscribe attaches a subscriber, creating its coalescing group on first
// use. The event stream always opens with a catch-up delta (from From, or
// from genesis, to the group's current answer — empty with From == To
// when nothing has advanced past the resume point); subsequent advances
// broadcast incrementally. Returns a typed error when the registry is
// draining, when From is malformed, or when the catch-up evaluation fails
// (e.g. From pins ahead of the restarted server's horizon).
func (r *Registry) Subscribe(o Options) (*Subscription, error) {
	if o.Queue <= 0 {
		o.Queue = DefaultQueue
	}
	if len(o.From) > 0 {
		if len(o.From) != len(o.Streams) {
			return nil, fmt.Errorf("resume vector covers %d streams, subscription has %d", len(o.From), len(o.Streams))
		}
		for _, n := range o.Streams {
			if _, ok := o.From[n]; !ok {
				return nil, fmt.Errorf("resume vector is missing stream %q", n)
			}
		}
	}
	for {
		r.mu.Lock()
		if r.draining {
			r.mu.Unlock()
			return nil, fmt.Errorf("registry is draining")
		}
		g, ok := r.groups[o.Key]
		if !ok {
			g = &group{
				reg:     r,
				key:     o.Key,
				form:    o.Form,
				streams: o.Streams,
				eval:    o.Eval,
				kick:    make(chan struct{}, 1),
				subs:    make(map[*Subscription]bool),
			}
			r.groups[o.Key] = g
			go g.run()
		}
		completed := r.completed
		r.mu.Unlock()

		sub, retry, err := g.join(o, completed)
		if err != nil {
			return nil, err
		}
		if retry {
			// The group went terminal between the map lookup and the join
			// (Complete or the last subscriber leaving won the race); a
			// fresh group serves the join.
			continue
		}
		return sub, nil
	}
}

// join attaches one subscriber to the group: ensures the group has an
// evaluated answer, enqueues the catch-up delta, and (on a completed
// registry) terminates immediately after it.
func (g *group) join(o Options, completed bool) (*Subscription, bool, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, true, nil
	}
	if g.state == nil {
		if err := g.evaluateLocked(); err != nil {
			return nil, false, err
		}
	}
	from := o.From
	if len(from) == 0 {
		from = genesisVector(o.Streams)
	}
	sub := &Subscription{g: g, events: make(chan *api.SubscribeEvent, o.Queue), lastTo: from}
	// The stream always opens with a catch-up delta, empty (From == To, no
	// edits) when nothing advanced past From: subscribers — and the
	// router's fan-in, which cannot stamp merged answer sizes until every
	// shard leg has stated its own — start from a declared size and vector
	// rather than inferring them.
	prev := g.state
	if !api.VectorsEqual(from, g.state.vector) {
		prev = &groupState{vector: from}
		if !genesis(from) {
			resp, err := g.eval(from.Clone())
			if err != nil {
				g.reg.evalErrs.Add(1)
				return nil, false, err
			}
			g.reg.evals.Add(1)
			prev = stateOf(resp)
		}
	}
	g.subs[sub] = true
	g.reg.subscriptions.Add(1)
	g.reg.active.Add(1)
	g.enqueueLocked(sub, deltaEvent(g.form, prev, g.state, g.state.cost))
	if completed {
		g.terminalLocked(sub, &api.SubscribeEvent{V: api.SSEVersion, Type: api.EventBye, Reason: api.ReasonComplete})
	}
	return sub, false, nil
}

// run is the group's evaluator goroutine: one evaluation per coalesced
// kick, broadcasting the delta to every subscriber. It exits when the
// group is removed (kick closed).
func (g *group) run() {
	for range g.kick {
		g.mu.Lock()
		if !g.closed && len(g.subs) > 0 {
			// Evaluation errors are counted inside evaluateLocked; the
			// group retries on the next advance, subscribers just see no
			// delta for this one.
			_ = g.evaluateLocked()
		}
		g.mu.Unlock()
	}
}

// evaluateLocked evaluates the group's query at the current watermark
// snapshot and broadcasts the delta from the previous answer (none on the
// first evaluation, or when the vector has not advanced).
func (g *group) evaluateLocked() error {
	resp, err := g.eval(nil)
	if err != nil {
		g.reg.evalErrs.Add(1)
		return err
	}
	g.reg.evals.Add(1)
	next := stateOf(resp)
	prev := g.state
	g.state = next
	if prev == nil || api.VectorsEqual(prev.vector, next.vector) {
		return nil
	}
	ev := deltaEvent(g.form, prev, next, next.cost)
	for sub := range g.subs {
		g.enqueueLocked(sub, ev)
	}
	return nil
}

// enqueueLocked delivers one event to one subscriber, or sheds the
// subscriber with a typed drop if its queue is full. The queue is FIFO,
// so everything before the drop is delivered intact: the Resume vector is
// exactly the To of the last enqueued delta.
func (g *group) enqueueLocked(sub *Subscription, ev *api.SubscribeEvent) {
	if sub.closed {
		return
	}
	select {
	case sub.events <- ev:
		if ev.Type == api.EventDelta {
			sub.lastTo = ev.Delta.To
			g.reg.deltaEvents.Add(1)
		}
	default:
		g.reg.drops.Add(1)
		g.terminalLocked(sub, &api.SubscribeEvent{
			V: api.SSEVersion, Type: api.EventDrop,
			Reason: api.ReasonSlowConsumer, Resume: sub.lastTo.Clone(),
		})
	}
}

// terminalLocked ends one subscription with a typed terminal event and
// detaches it from the group.
func (g *group) terminalLocked(sub *Subscription, term *api.SubscribeEvent) {
	if sub.closed {
		return
	}
	sub.closed = true
	sub.term = term
	close(sub.events)
	delete(g.subs, sub)
	g.reg.active.Add(-1)
}

// removeGroup garbage-collects a group that may have lost its last
// subscriber; re-checked under both locks because a new subscriber can
// join between the emptiness observation and this call.
func (r *Registry) removeGroup(g *group) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.groups[g.key] != g {
		return
	}
	g.mu.Lock()
	empty := len(g.subs) == 0
	if empty {
		g.closed = true
	}
	g.mu.Unlock()
	if empty {
		delete(r.groups, g.key)
		close(g.kick)
	}
}

// Kick notifies every group that watermarks advanced: each schedules (at
// most) one evaluation, coalescing with any already pending. Called from
// the ingester goroutines; never blocks.
func (r *Registry) Kick() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, g := range r.groups {
		select {
		case g.kick <- struct{}{}:
		default:
		}
	}
}

// Pump evaluates every group synchronously: deltas for any watermark
// progress are enqueued before it returns. Deterministic tests use it in
// place of the asynchronous Kick.
func (r *Registry) Pump() {
	for _, g := range r.snapshot() {
		g.mu.Lock()
		if !g.closed && len(g.subs) > 0 {
			_ = g.evaluateLocked()
		}
		g.mu.Unlock()
	}
}

// Complete ends every subscription because ingest finished: each group
// evaluates once more at the final (frozen) vector, broadcasts the last
// delta, and terminates its subscribers with EventBye/ReasonComplete.
// Later subscribers still get their catch-up delta against the final
// answer, immediately followed by the same terminal event.
func (r *Registry) Complete() {
	r.mu.Lock()
	r.completed = true
	groups := make([]*group, 0, len(r.groups))
	for _, g := range r.groups {
		groups = append(groups, g)
	}
	r.mu.Unlock()
	for _, g := range groups {
		g.mu.Lock()
		if !g.closed && len(g.subs) > 0 {
			_ = g.evaluateLocked()
		}
		for sub := range g.subs {
			g.terminalLocked(sub, &api.SubscribeEvent{V: api.SSEVersion, Type: api.EventBye, Reason: api.ReasonComplete})
		}
		g.mu.Unlock()
	}
}

// CloseStreams ends every subscription whose stream set touches any of
// the named streams, with a typed EventBye carrying the given reason —
// the handoff path uses it to end standing queries on a stream that moved
// to another shard (api.ReasonMoved). Untouched groups keep streaming,
// and new subscriptions (which will resolve against the post-handoff
// stream set) are still accepted.
func (r *Registry) CloseStreams(reason string, names ...string) {
	match := make(map[string]bool, len(names))
	for _, n := range names {
		match[n] = true
	}
	r.mu.Lock()
	var groups []*group
	for key, g := range r.groups {
		touches := false
		for _, st := range g.streams {
			if match[st] {
				touches = true
				break
			}
		}
		if !touches {
			continue
		}
		groups = append(groups, g)
		delete(r.groups, key)
		close(g.kick)
	}
	r.mu.Unlock()
	for _, g := range groups {
		g.mu.Lock()
		g.closed = true
		for sub := range g.subs {
			g.terminalLocked(sub, &api.SubscribeEvent{V: api.SSEVersion, Type: api.EventBye, Reason: reason})
		}
		g.mu.Unlock()
	}
}

// Drain ends every subscription because the server is leaving rotation:
// subscribers get EventBye/ReasonDraining (no final evaluation — the
// point of draining is to stop work), and new subscriptions are refused.
func (r *Registry) Drain() {
	r.mu.Lock()
	r.draining = true
	groups := make([]*group, 0, len(r.groups))
	for key, g := range r.groups {
		groups = append(groups, g)
		delete(r.groups, key)
		close(g.kick)
	}
	r.mu.Unlock()
	for _, g := range groups {
		g.mu.Lock()
		g.closed = true
		for sub := range g.subs {
			g.terminalLocked(sub, &api.SubscribeEvent{V: api.SSEVersion, Type: api.EventBye, Reason: api.ReasonDraining})
		}
		g.mu.Unlock()
	}
}

// Stats snapshots the registry's counters.
func (r *Registry) Stats() Stats {
	r.mu.Lock()
	groups := len(r.groups)
	r.mu.Unlock()
	return Stats{
		Subscriptions: r.subscriptions.Load(),
		Active:        r.active.Load(),
		Groups:        groups,
		DeltaEvents:   r.deltaEvents.Load(),
		Drops:         r.drops.Load(),
		Evals:         r.evals.Load(),
		EvalErrors:    r.evalErrs.Load(),
	}
}

func (r *Registry) snapshot() []*group {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*group, 0, len(r.groups))
	for _, g := range r.groups {
		out = append(out, g)
	}
	return out
}

// genesisVector is the empty horizon: every stream at 0.
func genesisVector(streams []string) api.WatermarkVector {
	v := make(api.WatermarkVector, len(streams))
	for _, n := range streams {
		v[n] = 0
	}
	return v
}

// genesis reports whether the vector pins only empty horizons.
func genesis(v api.WatermarkVector) bool {
	for _, at := range v {
		if at > 0 {
			return false
		}
	}
	return true
}

// stateOf captures a full evaluated answer.
func stateOf(resp *api.QueryResponse) *groupState {
	return &groupState{
		vector: resp.Watermarks,
		items:  resp.Items,
		tracks: resp.Tracks,
		cost:   evalCost{gt: resp.GTInferences, gpuMS: resp.GPUTimeMS},
	}
}

// evalCost is the cost of the evaluation that produced an answer,
// attributed to the delta it yields.
type evalCost struct {
	gt    int
	gpuMS float64
}

// deltaEvent builds the delta event editing prev into next.
func deltaEvent(form string, prev, next *groupState, cost evalCost) *api.SubscribeEvent {
	d := &api.Delta{
		From:         prev.vector.Clone(),
		To:           next.vector.Clone(),
		GTInferences: cost.gt,
		GPUTimeMS:    cost.gpuMS,
	}
	if form == api.FormTracks {
		d.Tracks, d.RemovedTracks = api.Diff(prev.tracks, next.tracks)
		d.TotalItems = len(next.tracks)
	} else {
		d.Items, d.RemovedItems = api.Diff(prev.items, next.items)
		d.TotalItems = len(next.items)
	}
	return &api.SubscribeEvent{V: api.SSEVersion, Type: api.EventDelta, Delta: d}
}
