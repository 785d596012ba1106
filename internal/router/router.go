// Package router is the scatter-gather front tier that scales focus-serve
// horizontally: N serve processes ("shards") each own a disjoint subset of
// the streams, and one focus-router presents them as a single query
// endpoint with the same wire surface — the v1 contract of focus/api
// (POST /v1/query, POST /v1/subscribe, GET /v1/streams, GET /v1/stats) —
// and, critically, the same answers. The router speaks v1 to the shards
// too, classifying shard failures by structured error code
// rather than by message strings or marker headers.
//
// Placement is a ShardMap: a static roster of shards plus rendezvous
// hashing (with explicit pins as the override) assigning each stream to
// exactly one shard. The router discovers what each shard actually serves
// from its /v1/streams endpoint, health-checks shards in the background,
// and fans each request out only to the shards owning the referenced
// streams.
//
// Merging obeys one contract, stated next to the single-node contracts in
// DESIGN.md: because streams are disjoint across shards and every
// per-stream answer is a pure function of (plan, options, watermark),
// gathering per-shard results and merging them in the single-node
// engine's deterministic order (stream-sorted aggregation for the frames
// form, plan.RankBefore interleaving for the ranked form) yields answers
// bit-identical to one focus.System holding all the streams, executed at
// the merged watermark vector — and cursor paging over the merged ranking
// is bit-identical to single-node paging at the same pinned vector.
// Partial failure is never silent: if any required shard is down,
// draining, or errors, the request fails with a structured error naming
// the shard (Error.Shard) rather than returning a subset of the answer.
package router

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"focus/api"
	"focus/internal/reshard"
)

// Config tunes a Router.
type Config struct {
	// Map is the placement policy: the shard roster plus stream pins.
	Map *ShardMap
	// Refresh is the health/ownership poll interval. Default 2s.
	Refresh time.Duration
	// Timeout bounds each proxied shard request. Default 30s.
	Timeout time.Duration
	// StrictPlacement makes Start fail when a shard serves a stream the
	// ShardMap assigns elsewhere. Off, mismatches are surfaced in /stats
	// (placement_ok per shard) but routing follows what shards actually
	// serve.
	StrictPlacement bool
	// ShardRetries is how many times one failed shard sub-request is
	// retried before the failure is gathered — transient shapes only:
	// transport errors, structured "unavailable"/"not_ready", and
	// overloaded 429s (honoring Retry-After). Default 2; negative disables
	// retries.
	ShardRetries int
	// ShardBackoff is the base wait between sub-request retries; it
	// doubles per attempt (capped) with jitter. Default 50ms.
	ShardBackoff time.Duration
	// ProbationPolls is how many consecutive healthy health-poll rounds a
	// down shard must pass before it rejoins rotation. Re-entry through
	// probation keeps a flapping shard from thrashing queries: one lucky
	// poll is not recovery. Default 3; 1 readmits on the first healthy
	// poll.
	ProbationPolls int
	// Client overrides the proxy HTTP client (tests inject one); nil builds
	// a client with Timeout.
	Client *http.Client
}

func (c *Config) applyDefaults() {
	if c.Refresh <= 0 {
		c.Refresh = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.ShardRetries == 0 {
		c.ShardRetries = 2
	}
	if c.ShardRetries < 0 {
		c.ShardRetries = 0
	}
	if c.ShardBackoff <= 0 {
		c.ShardBackoff = 50 * time.Millisecond
	}
	if c.ProbationPolls <= 0 {
		c.ProbationPolls = 3
	}
}

// Shard health states as reported in /stats and /healthz.
const (
	// StateHealthy routes queries normally.
	StateHealthy = "healthy"
	// StateDraining keeps the shard's ownership but rejects queries with
	// 503 + the draining marker: the operator is restarting it.
	StateDraining = "draining"
	// StateDown means unreachable or not ready; queries touching its
	// streams fail with 503.
	StateDown = "down"
	// StateProbation is the re-entry gate between down and healthy: the
	// shard is answering health polls again but has not yet passed
	// Config.ProbationPolls consecutive rounds. It is not routed to (its
	// streams fail like a down shard's, or are dropped by allow_partial),
	// but its ownership and watermarks refresh normally.
	StateProbation = "probation"
)

// shardState is the router's view of one backend, refreshed by the poller.
// Ownership (streams/watermarks) is sticky: a shard that stops responding
// keeps its last-known streams so queries for them fail with an explicit
// "shard down" 503 instead of "unknown stream".
type shardState struct {
	spec       ShardSpec
	state      string
	lastErr    string
	streams    []string
	watermarks map[string]float64
	// epochs are the per-stream ownership epochs the shard last reported;
	// duplicates mid-handoff resolve to the higher epoch.
	epochs      map[string]uint64
	placementOK bool
	// polled is false until the first health poll: the very first healthy
	// observation readmits directly (there is no outage to be suspicious
	// of), so Start's discovery round does not boot every shard into
	// probation.
	polled bool
	// healthyStreak counts consecutive healthy polls since the last
	// non-healthy one — the probation exit condition.
	healthyStreak int
}

// Router is the scatter-gather front tier. Create with New, then Start to
// run initial discovery and the background health poller.
type Router struct {
	cfg    Config
	client *http.Client
	mux    *http.ServeMux

	startedNS atomic.Int64
	ready     atomic.Bool
	stopCh    chan struct{}
	stopped   sync.Once
	wg        sync.WaitGroup

	// mu guards the discovery state below. cfg.Map is also mutated under
	// mu (live resharding swaps it); readers snapshot it before I/O.
	mu     sync.RWMutex
	shards map[string]*shardState
	owners map[string]streamOwner
	// reshardOnStep, when non-nil, is called before every handoff protocol
	// step of a reshard; an error aborts that stream's move there. The
	// crash-matrix tests use it to kill participants at exact protocol
	// points; production leaves it nil.
	reshardOnStep func(m reshard.Move, step reshard.Step) error

	// flips are reshard-coordinator ownership overrides: a completed
	// handoff reroutes the stream to its destination the instant the
	// cutover commits, without waiting a poll round. Each entry is cleared
	// once discovery converges on it (the destination reports the stream
	// at or past the flipped epoch).
	flips map[string]streamOwner
	// resharding serializes /v1/admin/reshard operations.
	resharding sync.Mutex

	// counters
	queries      atomic.Int64
	planQueries  atomic.Int64
	trackQueries atomic.Int64
	// earlyExitQueries counts ranked queries routed in early-exit mode
	// (a subset of planQueries).
	earlyExitQueries atomic.Int64
	shardReqs        atomic.Int64
	shardRetried     atomic.Int64
	partials         atomic.Int64
	rejected         atomic.Int64
	unavailable      atomic.Int64
	clientErrs       atomic.Int64
	upstreamErrs     atomic.Int64
	// subscription counters: subs counts routed subscriptions ever
	// accepted (hello written), subsActive the ones currently streaming,
	// subDeltas the merged delta frames emitted, and subDrops the
	// subscriptions shed after losing a shard leg mid-stream.
	subs       atomic.Int64
	subsActive atomic.Int64
	subDeltas  atomic.Int64
	subDrops   atomic.Int64
	// reshard counters: operations accepted, streams moved, and failed
	// moves (see OPERATIONS.md §"Resharding").
	reshards     atomic.Int64
	reshardMoves atomic.Int64
	reshardErrs  atomic.Int64
}

// streamOwner is one stream's resolved owner: the shard serving it, at
// the stream's ownership epoch (0 = never moved). When two shards report
// the same stream mid-cutover, the higher epoch wins — the handoff
// destination imports at source epoch + 1, so the router's choice is
// deterministic and lands on the shard that will keep advancing the
// stream.
type streamOwner struct {
	shard string
	epoch uint64
}

// New validates the shard map and builds a router. Start must be called
// before the handler answers queries.
func New(cfg Config) (*Router, error) {
	if cfg.Map == nil {
		return nil, fmt.Errorf("router: Config.Map is required")
	}
	if err := cfg.Map.Validate(); err != nil {
		return nil, fmt.Errorf("router: %w", err)
	}
	cfg.applyDefaults()
	r := &Router{
		cfg:    cfg,
		client: cfg.Client,
		stopCh: make(chan struct{}),
		shards: make(map[string]*shardState, len(cfg.Map.Shards)),
		owners: make(map[string]streamOwner),
		flips:  make(map[string]streamOwner),
	}
	if r.client == nil {
		// A dedicated transport with a deep idle pool per shard host:
		// scatter-gather fans many concurrent sub-requests at few hosts,
		// and http.DefaultTransport's 2 idle conns per host would redial
		// on nearly every proxied request under load.
		r.client = &http.Client{
			Timeout: cfg.Timeout,
			Transport: &http.Transport{
				MaxIdleConns:        256,
				MaxIdleConnsPerHost: 64,
			},
		}
	}
	for _, spec := range cfg.Map.Shards {
		r.shards[spec.Name] = &shardState{spec: spec, state: StateDown, placementOK: true}
	}
	r.mux = http.NewServeMux()
	r.mux.HandleFunc(api.PathQuery, r.handleV1Query)
	r.mux.HandleFunc(api.PathSubscribe, r.handleV1Subscribe)
	r.mux.HandleFunc(api.PathStreams, r.handleStreams)
	r.mux.HandleFunc(api.PathStats, r.handleStats)
	r.mux.HandleFunc("/healthz", r.handleHealthz)
	// Live shard-map transitions (see reshard.go and internal/reshard).
	// Unauthenticated like the rest of the surface: the port must stay
	// inside the trust boundary (OPERATIONS.md §7).
	r.mux.HandleFunc(api.PathAdminReshard, r.handleAdminReshard)
	return r, nil
}

// Handler returns the HTTP handler; callers own the listener.
func (r *Router) Handler() http.Handler { return r.mux }

// Start runs initial discovery — every shard must be reachable and the
// discovered stream ownership must be disjoint (and, with StrictPlacement,
// must match the ShardMap's assignment) — then spawns the background
// health/ownership poller.
func (r *Router) Start() error {
	r.refresh()
	r.mu.RLock()
	var boot []string
	for name, sh := range r.shards {
		if sh.state == StateDown {
			boot = append(boot, fmt.Sprintf("%s (%s): %s", name, sh.spec.URL, sh.lastErr))
		}
		if r.cfg.StrictPlacement && !sh.placementOK {
			boot = append(boot, fmt.Sprintf("%s: serves streams the shard map assigns elsewhere", name))
		}
	}
	r.mu.RUnlock()
	if len(boot) > 0 {
		sort.Strings(boot)
		return fmt.Errorf("router: shards not ready: %s", strings.Join(boot, "; "))
	}
	r.startedNS.Store(time.Now().UnixNano())
	r.ready.Store(true)
	r.wg.Add(1)
	go r.pollLoop()
	return nil
}

// Stop halts the background poller.
func (r *Router) Stop() {
	r.stopped.Do(func() { close(r.stopCh) })
	r.wg.Wait()
}

func (r *Router) pollLoop() {
	defer r.wg.Done()
	ticker := time.NewTicker(r.cfg.Refresh)
	defer ticker.Stop()
	for {
		select {
		case <-r.stopCh:
			return
		case <-ticker.C:
			r.refresh()
		}
	}
}

// refresh polls every shard's /healthz and /streams concurrently and
// republishes the router's view: shard states, stream ownership (epoch-
// resolved), and per-stream watermarks. The roster polled is the live
// shard set — during a reshard this is the union of old and new maps, so
// joining shards are health-gated before any stream moves to them.
func (r *Router) refresh() {
	r.mu.RLock()
	placement := r.cfg.Map
	specs := make([]ShardSpec, 0, len(r.shards))
	for _, name := range r.shardNamesLocked() {
		specs = append(specs, r.shards[name].spec)
	}
	r.mu.RUnlock()
	type polled struct {
		state      string
		lastErr    string
		streams    []string
		epochs     map[string]uint64
		watermarks map[string]float64
	}
	results := make([]polled, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec ShardSpec) {
			defer wg.Done()
			p := &results[i]
			p.state, p.lastErr = r.pollHealth(spec)
			if p.state == StateDown {
				return
			}
			statuses, err := r.fetchStreams(spec)
			if err != nil {
				// Health said alive but the ownership surface failed:
				// treat as down — routing without ownership is guesswork.
				p.state, p.lastErr = StateDown, err.Error()
				return
			}
			p.watermarks = make(map[string]float64, len(statuses))
			p.epochs = make(map[string]uint64, len(statuses))
			for _, st := range statuses {
				p.streams = append(p.streams, st.Name)
				p.watermarks[st.Name] = st.Watermark
				p.epochs[st.Name] = st.Epoch
			}
			sort.Strings(p.streams)
		}(i, spec)
	}
	wg.Wait()

	r.mu.Lock()
	defer r.mu.Unlock()
	for i, spec := range specs {
		sh := r.shards[spec.Name]
		if sh == nil || sh.spec.URL != spec.URL {
			// The roster changed under the poll (a reshard removed or
			// replaced the shard); drop the stale result.
			continue
		}
		p := results[i]
		switch {
		case p.state != StateHealthy:
			sh.healthyStreak = 0
			sh.state, sh.lastErr = p.state, p.lastErr
		default:
			sh.healthyStreak++
			// A shard seen down (or mid-probation) must string together
			// ProbationPolls healthy rounds before it is routed to again;
			// a shard that was already healthy — or never observed at all —
			// readmits directly.
			if !sh.polled || sh.state == StateHealthy || sh.healthyStreak >= r.cfg.ProbationPolls {
				sh.state, sh.lastErr = StateHealthy, ""
			} else {
				sh.state = StateProbation
				sh.lastErr = fmt.Sprintf("in probation: %d/%d consecutive healthy polls",
					sh.healthyStreak, r.cfg.ProbationPolls)
			}
		}
		sh.polled = true
		if p.state != StateDown {
			sh.streams, sh.watermarks, sh.epochs = p.streams, p.watermarks, p.epochs
			sh.placementOK = true
			for _, st := range p.streams {
				if placement.Assign(st).Name != spec.Name {
					sh.placementOK = false
				}
			}
		}
	}
	r.rebuildOwnersLocked()
}

// rebuildOwnersLocked recomputes stream ownership from the shards'
// last-known streams. A stream reported by two shards resolves to the
// higher ownership epoch — the expected (and harmless) shape mid-handoff,
// where source and destination overlap for under a poll round; an
// equal-epoch duplicate is real misconfiguration and is surfaced as
// placement breakage on the later shard (name order, so deterministic).
// Reshard flips override the polled view until discovery converges on
// them.
func (r *Router) rebuildOwnersLocked() {
	owners := make(map[string]streamOwner)
	for _, name := range r.shardNamesLocked() {
		sh := r.shards[name]
		for _, st := range sh.streams {
			cand := streamOwner{shard: name, epoch: sh.epochs[st]}
			prev, dup := owners[st]
			if dup {
				if cand.epoch == prev.epoch {
					sh.placementOK = false
					sh.lastErr = fmt.Sprintf("stream %q also served by shard %q", st, prev.shard)
					continue
				}
				if cand.epoch < prev.epoch {
					continue
				}
			}
			owners[st] = cand
		}
	}
	for st, flip := range r.flips {
		cur, ok := owners[st]
		if ok && cur.shard == flip.shard && cur.epoch >= flip.epoch {
			// Discovery caught up with the cutover; the override has done
			// its job.
			delete(r.flips, st)
			continue
		}
		owners[st] = flip
	}
	r.owners = owners
}

// applyFlip is the reshard coordinator's commit point: the stream is
// rerouted to its destination shard immediately and atomically, ahead of
// the next discovery round.
func (r *Router) applyFlip(stream, shard string, epoch uint64, wm float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	flip := streamOwner{shard: shard, epoch: epoch}
	r.flips[stream] = flip
	r.owners[stream] = flip
	if sh := r.shards[shard]; sh != nil && sh.watermarks != nil {
		// Seed the destination's watermark view with the sealed watermark
		// so the stale poll view never reads as a regression.
		if sh.watermarks[stream] < wm {
			sh.watermarks[stream] = wm
		}
	}
}

// SetReshardOnStep installs a hook called before every handoff protocol
// step of a reshard; a non-nil return aborts that stream's move at that
// step. It is a crash-drill seam: the crash-matrix tests use it to kill
// participants at exact protocol points. Production leaves it unset.
// Not safe to call while a reshard is in flight.
func (r *Router) SetReshardOnStep(fn func(m reshard.Move, step reshard.Step) error) {
	r.reshardOnStep = fn
}

func (r *Router) shardNamesLocked() []string {
	names := make([]string, 0, len(r.shards))
	for n := range r.shards {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pollHealth classifies one shard's /healthz answer by the status field
// of its JSON body ("ok" / "draining" / "not ready") — structured state,
// not header sniffing.
func (r *Router) pollHealth(spec ShardSpec) (state, lastErr string) {
	resp, err := r.client.Get(spec.URL + "/healthz")
	if err != nil {
		return StateDown, err.Error()
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var h struct {
		Status string `json:"status"`
	}
	_ = json.Unmarshal(body, &h)
	switch {
	case resp.StatusCode == http.StatusOK:
		return StateHealthy, ""
	case h.Status == "draining":
		return StateDraining, ""
	default:
		return StateDown, fmt.Sprintf("healthz status %d", resp.StatusCode)
	}
}

func (r *Router) fetchStreams(spec ShardSpec) ([]api.StreamStatus, error) {
	resp, err := r.client.Get(spec.URL + api.PathStreams)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("streams status %d", resp.StatusCode)
	}
	var out []api.StreamStatus
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decoding streams: %w", err)
	}
	return out, nil
}

// Streams returns every known stream name, sorted — the router's "query
// all" universe.
func (r *Router) Streams() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.owners))
	for st := range r.owners {
		out = append(out, st)
	}
	sort.Strings(out)
	return out
}
