// Package serve turns a focus.System into a resident query service: streams
// ingest continuously in the background while many concurrent clients query
// over HTTP/JSON. It is the "low latency, low cost after-the-fact query"
// regime of the paper (§1, §6.7) run as a server instead of a library call.
//
// Three mechanisms make serving safe and cheap under load:
//
//   - Watermark-consistent queries: every request snapshots the per-stream
//     ingest watermarks at admission and executes pinned to that vector
//     (Query.AtWatermarks), so queries never race the background ingesters
//     and their answers are pure functions of (plan, options, vector).
//   - A sharded LRU result cache keyed by exactly that tuple: repeated
//     popular queries are served without any GT-CNN work, and entries
//     self-invalidate as watermarks advance (the key changes).
//   - Admission control via a bounded worker pool with a bounded wait queue
//     (parallel.Limiter): overload degrades into structured "overloaded"
//     rejections rather than unbounded queueing and latency collapse.
//
// The primary surface is the versioned wire contract of focus/api: POST
// /v1/query (one endpoint for single-class and compound queries — a
// single-class query is a one-leaf plan — with opaque watermark-stable
// cursor paging), POST /v1/subscribe, GET /v1/streams, GET /v1/stats.
// GET /healthz and POST /drain are the unversioned process-lifecycle
// surface; nothing else is mounted.
//
// The server is also shard-aware: a focus-router front tier can place
// several serve processes behind one endpoint, speaking v1 on both sides.
// /v1/streams reports each stream's ingest watermark, /v1/query accepts
// explicit pinned watermark vectors (QueryRequest.At), and /healthz
// distinguishes "not ready" from "draining" so the router can take a
// shard out of rotation before it restarts. See internal/router and
// OPERATIONS.md.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"focus"
	"focus/api"
	"focus/internal/parallel"
	"focus/internal/subscribe"
	"focus/internal/tune"
)

// QuickTuneOptions is a deliberately small parameter-search space for
// service boot: the full sweep is an offline activity (the paper retunes
// "once every few days"), and a booting server only needs a reasonable
// configuration fast. Pass it as focus.Config.TuneOptions.
func QuickTuneOptions() *tune.Options {
	o := tune.DefaultOptions()
	o.LsCandidates = []int{20}
	o.TCandidates = []float64{2.5, 3.0}
	o.KCandidates = []int{4, 16, 60}
	o.MaxSampleSightings = 800
	return &o
}

// Config tunes the server.
type Config struct {
	// Window is each stream's full ingest horizon (the recorded video the
	// background ingester works through).
	Window focus.GenOptions
	// TuneWindow, when non-zero, is a shorter window for the boot-time
	// parameter sweep; zero tunes over Window.
	TuneWindow focus.GenOptions
	// ChunkSec is the watermark granularity: how much stream time each
	// background ingest step seals. Default 5s.
	ChunkSec float64
	// IngestInterval is the real-time pause between background ingest steps;
	// 0 ingests as fast as the CPU allows.
	IngestInterval time.Duration
	// QueryWorkers bounds concurrently executing queries. Default 8.
	QueryWorkers int
	// QueueDepth bounds clients waiting for a query worker before new
	// arrivals are rejected as overloaded. Default 2x QueryWorkers.
	QueueDepth int
	// CacheCapacity is the result cache size in responses. Default 4096.
	CacheCapacity int
	// CacheShards is the result cache's shard count. Default 16.
	CacheShards int
	// NoBackgroundIngest starts live ingestion without spawning the
	// background ingester goroutines: the caller advances each session's
	// watermark by hand (Session.AdvanceLive). Tests use it to make cache
	// hit/miss sequences deterministic.
	NoBackgroundIngest bool
	// CheckpointEvery checkpoints each stream's live ingestion every N
	// ingest chunks (plus one final checkpoint when its window completes).
	// 0 defaults to 1 — every chunk; negative disables checkpointing.
	// Effective only when the system has a persistent store.
	CheckpointEvery int
	// DataDir, when set, is the durable data directory: MANIFEST.json is
	// published there (atomically) after startup and after every
	// checkpoint round. The store file itself is placed by the caller
	// (focus.Config.StorePath); StoreName names it inside the manifest.
	DataDir   string
	StoreName string
	// Fault arms the fault-injection middleware (see FaultConfig). The
	// zero value injects nothing; production deployments leave it zero.
	Fault FaultConfig
	// AllowNoStreams lets Start succeed with zero registered streams: an
	// elastic shard boots empty and receives its share through stream
	// handoff (/v1/admin/import).
	AllowNoStreams bool
	// HandoffTTL bounds a half-done handoff: a sealed stream auto-resumes
	// ingestion, and an unactivated import is auto-discarded, this long
	// after the step that created the state. 0 means DefaultHandoffTTL.
	HandoffTTL time.Duration
}

func (c *Config) applyDefaults() {
	if c.Window.DurationSec <= 0 {
		c.Window = focus.GenOptions{DurationSec: 240, SampleEvery: 1}
	}
	if c.Window.SampleEvery < 1 {
		c.Window.SampleEvery = 1
	}
	if c.ChunkSec <= 0 {
		c.ChunkSec = 5
	}
	if c.QueryWorkers <= 0 {
		c.QueryWorkers = 8
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.QueryWorkers
	}
	if c.CacheCapacity <= 0 {
		c.CacheCapacity = 4096
	}
	if c.CacheShards <= 0 {
		c.CacheShards = 16
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 1
	}
}

// Server is the resident query service.
type Server struct {
	sys *focus.System
	cfg Config

	limiter *parallel.Limiter
	cache   *resultCache
	// subs coalesces standing queries (POST /v1/subscribe) onto one
	// incremental evaluation per plan per watermark advance.
	subs    *subscribe.Registry
	mux     *http.ServeMux
	handler http.Handler

	ready atomic.Bool
	// draining rejects new query work with the structured "draining" error
	// while health/stats endpoints stay live, so a router can take the
	// shard out of rotation before it restarts.
	draining atomic.Bool
	// startedNS is the boot time in unix nanoseconds. Atomic because a
	// deployment exposes /healthz and /stats while Start is still tuning
	// (readiness probing), so Snapshot can race the Start-time store.
	startedNS atomic.Int64
	stopCh    chan struct{}
	stopped   sync.Once
	wg        sync.WaitGroup

	// checkpointed tracks each stream's last durable checkpoint (for the
	// manifest); manifestMu serializes whole-manifest publishes.
	checkpointMu sync.Mutex
	checkpointed map[string]ManifestStream
	manifestMu   sync.Mutex

	// handoffMu guards the live-handoff state (see handoff.go): per-stream
	// ingest controls, streams imported but not yet activated (hidden from
	// queries and /v1/streams), streams released to another shard (typed
	// unavailable), and the auto-discard timers of pending imports.
	handoffMu    sync.Mutex
	ctls         map[string]*ingestCtl
	hidden       map[string]bool
	moved        map[string]bool
	importTimers map[string]*time.Timer

	// counters
	queries      atomic.Int64
	planQueries  atomic.Int64
	trackQueries atomic.Int64
	// earlyExitQueries counts ranked queries admitted in early-exit mode
	// (a subset of planQueries, counted at the same site; cache hits
	// included, standing-query evaluations not).
	earlyExitQueries atomic.Int64
	cacheHits        atomic.Int64
	cacheMisses      atomic.Int64
	rejected         atomic.Int64
	clientErrs       atomic.Int64
	serverErrs       atomic.Int64
	ingestErrs       atomic.Int64
	checkpoints      atomic.Int64
	// checkpointErrs counts failed checkpoint rounds and failed manifest
	// publishes; ingestion continues either way (durability degrades, the
	// service does not).
	checkpointErrs  atomic.Int64
	restoredStreams atomic.Int64
	faultErrors     atomic.Int64
	faultBlackholed atomic.Int64
	// handoff counters: streams sealed, imported, released, and handoff
	// step failures (see OPERATIONS.md §"Resharding").
	seals       atomic.Int64
	imports     atomic.Int64
	releases    atomic.Int64
	handoffErrs atomic.Int64
}

// New builds a server around a system whose streams are already registered
// (but not ingested; Start handles tuning and live ingestion).
func New(sys *focus.System, cfg Config) *Server {
	cfg.applyDefaults()
	s := &Server{
		sys:          sys,
		cfg:          cfg,
		limiter:      parallel.NewLimiter(cfg.QueryWorkers, cfg.QueueDepth),
		cache:        newResultCache(cfg.CacheCapacity, cfg.CacheShards),
		subs:         subscribe.NewRegistry(),
		checkpointed: make(map[string]ManifestStream),
		stopCh:       make(chan struct{}),
		ctls:         make(map[string]*ingestCtl),
		hidden:       make(map[string]bool),
		moved:        make(map[string]bool),
		importTimers: make(map[string]*time.Timer),
	}
	s.mux = http.NewServeMux()
	// The v1 contract is the query and read surface; process lifecycle
	// (health, drain) is unversioned.
	s.mux.HandleFunc(api.PathQuery, s.handleV1Query)
	s.mux.HandleFunc(api.PathSubscribe, s.handleV1Subscribe)
	s.mux.HandleFunc(api.PathStreams, s.handleStreams)
	s.mux.HandleFunc(api.PathStats, s.handleStats)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/drain", s.handleDrain)
	// The live-handoff admin surface (see handoff.go): a reshard
	// coordinator moving streams between shards drives these.
	s.mux.HandleFunc(api.PathAdminSeal, s.handleAdminSeal)
	s.mux.HandleFunc(api.PathAdminResume, s.handleAdminResume)
	s.mux.HandleFunc(api.PathAdminExport, s.handleAdminExport)
	s.mux.HandleFunc(api.PathAdminImport, s.handleAdminImport)
	s.mux.HandleFunc(api.PathAdminActivate, s.handleAdminActivate)
	s.mux.HandleFunc(api.PathAdminRelease, s.handleAdminRelease)
	s.handler = s.mux
	if cfg.Fault.Active() {
		s.handler = newFaultInjector(cfg.Fault, s, s.mux)
	}
	return s
}

// DrainingHeader marks /healthz's 503 as a deliberate drain, for probes
// that read headers rather than bodies. The v1 surface carries the same
// information as the structured error code "draining" (with the shard name
// in Error.Shard).
const DrainingHeader = "X-Focus-Draining"

// Handler returns the HTTP handler (fault-injection middleware included,
// when armed); callers own the listener and http.Server.
func (s *Server) Handler() http.Handler { return s.handler }

// Start brings every registered stream live and returns once the service
// is ready; ingestion keeps advancing watermarks until the window is
// exhausted or Stop is called. Streams with a durable checkpoint in the
// system's store cold-start from it (RestoreLive): no re-tune, no
// re-ingest of the sealed horizon, and answers bit-identical to a process
// that never crashed — the checkpoint's own window supersedes Config.
// Window for such streams, since the resumed ingestion must replay the
// exact stream it checkpointed. Everything else is tuned (in parallel, if
// no selection is carried yet) and started fresh — the paper's
// one-worker-per-stream deployment (§5).
func (s *Server) Start() error {
	sessions := s.sys.Sessions()
	if len(sessions) == 0 && !s.cfg.AllowNoStreams {
		return fmt.Errorf("serve: no streams registered")
	}
	// Imports whose handoff never committed are not ours: purge the ones no
	// longer configured on this shard (configured ones are handled, and
	// restarted fresh, in the per-stream loop below).
	for _, name := range s.sys.PendingImports() {
		if s.sys.Session(name) == nil {
			if err := s.sys.DiscardPendingImport(name); err != nil {
				return fmt.Errorf("serve: discarding pending import of %q: %w", name, err)
			}
		}
	}
	tuneWindow := s.cfg.TuneWindow
	if tuneWindow.DurationSec <= 0 {
		tuneWindow = s.cfg.Window
	}
	workers := parallel.StreamWorkers(len(sessions), 0)
	err := parallel.ForEach(workers, len(sessions), func(i int) error {
		sess := sessions[i]
		if s.sys.PendingImport(sess.Name()) {
			// This process died between importing the stream and the
			// cluster committing the handoff: the ownership flip never
			// happened, so the stream is not ours — discard the imported
			// checkpoint and (if the stream is still configured here)
			// start it fresh as if the import never happened.
			if err := s.sys.DiscardPendingImport(sess.Name()); err != nil {
				return fmt.Errorf("serve: discarding pending import of %q: %w", sess.Name(), err)
			}
		}
		if s.sys.Persistent() && sess.HasLiveCheckpoint() {
			restored, err := sess.RestoreLive()
			if err != nil {
				return fmt.Errorf("serve: restoring %q from checkpoint: %w", sess.Name(), err)
			}
			if restored {
				s.restoredStreams.Add(1)
				s.checkpointMu.Lock()
				s.checkpointed[sess.Name()] = ManifestStream{
					Watermark: sess.Watermark(),
					Done:      sess.LiveDone(),
					Restored:  true,
				}
				s.checkpointMu.Unlock()
				return nil
			}
		}
		if sess.Selection() == nil {
			if err := sess.Tune(tuneWindow); err != nil {
				return fmt.Errorf("serve: tuning %q: %w", sess.Name(), err)
			}
		}
		if err := sess.StartLive(s.cfg.Window); err != nil {
			return fmt.Errorf("serve: starting live ingest of %q: %w", sess.Name(), err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	s.startedNS.Store(time.Now().UnixNano())
	s.publishManifestNow()
	if !s.cfg.NoBackgroundIngest {
		for _, sess := range sessions {
			s.startIngestLoop(sess)
		}
	}
	s.ready.Store(true)
	return nil
}

// startIngestLoop spawns the stream's ingester goroutine with a fresh
// ingest control (seal rendezvous + exit signal). Also used when an
// imported stream is activated mid-flight.
func (s *Server) startIngestLoop(sess *focus.Session) {
	ctl := &ingestCtl{sealReq: make(chan *sealWait), loopDone: make(chan struct{}), loopRunning: true}
	s.handoffMu.Lock()
	s.ctls[sess.Name()] = ctl
	s.handoffMu.Unlock()
	s.wg.Add(1)
	go s.ingestLoop(sess, ctl)
}

// Stop halts the background ingesters (watermarks freeze where they are) and
// waits for them to exit. Queries keep being served against the frozen
// horizon until the caller shuts the HTTP server down.
func (s *Server) Stop() {
	s.stopped.Do(func() { close(s.stopCh) })
	s.wg.Wait()
	// Pending-import discard timers must not fire into a stopped server;
	// the markers they would have cleaned up are handled at next boot.
	s.handoffMu.Lock()
	for _, t := range s.importTimers {
		t.Stop()
	}
	s.handoffMu.Unlock()
	// Standing queries cannot outlive the ingest clock that feeds them:
	// close every subscription with a typed terminal event.
	s.subs.Drain()
	if s.cfg.NoBackgroundIngest {
		// No ingester goroutines own the sessions; reclaim their generators
		// here. Callers must not AdvanceLive after Stop.
		for _, sess := range s.sys.Sessions() {
			sess.StopLive()
		}
	}
}

// StartDrain takes the server out of rotation: subsequent query requests
// are rejected with the structured "draining" error (503) while
// /v1/streams, /v1/stats and /healthz keep answering, and background
// ingestion keeps advancing watermarks.
// In-flight queries finish normally; standing queries are closed with a
// typed EventBye/ReasonDraining terminal (their evaluation is exactly the
// load draining exists to shed). Draining is one-way; restart the process
// to rejoin rotation.
func (s *Server) StartDrain() {
	s.draining.Store(true)
	s.subs.Drain()
}

// Draining reports whether StartDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// handleDrain is the admin surface of StartDrain (POST /drain): a router or
// an operator's curl takes the shard out of rotation before a restart. It
// shares the query listener and — like every endpoint of this service —
// carries no authentication, so deployments must keep the port inside the
// trust boundary (see OPERATIONS.md §7); draining is irreversible until
// the process restarts.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.clientErrs.Add(1)
		writeJSON(w, http.StatusMethodNotAllowed, api.Envelope{
			Err: api.Errorf(api.CodeBadRequest, "POST to /drain")})
		return
	}
	s.StartDrain()
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"draining"}`)
}

// ingestLoop advances one stream's live ingestion chunk by chunk until the
// window is exhausted or the server stops, checkpointing on the configured
// cadence. The loop is the session's ingester goroutine — the one vantage
// from which CheckpointLive is legal (the worker is quiescent between
// AdvanceLive calls); seal requests (stream handoff) rendezvous here
// between chunks for the same reason.
func (s *Server) ingestLoop(sess *focus.Session, ctl *ingestCtl) {
	defer s.wg.Done()
	defer func() {
		// Mark the loop gone before loopDone closes: the stream is
		// quiescent from here, and seal requests take the direct path.
		ctl.mu.Lock()
		ctl.loopRunning = false
		ctl.mu.Unlock()
		close(ctl.loopDone)
	}()
	next := sess.Watermark() + s.cfg.ChunkSec
	ckpt := s.sys.Persistent() && s.cfg.CheckpointEvery > 0
	rounds := 0
	for {
		select {
		case <-s.stopCh:
			// A deliberate stop is the moment durability pays: checkpoint
			// the frozen horizon so the next boot resumes here instead of
			// re-ingesting the window.
			if ckpt {
				s.checkpointStream(sess)
			}
			sess.StopLive()
			return
		case sw := <-ctl.sealReq:
			if !s.holdSeal(sess, ctl, sw) {
				sess.StopLive()
				return
			}
		default:
		}
		wm, err := sess.AdvanceLive(next)
		if err != nil {
			// The stream keeps serving at its frozen watermark; surface the
			// stall through /stats rather than tearing the service down.
			s.ingestErrs.Add(1)
			return
		}
		rounds++
		// The watermark advanced: standing queries may owe their
		// subscribers a delta. Kick is async and coalescing, so the
		// ingest cadence never blocks on evaluation.
		s.subs.Kick()
		if sess.LiveDone() {
			// Final checkpoint regardless of cadence: it carries the
			// finished index, so a restart serves it without any replay.
			if ckpt {
				s.checkpointStream(sess)
			}
			// The last stream to finish completes the registry: every
			// subscriber gets its final delta at the frozen vector and a
			// typed bye.
			if s.IngestDone() {
				s.subs.Complete()
			}
			return
		}
		if ckpt && rounds%s.cfg.CheckpointEvery == 0 {
			s.checkpointStream(sess)
		}
		next = wm + s.cfg.ChunkSec
		if s.cfg.IngestInterval > 0 {
			select {
			case <-s.stopCh:
				if ckpt {
					s.checkpointStream(sess)
				}
				sess.StopLive()
				return
			case sw := <-ctl.sealReq:
				if !s.holdSeal(sess, ctl, sw) {
					sess.StopLive()
					return
				}
			case <-time.After(s.cfg.IngestInterval):
			}
		}
	}
}

// checkpointStream runs one durable checkpoint round for the stream and
// republishes the manifest. Failures are counted, not fatal: the service
// keeps ingesting and serving at full consistency; only crash-recovery
// freshness degrades (the next cold start replays a longer tail).
func (s *Server) checkpointStream(sess *focus.Session) {
	if err := sess.CheckpointLive(); err != nil {
		s.checkpointErrs.Add(1)
		return
	}
	s.checkpoints.Add(1)
	s.checkpointMu.Lock()
	entry := s.checkpointed[sess.Name()]
	entry.Watermark = sess.Watermark()
	entry.Done = sess.LiveDone()
	s.checkpointed[sess.Name()] = entry
	s.checkpointMu.Unlock()
	s.publishManifestNow()
}

// IngestDone reports whether every stream has ingested its whole window.
func (s *Server) IngestDone() bool {
	for _, sess := range s.sys.Sessions() {
		if !sess.LiveDone() {
			return false
		}
	}
	return true
}

// resolveVector resolves a request's target streams (empty = every
// registered stream) and the watermark vector the execution is pinned to:
// each stream's watermark is snapshotted at admission unless the caller
// pinned it explicitly through `pins` (cursor paging does this to keep
// pages coherent while ingest advances, and the router passes merged
// vectors through). Every query form shares this resolution, so the
// surfaces can never diverge on snapshot semantics.
//
// A pin ahead of the stream's current watermark is rejected (pin_ahead):
// the horizon is not sealed yet, so the answer would silently change as
// ingest catches up — and, worse, it would be cached under the future
// vector's key and served stale once a snapshot legitimately lands there.
// Pins at or below the watermark stay valid forever (watermarks are
// monotonic). A pin naming a stream outside the query's target set is
// rejected too: silently dropping it (a typo, a removed stream) would
// quietly unpin the read — the exact incoherence pinning exists to
// prevent.
func (s *Server) resolveVector(names []string, pins api.WatermarkVector) ([]string, api.WatermarkVector, *api.Error) {
	if len(names) == 0 {
		for _, sess := range s.sys.Sessions() {
			// Streams mid-handoff (imported, not yet activated) are not
			// served here yet; the implicit all-streams expansion must not
			// sweep them in.
			if s.isHidden(sess.Name()) {
				continue
			}
			names = append(names, sess.Name())
		}
	}
	vector := make(api.WatermarkVector, len(names))
	for _, n := range names {
		sess := s.sys.Session(n)
		if sess == nil {
			if s.isMoved(n) {
				return nil, nil, api.Errorf(api.CodeUnavailable,
					"stream %q moved to another shard", n)
			}
			return nil, nil, api.Errorf(api.CodeUnknownStream, "unknown stream %q", n)
		}
		if s.isHidden(n) {
			// Imported but not yet activated: ownership has not flipped to
			// this shard. Typed and retryable — the flip is in flight.
			return nil, nil, api.Errorf(api.CodeNotReady,
				"stream %q is mid-handoff on this shard", n)
		}
		wm := sess.Watermark()
		if at, ok := pins[n]; ok {
			if at > wm {
				return nil, nil, api.Errorf(api.CodePinAhead,
					"stream %q pinned at %g beyond its ingest watermark %g", n, at, wm)
			}
			vector[n] = at
		} else {
			vector[n] = wm
		}
	}
	for n := range pins {
		if _, ok := vector[n]; !ok {
			return nil, nil, api.Errorf(api.CodeBadRequest,
				"pinned stream %q is not among the query's streams", n)
		}
	}
	return names, vector, nil
}

// StreamStatus is one entry of the /v1/streams payload — the shared wire
// type, shard-annotated only by a router.
type StreamStatus = api.StreamStatus

func (s *Server) handleStreams(w http.ResponseWriter, r *http.Request) {
	var out []StreamStatus
	for _, sess := range s.sys.Sessions() {
		// A stream imported but not activated is not owned here yet: the
		// router must not see two shards report it before the flip.
		if s.isHidden(sess.Name()) {
			continue
		}
		spec := sess.Stream().Spec
		st := sess.IngestStats()
		status := StreamStatus{
			Name:        spec.Name,
			Type:        string(spec.Type),
			Location:    spec.Location,
			Watermark:   sess.Watermark(),
			WindowSec:   s.cfg.Window.DurationSec,
			IngestDone:  sess.LiveDone(),
			Frames:      st.Frames,
			Sightings:   st.Sightings,
			CNNInfers:   st.CNNInferences,
			DedupRate:   st.DedupRate(),
			Clusters:    st.Clusters,
			IngestGPUMS: st.IngestGPUMS,
		}
		if ix := sess.Index(); ix != nil {
			status.Clusters = ix.NumClusters()
		}
		if sel := sess.Selection(); sel != nil {
			status.Model = sel.Chosen.Model.Name
			status.K = sel.Chosen.K
			status.T = sel.Chosen.T
		}
		status.Epoch = s.sys.StreamEpoch(spec.Name)
		out = append(out, status)
	}
	writeJSON(w, http.StatusOK, out)
}

// Stats is the /v1/stats payload.
type Stats struct {
	UptimeSec   float64 `json:"uptime_sec"`
	Ready       bool    `json:"ready"`
	Draining    bool    `json:"draining"`
	Queries     int64   `json:"queries"`
	PlanQueries int64   `json:"plan_queries"`
	// TrackQueries counts temporal (tracks-form) queries.
	TrackQueries int64 `json:"track_queries"`
	// EarlyExitQueries counts ranked queries admitted in early-exit mode, a
	// subset of PlanQueries — the operator's gauge for how much traffic
	// has opted into the approximate mode (see OPERATIONS.md).
	EarlyExitQueries int64 `json:"early_exit_queries"`
	CacheHits        int64 `json:"cache_hits"`
	CacheMisses      int64 `json:"cache_misses"`
	CacheEntries     int   `json:"cache_entries"`
	Rejected         int64 `json:"rejected"`
	ClientErrors     int64 `json:"client_errors"`
	ServerErrors     int64 `json:"server_errors"`
	IngestErrors     int64 `json:"ingest_errors"`
	// Checkpoints counts durable checkpoint rounds; CheckpointErrors
	// failed rounds (including manifest publish failures);
	// RestoredStreams how many streams this process cold-started from a
	// checkpoint rather than ingesting from scratch.
	Checkpoints      int64 `json:"checkpoints"`
	CheckpointErrors int64 `json:"checkpoint_errors"`
	RestoredStreams  int64 `json:"restored_streams"`
	// Subscriptions counts standing queries ever accepted on /v1/subscribe;
	// SubscriptionsActive the ones currently streaming;
	// SubscriptionGroups the coalescing groups they share. DeltaEvents
	// counts delta events delivered to subscriber queues and DeltaDrops
	// subscribers shed for falling behind (see OPERATIONS.md §9).
	// SubscribeEvals counts coalesced incremental evaluations (the
	// denominator of the cost-sharing claim: N overlapping subscribers,
	// ~1 evaluation per advance) and SubscribeEvalErrors the failed ones.
	Subscriptions       int64 `json:"subscriptions"`
	SubscriptionsActive int64 `json:"subscriptions_active"`
	SubscriptionGroups  int   `json:"subscription_groups"`
	DeltaEvents         int64 `json:"delta_events"`
	DeltaDrops          int64 `json:"delta_drops"`
	SubscribeEvals      int64 `json:"subscribe_evals"`
	SubscribeEvalErrors int64 `json:"subscribe_eval_errors"`
	// HandoffSeals, HandoffImports and HandoffReleases count live-handoff
	// steps this shard performed (source seals, destination imports,
	// source releases); HandoffErrors counts failed handoff steps,
	// including TTL-expired imports rolled back. See OPERATIONS.md
	// §"Resharding".
	HandoffSeals    int64 `json:"handoff_seals"`
	HandoffImports  int64 `json:"handoff_imports"`
	HandoffReleases int64 `json:"handoff_releases"`
	HandoffErrors   int64 `json:"handoff_errors"`
	// FaultErrors and FaultBlackholed count injected failures (zero
	// unless the fault-injection middleware is armed).
	FaultErrors     int64              `json:"fault_errors"`
	FaultBlackholed int64              `json:"fault_blackholed"`
	InFlight        int                `json:"in_flight"`
	Waiting         int                `json:"waiting"`
	Watermarks      map[string]float64 `json:"watermarks"`
	IngestGPUMS     float64            `json:"ingest_gpu_ms"`
	QueryGPUMS      float64            `json:"query_gpu_ms"`
	QueryGPUOps     int64              `json:"query_gpu_ops"`
}

// Snapshot returns the server's current counters (also served at
// /v1/stats).
func (s *Server) Snapshot() Stats {
	meter := s.sys.GPUMeter()
	subs := s.subs.Stats()
	var uptime float64
	if ns := s.startedNS.Load(); ns > 0 {
		uptime = time.Since(time.Unix(0, ns)).Seconds()
	}
	return Stats{
		UptimeSec:           uptime,
		Ready:               s.ready.Load(),
		Draining:            s.draining.Load(),
		Queries:             s.queries.Load(),
		PlanQueries:         s.planQueries.Load(),
		TrackQueries:        s.trackQueries.Load(),
		EarlyExitQueries:    s.earlyExitQueries.Load(),
		CacheHits:           s.cacheHits.Load(),
		CacheMisses:         s.cacheMisses.Load(),
		CacheEntries:        s.cache.len(),
		Rejected:            s.rejected.Load(),
		ClientErrors:        s.clientErrs.Load(),
		ServerErrors:        s.serverErrs.Load(),
		IngestErrors:        s.ingestErrs.Load(),
		Checkpoints:         s.checkpoints.Load(),
		CheckpointErrors:    s.checkpointErrs.Load(),
		RestoredStreams:     s.restoredStreams.Load(),
		Subscriptions:       subs.Subscriptions,
		SubscriptionsActive: subs.Active,
		SubscriptionGroups:  subs.Groups,
		DeltaEvents:         subs.DeltaEvents,
		DeltaDrops:          subs.Drops,
		SubscribeEvals:      subs.Evals,
		SubscribeEvalErrors: subs.EvalErrors,
		HandoffSeals:        s.seals.Load(),
		HandoffImports:      s.imports.Load(),
		HandoffReleases:     s.releases.Load(),
		HandoffErrors:       s.handoffErrs.Load(),
		FaultErrors:         s.faultErrors.Load(),
		FaultBlackholed:     s.faultBlackholed.Load(),
		InFlight:            s.limiter.InFlight(),
		Waiting:             s.limiter.Waiting(),
		Watermarks:          s.sys.Watermarks(),
		IngestGPUMS:         meter.IngestMS,
		QueryGPUMS:          meter.QueryMS,
		QueryGPUOps:         meter.QueryOps,
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Snapshot())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	// Draining wins over "not ready": a drain issued mid-boot (a rollout
	// reversing itself) must still read as deliberate, marker and all, or
	// tooling would count it as an outage.
	if s.draining.Load() {
		// Distinguishable from "down" and from "not ready": the router keeps
		// the shard's stream ownership but stops routing queries to it. The
		// router reads the body's status field; the header stays for pre-v1
		// tooling.
		w.Header().Set(DrainingHeader, "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	if !s.ready.Load() {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"not ready"}`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
