package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"focus/api"
)

// maxUnaccounted is the share of a round trip, at the median, that the
// replayed layers may overshoot the observed spans by before a traced run
// fails.
const maxUnaccounted = 0.15

// result is one run of one workload.
type result struct {
	workload  string
	metrics   []metric
	attempted int
	failed    int
	errs      []string
	notes     []string
}

func (r *result) correct() bool { return r.failed == 0 }

// run is the state of one workload run between its phases.
type run struct {
	workload string
	seed     uint64
	sz       sizes
	trace    bool
	rec      *recorder
	env      *env

	setupSec   []float64
	ingests    [][]*ingestPhase // per set-up, per shard
	restoreSec []float64
	logs       []*clientLog
	readWall   float64
	stats      map[string]float64 // /v1/stats after the timed phase, summed over shards
	routerStat map[string]float64
	rssMB      float64
	allocKB    float64
	// earlyGPU and exactGPU are the GPU-ms the kept early-exit requests
	// cost on a fresh twin as served, and on another fresh twin run exact.
	earlyGPU, exactGPU float64
	earlyN             int
	layers             []*layerTimes
	// replayedReq holds the request ids (root span ids) whose layers were
	// replayed and placed.
	replayedReq map[int64]bool
	deltaApply  []float64 // ms
	// extra counts the operations no client's log holds: the warm-up, the
	// standing queries' states, the reads after the restore.
	extra clientLog
}

// runWorkload runs one workload once: set up (several times over, for a
// steady setup_s), time, stop, check every kept answer on the twin, and
// report. A traced run sets up once and reports per-layer metrics only.
func runWorkload(workload string, seed uint64, sz sizes, trace bool) (*result, error) {
	r := &run{workload: workload, seed: seed, sz: sz, trace: trace, replayedReq: make(map[int64]bool)}
	if trace {
		r.rec = newRecorder(workload)
		r.sz.setups = 1
	}
	for i := 0; i < r.sz.setups; i++ {
		if r.env != nil {
			r.env.close()
		}
		t0 := time.Now()
		e, err := setUp(workload, seed, r.sz, r.rec)
		if err != nil {
			return nil, err
		}
		r.setupSec = append(r.setupSec, time.Since(t0).Seconds())
		r.env = e
		if workload != liveIngest {
			r.ingests = append(r.ingests, e.ingests)
			r.restoreSec = append(r.restoreSec, e.restoreSec)
		}
	}
	defer func() { r.env.close() }()

	var err error
	if r.logs, r.readWall, err = r.env.timed(); err != nil {
		return nil, err
	}
	r.rssMB = peakRSSMB()
	if err := r.collectStats(); err != nil {
		return nil, err
	}
	if workload == liveIngest {
		// The ingest was the timed phase; now the stop, the store size and
		// the cold start, several times for a steady restore_s.
		r.ingests = append(r.ingests, r.env.ingests)
		before := lastKept(r.logs, r.sz.readsStep)
		for i := 0; i < r.sz.setups; i++ {
			if err := r.env.restart(); err != nil {
				return nil, err
			}
			r.restoreSec = append(r.restoreSec, r.env.restoreSec)
		}
		restoreCheck(r.env.url, seed, before, &r.extra)
	}
	if err := r.verify(); err != nil {
		return nil, err
	}
	if trace {
		r.allocKB = r.handlerAllocKB()
		if err := r.earlyExitCost(); err != nil {
			return nil, err
		}
	}
	return r.report()
}

// lastKept returns each client's last n kept exchanges.
func lastKept(logs []*clientLog, n int) []*exchange {
	var out []*exchange
	for _, l := range logs {
		out = append(out, l.kept[max(0, len(l.kept)-n):]...)
	}
	return out
}

// collectStats reads /v1/stats from every serving node (and the router)
// and sums the counters by key.
func (r *run) collectStats() error {
	r.stats = make(map[string]float64)
	for _, n := range r.env.nodes {
		st, err := queryStats(n.url)
		if err != nil {
			return err
		}
		for k, v := range st {
			r.stats[k] += v
		}
	}
	if r.env.cluster != nil {
		var err error
		if r.routerStat, err = queryStats(r.env.cluster.url); err != nil {
			return err
		}
	}
	return nil
}

// handlerAllocKB measures what one request allocates inside the handler:
// kept requests are sent again, in memory and from one goroutine, straight
// into the first node's handler — once to fill the result cache, then
// once more around a MemStats reading.
func (r *run) handlerAllocKB() float64 {
	h := r.env.nodes[0].srv.Handler()
	var bodies []string
	for _, x := range r.logs[0].kept {
		if len(bodies) == 200 {
			break
		}
		req := x.entry.Req
		if r.env.cluster != nil {
			req.Streams = r.env.nodes[0].streams
		}
		bodies = append(bodies, string(mustJSON(&req)))
	}
	if len(bodies) == 0 {
		return 0
	}
	send := func(body string) {
		req := httptest.NewRequest(http.MethodPost, api.PathQuery, strings.NewReader(body))
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
	for _, b := range bodies {
		send(b) // the measured pass below then meets a result cache that holds them all
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range bodies {
		send(b)
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(len(bodies))
}

// verify builds the twin and replays every kept exchange on it, counting
// a mismatch as a failed operation of the client that was served it. In a
// traced run the replay's layer timings are placed under the spans that
// were observed.
func (r *run) verify() error {
	twin, err := r.env.twinFor()
	if err != nil {
		return err
	}
	defer twin.Close()
	v := newVerifier(twin)
	v.exactCost = r.workload == coldScan
	v.subsetEarlyExit = r.env.cluster != nil

	var idx *spanIndex
	if r.trace {
		r.rec.spans = linkLegs(r.rec.spans)
		idx = indexSpans(r.rec.spans)
	}
	// The warm-up came first on the server, so it comes first on the twin:
	// the verdict caches then meet the timed requests in the same state.
	for _, x := range r.env.warm {
		r.extra.attempted++
		if _, err := v.checkExchange(x); err != nil {
			r.extra.fail("warm-up %s %q: %v", x.entry.Kind, x.entry.Req.Expr, err)
		}
	}

	last := make(map[string][]api.Item)
	for _, l := range r.logs {
		for _, x := range l.kept {
			rep, err := v.checkExchange(x)
			if err != nil {
				l.fail("%s %q [%g,%g): %v", x.entry.Kind, x.entry.Req.Expr, x.entry.Req.Start, x.entry.Req.End, err)
				continue
			}
			if !r.trace || rep == nil {
				continue
			}
			r.traceExchange(idx, v, x, rep)
			if rep.want.Form == api.FormRanked && x.second == nil {
				if prev, ok := last[rep.want.Expr]; ok {
					r.deltaApply = append(r.deltaApply, timeDeltaApply(prev, rep.want))
				}
				last[rep.want.Expr] = rep.want.Items
			}
		}
	}
	// Standing queries: the state reassembled from the deltas must be the
	// one-shot answer at the vector the last delta reached.
	for _, phases := range r.ingests[len(r.ingests)-1:] {
		for _, p := range phases {
			for _, st := range p.subStates {
				r.extra.attempted++
				got := &api.QueryResponse{Expr: st.hello.Expr, Form: st.hello.Form, Watermarks: st.vector,
					TopK: st.hello.TopK, Kx: st.hello.Kx, Start: st.hello.Start, End: st.hello.End,
					MaxClusters: st.hello.MaxClusters, Mode: st.hello.Mode, Items: st.items, TotalItems: len(st.items)}
				if _, err := v.check(got, 0, 0, false); err != nil {
					r.extra.fail("standing query at %v: %v", st.vector, err)
				}
			}
		}
	}
	return nil
}

// earlyExitCost prices the early-exit mode: the kept early-exit requests
// are run in order on a fresh twin as they were served, and on a second
// fresh twin in exact mode, and the two GPU meters are read. Fresh twins,
// because a verdict either run left cached would make the other free.
func (r *run) earlyExitCost() error {
	const maxRequests = 60
	var reqs []*api.QueryResponse
	for _, l := range r.logs {
		for _, x := range l.kept {
			if x.entry.Kind == kEarly && len(reqs) < maxRequests {
				reqs = append(reqs, x.first)
			}
		}
	}
	r.earlyN = len(reqs)
	for _, mode := range []string{api.ModeEarlyExit, ""} {
		twin, err := r.env.twinFor()
		if err != nil {
			return err
		}
		v := newVerifier(twin)
		for _, served := range reqs {
			echo := *served
			echo.Mode = mode
			if _, err := v.replay(&echo); err != nil {
				twin.Close()
				return fmt.Errorf("pricing early exit: %w", err)
			}
		}
		gpu := twin.GPUMeter().QueryMS
		twin.Close()
		if mode == "" {
			r.exactGPU = gpu
		} else {
			r.earlyGPU = gpu
		}
	}
	return nil
}

// timeDeltaApply times the api layer's delta arithmetic on two
// consecutive answers to one ranked expression: the diff a server
// computes and the application a subscriber performs.
func timeDeltaApply(prev []api.Item, next *api.QueryResponse) float64 {
	t0 := time.Now()
	added, removed := api.DiffItems(prev, next.Items)
	_, _ = api.ApplyDeltaItems(prev, &api.Delta{Items: added, RemovedItems: removed, TotalItems: len(next.Items)})
	return float64(time.Since(t0)) / 1e6
}

// spanIndex finds the observed spans under a client span.
type spanIndex struct {
	byID     map[int64]span
	children map[int64][]span
}

func indexSpans(spans []span) *spanIndex {
	idx := &spanIndex{byID: make(map[int64]span, len(spans)), children: make(map[int64][]span)}
	for _, s := range spans {
		idx.byID[s.ID] = s
		if s.Parent != 0 {
			idx.children[s.Parent] = append(idx.children[s.Parent], s)
		}
	}
	return idx
}

func (idx *spanIndex) child(parent int64, name string) (span, bool) {
	for _, s := range idx.children[parent] {
		if s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

// traceExchange places the replayed layers of one verified exchange under
// its observed spans.
func (r *run) traceExchange(idx *spanIndex, v *verifier, x *exchange, rep *replayed) {
	for _, h := range []struct {
		resp *api.QueryResponse
		id   int64
	}{{x.first, x.span}, {x.second, x.span2}} {
		if h.resp == nil {
			continue
		}
		lt := &layerTimes{rep: rep, executed: !h.resp.Cached}
		measureCodec(h.resp, lt)
		if lt.executed && r.sz.pace > 0 {
			lt.stallNS = int64(h.resp.LatencyMS * float64(r.sz.pace))
		}
		r.layers = append(r.layers, lt)
		root, ok := idx.byID[h.id]
		if !ok {
			continue
		}
		r.replayedReq[root.ID] = true
		placeAtEnd(r.rec, root, "api.decode", lt.decodeNS)
		if handler, ok := idx.child(root.ID, "serve.handler"); ok {
			placeServed(r.rec, handler, lt)
			continue
		}
		rh, ok := idx.child(root.ID, "router.handler")
		if !ok {
			continue
		}
		for _, legSpan := range idx.children[rh.ID] {
			r.traceLeg(idx, v, legSpan)
		}
	}
}

// traceLeg replays one shard's reply on the twin (which holds every
// shard's streams) and places its layers under that shard's handler span.
func (r *run) traceLeg(idx *spanIndex, v *verifier, legSpan span) {
	handler, ok := idx.child(legSpan.ID, "serve.handler")
	if !ok {
		return
	}
	body := r.env.capture.body(legSpan.ID)
	var part api.QueryResponse
	if body == nil || json.Unmarshal(body, &part) != nil {
		return
	}
	rep, err := v.replay(&part)
	if err != nil {
		return
	}
	lt := &layerTimes{rep: rep, executed: !part.Cached}
	measureCodec(&part, lt)
	r.layers = append(r.layers, lt)
	placeServed(r.rec, handler, lt)
}

// report turns the run into metrics.
func (r *run) report() (*result, error) {
	res := &result{workload: r.workload}
	for _, l := range append(r.logs, &r.extra) {
		res.attempted += l.attempted
		res.failed += l.failed
		res.errs = append(res.errs, l.errs...)
	}
	if r.trace {
		res.metrics = r.perLayer()
		res.notes = append(res.notes, r.layerShares())
		for _, m := range res.metrics {
			// The breakdown is only worth reading while the replayed layers
			// fit inside the spans that were observed.
			if m.Name == "trace.unaccounted_share" && m.Value > maxUnaccounted {
				res.failed++
				res.errs = append(res.errs, fmt.Sprintf("trace.unaccounted_share %.3f exceeds %.2f: the replayed layer timings no longer fit the served spans", m.Value, maxUnaccounted))
			}
		}
		path := filepath.Join(".bench_build", "trace-"+r.workload+".jsonl")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		if err := r.rec.writeJSONL(path); err != nil {
			return nil, err
		}
	} else {
		res.metrics = r.endToEnd()
	}
	return res, nil
}
