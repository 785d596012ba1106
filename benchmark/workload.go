package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"focus"
)

// Workload names; BENCHMARK.json lists the same four.
const (
	hotRead    = "hot_read"
	coldScan   = "cold_scan"
	liveIngest = "live_ingest"
	routedMiss = "routed_miss"
)

var workloadNames = []string{hotRead, coldScan, liveIngest, routedMiss}

// numClients is the number of closed-loop clients: one per core of the
// two-core box the sizes were calibrated on, so that nothing queues.
const numClients = 2

// sizes fixes the work of one run. Runs are fixed-work: the request
// sequence is a function of the seed and these sizes alone, so counts
// (GPU-ms, inferences, bytes) repeat exactly and only times vary.
type sizes struct {
	corpusSec float64       // stream time ingested per stream
	chunkSec  float64       // stream time sealed and checkpointed per ingest step
	pace      time.Duration // real time per simulated GPU-ms while serving; 0 = unpaced
	shards    int           // 1: one focus-serve; 2: two shards behind a router
	setups    int           // set-ups per run; setup_s is their median

	poolSize  int     // hot_read: distinct requests in the pool
	windowSec float64 // hot_read: length of the eight windows
	requests  int     // hot_read, routed_miss: mix entries per client
	minWindow float64 // routed_miss: requests cover a window of minWindow to 2×minWindow
	sliceSec  float64 // cold_scan: stream time per slice
	slices    int     // cold_scan: slices per client
	readsStep int     // live_ingest: mix entries per ingest step
	lookback  float64 // live_ingest: reads cover [t-lookback, t)
	maxReplay int     // exchanges per client kept for the answer check (0 = all)
}

// entries is the number of mix entries each client sends.
func (sz sizes) entries() int {
	switch {
	case sz.slices > 0:
		return sz.slices * len(mixBlock)
	case sz.readsStep > 0:
		return int(sz.corpusSec/sz.chunkSec+0.5) * sz.readsStep / numClients
	}
	return sz.requests
}

// keepStride is the smallest stride that keeps at most limit of n
// exchanges and shares no factor with the length of the mix block: a
// stride of 4 or 5 would only ever land on the same few kinds.
func keepStride(n, limit int) int {
	stride := max(1, (n+limit-1)/limit)
	for stride%2 == 0 || stride%5 == 0 {
		stride++
	}
	return stride
}

// sizesFor scales a workload's work to the requested measuring time. The
// per-second quotas were calibrated once, at the commit that added the
// benchmark, so that the timed phase lasts about `seconds` there; a later
// commit does the same work in however long it takes.
func sizesFor(workload string, seconds float64) (sizes, error) {
	scale := func(perSecond float64) int { return max(1, int(math.Round(perSecond*seconds))) }
	switch workload {
	case hotRead:
		return sizes{corpusSec: 300, chunkSec: 15, shards: 1, setups: 3,
			poolSize: 64, windowSec: 60, requests: scale(2000), maxReplay: 2000}, nil
	case coldScan:
		return sizes{corpusSec: 10 * float64(scale(6)), chunkSec: 15, shards: 1, setups: 3, pace: time.Millisecond,
			sliceSec: 10, slices: scale(6)}, nil
	case liveIngest:
		return sizes{corpusSec: 5 * float64(scale(10)), chunkSec: 5, shards: 1, setups: 3,
			readsStep: len(mixBlock), lookback: 120, maxReplay: 150}, nil
	case routedMiss:
		return sizes{corpusSec: 300, chunkSec: 15, shards: 2, setups: 3,
			requests: scale(46), minWindow: 60, maxReplay: 100}, nil
	}
	return sizes{}, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
}

// env is a workload ready to be timed: its corpus ingested, stopped,
// restored from the store and (for routed_miss) fronted by a router.
type env struct {
	workload string
	seed     uint64
	sz       sizes
	rec      *recorder
	capture  *legCapture
	dir      string
	nodes    []*node
	cluster  *cluster
	url      string
	ingests  []*ingestPhase
	// restoreSec is focus.New on the closed stores to servers ready.
	restoreSec float64
	warm       []*exchange
}

func (e *env) storePath(shard int) string {
	return filepath.Join(e.dir, fmt.Sprintf("shard-%d.kv", shard))
}

func (e *env) close() {
	if e.cluster != nil {
		e.cluster.stop()
	} else {
		for _, n := range e.nodes {
			n.stop()
		}
	}
	e.nodes, e.cluster = nil, nil
	os.RemoveAll(e.dir)
}

// placement returns the streams of each node.
func (e *env) placement() [][]string { return shardStreams(e.sz.shards) }

// ingest brings up fresh nodes on empty stores, one per shard; live_ingest
// stops here and ingests inside its timed phase.
func (e *env) ingest() error {
	for i, streams := range e.placement() {
		n, err := startNode(focusConfig(e.storePath(i), 0), streams, e.sz.corpusSec, e.sz.chunkSec, e.rec)
		if err != nil {
			return err
		}
		e.nodes = append(e.nodes, n)
	}
	e.url = e.nodes[0].url
	if e.workload == liveIngest {
		return nil
	}
	for _, n := range e.nodes {
		p, err := ingestLive(n, e.sz.corpusSec, e.sz.chunkSec, nil, nil)
		if err != nil {
			return err
		}
		e.ingests = append(e.ingests, p)
	}
	return nil
}

// restart stops every node, records the store sizes, and cold-starts the
// serving nodes from the stores.
func (e *env) restart() error {
	old := e.nodes
	e.nodes = nil
	for i, n := range old {
		if err := n.stop(); err != nil {
			return fmt.Errorf("closing shard %d: %w", i, err)
		}
		size, err := storeSize(e.storePath(i))
		if err != nil {
			return err
		}
		e.ingests[i].storeBytes = size
	}
	t0 := time.Now()
	for i, streams := range e.placement() {
		n, err := restoreNode(focusConfig(e.storePath(i), e.sz.pace), streams, e.sz.corpusSec, e.sz.chunkSec, e.rec)
		if err != nil {
			return fmt.Errorf("restoring shard %d: %w", i, err)
		}
		e.nodes = append(e.nodes, n)
	}
	e.restoreSec = time.Since(t0).Seconds()
	e.url = e.nodes[0].url
	if e.sz.shards > 1 {
		c, err := startRouter(e.nodes, e.rec, e.capture)
		if err != nil {
			return err
		}
		e.cluster, e.url = c, c.url
	}
	return nil
}

// setUp is process start to ready-to-time for one workload.
func setUp(workload string, seed uint64, sz sizes, rec *recorder) (*env, error) {
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	e := &env{workload: workload, seed: seed, sz: sz, rec: rec, dir: dir}
	if rec != nil {
		e.capture = &legCapture{bodies: make(map[int64][]byte)}
	}
	err = e.ingest()
	if err == nil && workload != liveIngest {
		if err = e.restart(); err == nil {
			err = e.warmUp()
		}
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	return e, nil
}

// warmUp fills the caches a workload starts from. hot_read requests every
// pool entry once, so that its timed run is all result-cache hits;
// routed_miss runs every expression once over the whole corpus, so that
// the GT-CNN verdicts are cached and its timed misses cost no GPU.
func (e *env) warmUp() error {
	var entries []entry
	switch e.workload {
	case hotRead:
		entries = hotPool(e.sz.poolSize, e.sz.corpusSec, e.sz.windowSec)
	case routedMiss:
		for _, expr := range classExprs {
			entries = append(entries, shape(kFrames, expr))
		}
		for _, expr := range planExprs {
			entries = append(entries, shape(kRanked, expr))
		}
		for _, expr := range trackExprs {
			entries = append(entries, shape(kTracks, expr))
		}
	}
	d := newDriver(e.url, e.seed, numClients, nil)
	defer d.tr.CloseIdleConnections()
	for _, en := range entries {
		d.do(en, mustMiss)
	}
	if d.log.failed > 0 {
		return fmt.Errorf("warm-up: %d of %d requests failed: %v", d.log.failed, d.log.attempted, d.log.errs)
	}
	e.warm = d.log.kept
	return nil
}

// timed runs the workload's timed phase with numClients closed-loop
// clients and returns their logs and the wall time of the read phases.
func (e *env) timed() ([]*clientLog, float64, error) {
	drivers := make([]*driver, numClients)
	for i := range drivers {
		drivers[i] = newDriver(e.url, e.seed, i, e.rec)
		defer drivers[i].tr.CloseIdleConnections()
		if e.sz.maxReplay > 0 {
			drivers[i].keepEvery = keepStride(e.sz.entries(), e.sz.maxReplay)
		}
	}
	var wall float64
	switch e.workload {
	case hotRead:
		pool := hotPool(e.sz.poolSize, e.sz.corpusSec, e.sz.windowSec)
		wall = runClients(numClients, func(i int) {
			r := rand.New(rand.NewSource(int64(e.seed)*7 + int64(i)))
			zipf := rand.NewZipf(r, 1.1, 1, uint64(len(pool)-1))
			for j := 0; j < e.sz.requests; j++ {
				drivers[i].do(pool[zipf.Uint64()], mustHit)
			}
		})
	case coldScan:
		// Client c owns streams 2c and 2c+1, so each stream's clusters are
		// verified by one client only and GPU counts repeat exactly.
		wall = runClients(numClients, func(i int) {
			g := newMixGen(e.seed, i)
			own := streamNames[2*i : 2*i+2]
			for s := 0; s < e.sz.slices; s++ {
				start := float64(s) * e.sz.sliceSec
				for _, en := range g.coldSlice(own, start, start+e.sz.sliceSec) {
					drivers[i].do(en, mustMiss)
				}
			}
		})
	case routedMiss:
		wall = runClients(numClients, func(i int) {
			g := newMixGen(e.seed, i)
			for j := 0; j < e.sz.requests; j++ {
				drivers[i].do(g.routedWindow(g.next(), e.sz.corpusSec, e.sz.minWindow), mustMiss)
			}
		})
	case liveIngest:
		// Stepped, not concurrent: one goroutine is ingest clock and reader
		// in turn, so that reads and writes do not race for the two cores
		// and each is timed on its own. The clients take turns by step.
		gens := make([]*mixGen, numClients)
		for i := range gens {
			gens[i] = newMixGen(e.seed, i)
		}
		step := 0
		p, err := ingestLive(e.nodes[0], e.sz.corpusSec, e.sz.chunkSec, e.rec, func(t float64) {
			i := step % numClients
			step++
			r0 := time.Now()
			for j := 0; j < e.sz.readsStep; j++ {
				drivers[i].do(gens[i].next().window(math.Max(0, t-e.sz.lookback), t), anyCache)
			}
			wall += time.Since(r0).Seconds()
		})
		if err != nil {
			return nil, 0, err
		}
		e.ingests = []*ingestPhase{p}
	}
	logs := make([]*clientLog, numClients)
	for i, d := range drivers {
		logs[i] = d.log
	}
	return logs, wall, nil
}

// restoreCheck re-asks, of the restored server, what the last responses
// before the stop answered, pinned to the vectors they echo: a cold start
// must not change an answer.
func restoreCheck(url string, seed uint64, before []*exchange, log *clientLog) {
	d := newDriver(url, seed, numClients+1, nil)
	defer d.tr.CloseIdleConnections()
	d.log = log
	for _, x := range before {
		req := x.entry.Req
		req.At = x.first.Watermarks
		kept := len(d.log.kept)
		d.do(entry{Kind: x.entry.Kind, Req: req}, anyCache)
		if len(d.log.kept) == kept {
			continue // the request failed and was counted
		}
		if err := sameAnswer(d.log.kept[kept].first, x.first, false); err != nil {
			d.log.fail("after restore, %s %q: %v", x.entry.Kind, req.Expr, err)
		}
	}
}

// twinFor builds the reference system for an env's corpus.
func (e *env) twinFor() (*focus.System, error) {
	return newTwin(e.sz.corpusSec, e.nodes...)
}
