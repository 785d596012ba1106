package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"focus"
	"focus/api"
	"focus/client"
	"focus/internal/router"
	"focus/internal/serve"
)

// streamNames is the corpus every workload ingests: three traffic cameras
// and one surveillance camera, sorted (shards are filled round-robin over
// this order).
var streamNames = []string{"auburn_c", "city_a_d", "jacksonh", "lausanne"}

const (
	tuneWindowSec = 60
	simulatedGPUs = 10
	queryWorkers  = 2
	queueDepth    = 8
)

// spanHeader carries a client span's id to the handler wrapper, which
// records a server-side span under it; requests without it are not traced.
const spanHeader = "X-Bench-Span"

// corpusSeed fixes the recorded video. The corpus is the benchmark's data
// set, the same on every run; --seed decides what is asked of it, and in
// what order. (A corpus drawn from --seed would move every GPU and byte
// count by tens of percent from seed to seed, and leaves the sparse
// surveillance stream with nothing to tune on for some seeds.)
const corpusSeed = 1

func focusConfig(storePath string, pace time.Duration) focus.Config {
	return focus.Config{
		Seed:        corpusSeed,
		Targets:     focus.Targets{Recall: 0.9, Precision: 0.9},
		NumGPUs:     simulatedGPUs,
		StorePath:   storePath,
		TuneOptions: serve.QuickTuneOptions(),
		GPUPace:     pace,
	}
}

func genWindow(sec float64) focus.GenOptions {
	return focus.GenOptions{DurationSec: sec, SampleEvery: 1}
}

// node is one focus-serve in this process: a system, the server around it
// and a loopback HTTP listener in front of the server's handler. The
// harness is the ingest clock (NoBackgroundIngest), so every watermark
// advance happens where it can be timed.
type node struct {
	sys     *focus.System
	srv     *serve.Server
	hs      *http.Server
	url     string
	streams []string
	// startSec is how long serve.Start took: the tuning sweep on a fresh
	// store, the checkpoint restore on a populated one.
	startSec float64
}

// startNode builds a system over the named streams and starts a server on
// it. With a populated store the streams cold-start from their
// checkpoints; otherwise they are tuned and begin live ingestion at
// watermark zero.
func startNode(cfg focus.Config, streams []string, corpusSec, chunkSec float64, rec *recorder) (*node, error) {
	sys, err := focus.New(cfg)
	if err != nil {
		return nil, err
	}
	for _, name := range streams {
		if _, err := sys.AddTable1Stream(name); err != nil {
			sys.Close()
			return nil, err
		}
	}
	srv := serve.New(sys, serve.Config{
		Window:             genWindow(corpusSec),
		TuneWindow:         genWindow(tuneWindowSec),
		ChunkSec:           chunkSec,
		QueryWorkers:       queryWorkers,
		QueueDepth:         queueDepth,
		NoBackgroundIngest: true,
	})
	t0 := time.Now()
	if err := srv.Start(); err != nil {
		sys.Close()
		return nil, fmt.Errorf("starting server: %w", err)
	}
	n := &node{sys: sys, srv: srv, streams: streams, startSec: time.Since(t0).Seconds()}
	n.hs, n.url, err = listen(traced(srv.Handler(), "serve.handler", rec))
	if err != nil {
		srv.Stop()
		sys.Close()
		return nil, err
	}
	return n, nil
}

// stop shuts the listener, stops the server and closes the store.
func (n *node) stop() error {
	shutdown(n.hs)
	n.srv.Stop()
	return n.sys.Close()
}

func listen(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed once shutdown has stopped it
	return hs, "http://" + ln.Addr().String(), nil
}

func shutdown(hs *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if hs.Shutdown(ctx) != nil {
		hs.Close()
	}
}

// traced wraps a handler so that a request carrying spanHeader leaves a
// span named name under the span the header names. Other requests pass
// straight through.
func traced(h http.Handler, name string, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, err := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		id := rec.newID()
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		start := rec.now()
		h.ServeHTTP(w, r)
		rec.add(span{ID: id, Parent: parent, Name: name, Start: start, End: rec.now()})
	})
}

// spanKey is the context key under which a client goroutine passes the id
// of its open span to the transport.
type spanKey struct{}

// tagTransport copies the span id from the request context into
// spanHeader. It is the only thing between the typed client and
// http.Transport.
type tagTransport struct{ base http.RoundTripper }

func (t tagTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if id, ok := r.Context().Value(spanKey{}).(int64); ok {
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	}
	return t.base.RoundTrip(r)
}

// newHTTPClient returns the keep-alive client every benchmark client of a
// run shares.
func newHTTPClient() (*http.Client, *http.Transport) {
	tr := &http.Transport{MaxIdleConns: 16, MaxIdleConnsPerHost: 8}
	return &http.Client{Transport: tagTransport{tr}, Timeout: 60 * time.Second}, tr
}

// newClient is a typed client that never retries: a 429 is an observation
// here, not something to paper over.
func newClient(url string, hc *http.Client) *client.Client {
	return client.New(url, client.WithHTTPClient(hc), client.WithRetries(0, 0))
}

// queryStats fetches GET /v1/stats and returns the numeric counters by
// JSON key, so that the harness depends on the wire names and not on a
// struct.
func queryStats(url string) (map[string]float64, error) {
	hc, tr := newHTTPClient()
	defer tr.CloseIdleConnections()
	raw, err := newClient(url, hc).Stats(context.Background())
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", api.PathStats, err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(fields))
	for k, v := range fields {
		var f float64
		if json.Unmarshal(v, &f) == nil {
			out[k] = f
		}
	}
	return out, nil
}

// cluster is two shards behind a router.
type cluster struct {
	shards []*node
	rt     *router.Router
	hs     *http.Server
	url    string
	legs   *http.Transport
}

// shardStreams pins the sorted streams round-robin over n shards.
func shardStreams(n int) [][]string {
	out := make([][]string, n)
	for i, name := range streamNames {
		out[i%n] = append(out[i%n], name)
	}
	return out
}

// startRouter puts a router in front of running shards.
func startRouter(shards []*node, rec *recorder, capture *legCapture) (*cluster, error) {
	m := &router.ShardMap{Pins: map[string]string{}}
	for i, n := range shards {
		name := fmt.Sprintf("shard-%d", i)
		m.Shards = append(m.Shards, router.ShardSpec{Name: name, URL: n.url})
		for _, s := range n.streams {
			m.Pins[s] = name
		}
	}
	legs := &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 16}
	var rtp http.RoundTripper = legs
	if rec != nil {
		rtp = &legTransport{base: legs, rec: rec, capture: capture}
	}
	rt, err := router.New(router.Config{
		Map:     m,
		Refresh: 250 * time.Millisecond,
		Client:  &http.Client{Transport: rtp, Timeout: 30 * time.Second},
	})
	if err != nil {
		return nil, err
	}
	if err := rt.Start(); err != nil {
		return nil, err
	}
	c := &cluster{shards: shards, rt: rt, legs: legs}
	c.hs, c.url, err = listen(traced(rt.Handler(), "router.handler", rec))
	if err != nil {
		rt.Stop()
		return nil, err
	}
	return c, nil
}

func (c *cluster) stop() error {
	shutdown(c.hs)
	c.rt.Stop()
	c.legs.CloseIdleConnections()
	var first error
	for _, n := range c.shards {
		if err := n.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// newTwin builds the reference system answers are checked against: one
// in-memory system over all four streams, ingested in one shot with the
// tuner outcome the served sessions used, unpaced, its caches cold.
// Replaying a served response on it — at the watermark vector and options
// the response echoes — must reproduce the response bit for bit, however
// the served answer was produced: live or restored, one node or two
// shards, from the cache or not.
func newTwin(corpusSec float64, served ...*node) (*focus.System, error) {
	twin, err := focus.New(focusConfig("", 0))
	if err != nil {
		return nil, err
	}
	for _, n := range served {
		for _, name := range n.streams {
			sess, err := twin.AddTable1Stream(name)
			if err != nil {
				return nil, err
			}
			sess.UseSelection(n.sys.Session(name).Selection())
		}
	}
	if err := twin.IngestAll(genWindow(corpusSec)); err != nil {
		return nil, fmt.Errorf("ingesting the twin: %w", err)
	}
	return twin, nil
}

// scratchDir makes a fresh directory for store files under the checkout's
// build directory; the caller removes it.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "stores")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "run-")
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var kb float64
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb / 1024
		}
	}
	return 0
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
