package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"focus/api"
	"focus/client"
)

// cacheExpect is what a workload asserts about the `cached` flag of every
// first response; a cursor continuation is always served from the
// execution its first page cached.
type cacheExpect int

const (
	anyCache cacheExpect = iota
	mustHit
	mustMiss
)

// exchange is one mix entry as it was served: the response and, for a
// paged read whose first page left a cursor, the continuation. Kept
// exchanges are replayed on the twin after the timed phase.
type exchange struct {
	entry  entry
	first  *api.QueryResponse
	second *api.QueryResponse
	// span and span2 are the client spans of the two requests, 0 when the
	// request was not traced; ms is the first request's latency.
	span, span2 int64
	ms          float64
}

// clientLog is what one closed-loop client observed.
type clientLog struct {
	// ms is the latency of every HTTP request that returned an answer,
	// decode included; failed requests are counted, not timed.
	ms        []float64
	attempted int
	failed    int
	errs      []string
	kept      []*exchange
	// gpuMS sums gpu_time_ms over uncached responses: GPU time this
	// client's requests caused.
	gpuMS float64
	// class and traced run parallel to ms, for the tracing-overhead
	// comparison: what kind of request it was (a cursor continuation is a
	// class of its own) and whether it carried a span.
	class  []int
	traced []bool
}

func (l *clientLog) fail(format string, args ...any) {
	l.failed++
	if len(l.errs) < 5 {
		l.errs = append(l.errs, fmt.Sprintf(format, args...))
	}
}

// driver is one closed-loop client: it sends a request, waits for the
// decoded answer, and only then sends the next.
type driver struct {
	cli *client.Client
	tr  *http.Transport
	rec *recorder
	// coin decides, in a traced run, which requests carry a span: half of
	// them, so that traced and plain requests meet the same server state
	// and their latencies can be compared within the run.
	coin *rand.Rand
	log  *clientLog
	// keepEvery keeps every n-th exchange for replay (1 keeps all).
	keepEvery int
	n         int
}

func newDriver(url string, seed uint64, idx int, rec *recorder) *driver {
	hc, tr := newHTTPClient()
	return &driver{
		cli:       newClient(url, hc),
		tr:        tr,
		rec:       rec,
		coin:      rand.New(rand.NewSource(int64(seed)*31 + int64(idx) + 977)),
		log:       &clientLog{},
		keepEvery: 1,
	}
}

// query sends one request and accounts for it. It returns nil after
// counting a failure.
func (d *driver) query(req *api.QueryRequest, k kind, expect cacheExpect) (*api.QueryResponse, int64, float64) {
	ctx := context.Background()
	var id int64
	if d.rec != nil && d.coin.Intn(2) == 0 {
		id = d.rec.newID()
		ctx = context.WithValue(ctx, spanKey{}, id)
	}
	d.log.attempted++
	t0 := time.Now()
	resp, err := d.cli.Query(ctx, req)
	el := time.Since(t0)
	if err != nil {
		d.log.fail("%s %q: %v", k, req.Expr, err)
		return nil, 0, 0
	}
	ms := float64(el) / 1e6
	d.log.ms = append(d.log.ms, ms)
	class := int(k)
	if req.Cursor != "" {
		class = int(numKinds)
	}
	d.log.class = append(d.log.class, class)
	d.log.traced = append(d.log.traced, id != 0)
	if id != 0 {
		end := d.rec.now()
		d.rec.add(span{ID: id, Req: id, Name: "client.query", Start: end - int64(el), End: end,
			Class: k.String(), Sig: sigOf(resp.Start, resp.End)})
	}
	if !resp.Cached {
		d.log.gpuMS += resp.GPUTimeMS
	}
	if (expect == mustHit && !resp.Cached) || (expect == mustMiss && resp.Cached) {
		d.log.fail("%s %q [%g,%g): cached=%v", k, req.Expr, req.Start, req.End, resp.Cached)
	}
	return resp, id, ms
}

// do runs one mix entry: the request and, for a paged read that left a
// cursor, one continuation.
func (d *driver) do(e entry, expect cacheExpect) {
	x := &exchange{entry: e}
	x.first, x.span, x.ms = d.query(&e.Req, e.Kind, expect)
	if x.first == nil {
		return
	}
	if e.Kind == kPaged && x.first.Cursor != "" {
		x.second, x.span2, _ = d.query(&api.QueryRequest{Cursor: x.first.Cursor, Limit: e.Req.Limit}, e.Kind, mustHit)
		if x.second == nil {
			return
		}
	}
	if d.n%d.keepEvery == 0 {
		d.log.kept = append(d.log.kept, x)
	}
	d.n++
}

// sigOf is the signature that ties a shard leg to the routed request that
// caused it: the router forwards start and end unchanged, and routed_miss
// gives every request its own window.
func sigOf(start, end float64) string { return fmt.Sprintf("%g-%g", start, end) }

// runClients runs one function per client concurrently and returns the
// wall time of the slowest.
func runClients(n int, fn func(idx int)) float64 {
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}
