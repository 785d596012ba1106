package serve

import (
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"focus/api"
)

// This file is the fault-injection seam: an opt-in middleware that makes a
// healthy shard misbehave on demand, so the retry, failover, and recovery
// paths can be exercised deterministically instead of waiting for real
// hardware to fail. Three failure shapes cover the taxonomy the router and
// client must survive:
//
//   - Injected errors: a fraction of data-plane requests fail with the
//     structured "unavailable" error — the transient dependency failure a
//     client should retry and a router should ride through.
//   - Added latency: every data-plane request is delayed — the slow-shard
//     regime that exposes timeout and queueing behavior.
//   - A blackhole window: for a configured real-time window the process
//     severs every connection abruptly, without writing a response — the
//     network-partition shape. Unlike the error injections, the blackhole
//     swallows the health surface too: a partitioned shard cannot answer
//     its health checks either, and the router must discover that through
//     its poller, not be told politely.
//
// Injections never corrupt answers: a request either fails loudly (typed
// error, severed connection) or succeeds with the exact response the
// un-faulted server would have produced. Wrong-answer faults are the one
// shape deliberately not offered — the system's contract is that answers
// are bit-exact functions of (plan, options, watermark vector), and no
// operator knob should be able to silently break that.

// FaultConfig arms the fault-injection middleware. The zero value injects
// nothing (and adds no per-request overhead beyond two atomic-free checks).
type FaultConfig struct {
	// ErrorRate is the probability in [0,1] that a data-plane request
	// (query surfaces and stream/stats reads) fails with the structured
	// "unavailable" error instead of executing.
	ErrorRate float64
	// Latency is added to every data-plane request before it executes.
	Latency time.Duration
	// BlackholeAfter and BlackholeFor define the partition window: starting
	// BlackholeAfter after the middleware first sees traffic, every request
	// (health checks included) has its connection severed abruptly for
	// BlackholeFor. BlackholeFor == 0 disables the window.
	BlackholeAfter time.Duration
	BlackholeFor   time.Duration
	// Seed makes the error-rate coin deterministic; 0 means seed 1.
	Seed uint64
}

// Active reports whether this config injects anything.
func (f FaultConfig) Active() bool {
	return f.ErrorRate > 0 || f.Latency > 0 || f.BlackholeFor > 0
}

// faultInjector applies a FaultConfig to an http.Handler.
type faultInjector struct {
	cfg  FaultConfig
	next http.Handler
	srv  *Server

	mu  sync.Mutex
	rng *rand.Rand
	// armed is when the first request arrived — the blackhole clock's zero.
	armed time.Time
}

func newFaultInjector(cfg FaultConfig, srv *Server, next http.Handler) *faultInjector {
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	return &faultInjector{
		cfg:  cfg,
		next: next,
		srv:  srv,
		rng:  rand.New(rand.NewSource(int64(seed))),
	}
}

// dataPlanePath reports whether the path carries query/read traffic (as
// opposed to health and lifecycle endpoints). Error and latency injection
// target the data plane only: a shard that fails requests can still answer
// "I am here" — that is the partial-failure shape the router's per-request
// retry handles. Total silence is the blackhole's job.
func dataPlanePath(p string) bool {
	return strings.HasPrefix(p, "/v1/")
}

func (f *faultInjector) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	if f.armed.IsZero() {
		f.armed = time.Now()
	}
	since := time.Since(f.armed)
	inBlackhole := f.cfg.BlackholeFor > 0 &&
		since >= f.cfg.BlackholeAfter && since < f.cfg.BlackholeAfter+f.cfg.BlackholeFor
	injectErr := !inBlackhole && f.cfg.ErrorRate > 0 &&
		dataPlanePath(r.URL.Path) && f.rng.Float64() < f.cfg.ErrorRate
	f.mu.Unlock()

	if inBlackhole {
		f.srv.faultBlackholed.Add(1)
		// Sever the connection without a response — indistinguishable, to
		// the client, from a network partition. If the writer cannot be
		// hijacked (rare: HTTP/2), panicking with ErrAbortHandler aborts the
		// response without a reply, which is the same observable silence.
		if hj, ok := w.(http.Hijacker); ok {
			if conn, _, err := hj.Hijack(); err == nil {
				conn.Close()
				return
			}
		}
		panic(http.ErrAbortHandler)
	}
	if f.cfg.Latency > 0 && dataPlanePath(r.URL.Path) {
		time.Sleep(f.cfg.Latency)
	}
	if injectErr {
		f.srv.faultErrors.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, api.Envelope{
			Err: api.Errorf(api.CodeUnavailable, "fault injection: simulated dependency failure")})
		return
	}
	f.next.ServeHTTP(w, r)
}
