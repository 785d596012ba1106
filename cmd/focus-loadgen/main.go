// Command focus-loadgen drives a focus-serve instance — or a sharded
// focus-router cluster — with deterministic closed-loop load over the v1
// wire API (through the typed focus/client package): single-class
// frames-form traffic, optionally mixed with compound ranked plans
// (-plans/-plan-every), temporal track queries (-tracks/-track-every),
// cursor-paged reads (-page-every), and standing queries
// (-subscribe-every: POST /v1/subscribe streams whose deltas are
// reassembled client-side and verified against a direct execution at the
// delivered watermark vector).
// It reports throughput, latency percentiles and error counts, and it is
// the CI smoke/soak gate:
//
//   - -boot starts one in-process service and verifies every sampled
//     response (plain and plan) against a direct library execution at the
//     same watermark vector.
//   - -boot-cluster N starts N in-process focus-serve shards (streams
//     placed by a shard map), a focus-router in front of them, and a
//     reference focus.System holding every stream; sampled routed
//     responses are verified against the reference system at the merged
//     watermark vector — the scatter-gather stack must never change an
//     answer. -drain-one-after additionally drains the last shard mid-run
//     to exercise 503-during-drain semantics. -chaos-kill-after instead
//     runs the crash-recovery drill: the last shard is killed the way
//     SIGKILL would (connections severed, store abandoned unsynced),
//     left dead for -chaos-down-for seconds, then restarted on the same
//     address and store — it must cold-start from its checkpoint, clients
//     must only ever see typed shard_down/unavailable rejections (or
//     partial answers when -allow-partial-every opts in) during the
//     outage, and the post-recovery answer at the pinned pre-crash
//     watermark must be bit-identical.
//     -reshard-after runs the live-reshard drill: mid-run a fresh empty
//     shard joins the cluster and the router live-reshards one stream
//     onto it (seal → export → import → activate → flip → release) while
//     the clients keep querying — the move must complete cleanly, clients
//     must only ever see the allowed typed transients, and the moved
//     stream's pre-move answer, pinned at the same watermark vector, must
//     be bit-identical on the new owner.
//
// Either way it exits non-zero on any unexpected status, transport error,
// served-vs-direct mismatch, or p99 above the committed budget.
//
// Usage:
//
//	focus-loadgen -url http://127.0.0.1:7070 [-clients 16] [-run-seconds 30]
//	focus-loadgen -boot [-streams auburn_c,jacksonh,city_a_d] [-window 240]
//	              [-clients 16] [-run-seconds 30] [-max-p99 500] [-verify-every 1]
//	              [-plans 'car & person & !bus; (car | truck) & person'] [-plan-every 4]
//	focus-loadgen -boot-cluster 2 [-streams auburn_c,jacksonh,city_a_d]
//	              [-clients 16] [-run-seconds 30] [-drain-one-after 25]
//	focus-loadgen -boot-cluster 2 -run-seconds 45 -chaos-kill-after 15
//	              [-chaos-down-for 5] [-checkpoint-every 1] [-allow-partial-every 4]
//	focus-loadgen -boot-cluster 2 -run-seconds 45 -reshard-after 15
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"focus"
	"focus/internal/loadgen"
	"focus/internal/serve"
)

func main() {
	url := flag.String("url", "", "base URL of a running focus-serve or focus-router (mutually exclusive with -boot/-boot-cluster)")
	boot := flag.Bool("boot", false, "boot an in-process focus-serve and drive it (enables served-vs-direct verification)")
	bootCluster := flag.Int("boot-cluster", 0, "boot N in-process shards + a router + a reference system and drive the router (enables cross-shard verification)")
	drainOneAfter := flag.Float64("drain-one-after", 0, "in -boot-cluster mode, drain the last shard after this many seconds (0 = never)")
	chaosKillAfter := flag.Float64("chaos-kill-after", 0, "in -boot-cluster mode, kill the last shard (sever connections, abandon its store unsynced) after this many seconds (0 = never)")
	chaosDownFor := flag.Float64("chaos-down-for", 5, "in chaos mode, how many seconds the killed shard stays dead before restarting from its checkpoint")
	checkpointEvery := flag.Int("checkpoint-every", 0, "in chaos mode, shard checkpoint cadence in ingest chunks (0 = every chunk)")
	reshardAfter := flag.Float64("reshard-after", 0, "in -boot-cluster mode, join a fresh empty shard after this many seconds and live-reshard one stream onto it under load (0 = never)")
	allowPartialEvery := flag.Int("allow-partial-every", 0, "every Nth whole-corpus query opts into allow_partial degraded answers (0 = never; chaos mode defaults to 4)")
	faultErrorRate := flag.Float64("fault-error-rate", 0, "in -boot-cluster mode, arm every shard's fault injector: probability (0..1) that a data-plane request fails with a typed 503 \"unavailable\" (the router's sub-request retries must absorb most of them)")
	faultLatency := flag.Duration("fault-latency", 0, "in -boot-cluster mode, extra injected latency on every shard data-plane request")
	clients := flag.Int("clients", 16, "concurrent closed-loop clients")
	runSeconds := flag.Float64("run-seconds", 30, "load duration in seconds")
	seed := flag.Uint64("seed", 1, "deterministic client seed")
	classesArg := flag.String("classes", "", "comma-separated class pool (default: dominant classes of the streams in -boot mode, car,person otherwise)")
	zipfAlpha := flag.Float64("zipf", 1.1, "class popularity skew")
	verifyEvery := flag.Int("verify-every", 1, "verify every Nth OK response per client in -boot mode (0 = never)")
	plans := flag.String("plans", "", "semicolon-separated compound plan expressions mixed into the load (e.g. 'car & person & !bus; car | truck')")
	planEvery := flag.Int("plan-every", 0, "every Nth request per client is a POST /plan from -plans (0 = never)")
	tracks := flag.String("tracks", "", "semicolon-separated temporal track expressions mixed into the load (e.g. 'car & dur(5); person & vel(1)')")
	trackEvery := flag.Int("track-every", 0, "every Nth request per client is a tracks-form query from -tracks (0 = never)")
	singleStreamEvery := flag.Int("single-stream-every", 0, "every Nth plain query targets one stream instead of the whole corpus (0 = never; -boot-cluster defaults to 3 so healthy shards stay exercised during a drain)")
	planTopK := flag.Int("plan-top-k", 10, "top_k for plan requests")
	earlyExitEvery := flag.Int("early-exit-every", 0, "every Nth plan request per client runs in early-exit mode (mode=early_exit: stop at -plan-top-k verified items; 0 = plans always exact)")
	pageEvery := flag.Int("page-every", 0, "every Nth plan request per client is a cursor-paged read (0 = one-shot only)")
	pageSize := flag.Int("page-size", 5, "page limit for cursor-paged plan reads")
	subscribeEvery := flag.Int("subscribe-every", 0, "every Nth request per client opens a POST /v1/subscribe standing query over a -plans or -tracks predicate, collects deltas, and verifies the reassembled answer (0 = never)")
	subscribeFor := flag.Duration("subscribe-for", 2*time.Second, "how long each opened subscription collects deltas before verification")
	maxP99 := flag.Float64("max-p99", 0, "fail if p99 latency exceeds this many milliseconds (0 = no budget)")
	jsonOut := flag.Bool("json", false, "print the report as JSON")

	// -boot service shape.
	streams := flag.String("streams", "auburn_c,jacksonh,city_a_d", "streams for -boot")
	window := flag.Float64("window", 240, "ingest horizon seconds for -boot")
	tuneWindow := flag.Float64("tune-window", 60, "tuning window seconds for -boot")
	chunk := flag.Float64("chunk", 5, "watermark chunk seconds for -boot")
	ingestInterval := flag.Duration("ingest-interval", 500*time.Millisecond, "pause between ingest steps for -boot")
	workers := flag.Int("workers", 8, "query workers for -boot")
	queue := flag.Int("queue", 16, "admission queue depth for -boot")
	recall := flag.Float64("recall", 0.9, "tuner recall target for -boot")
	precision := flag.Float64("precision", 0.9, "tuner precision target for -boot")
	flag.Parse()

	modes := 0
	for _, on := range []bool{*url != "", *boot, *bootCluster > 0} {
		if on {
			modes++
		}
	}
	if modes != 1 {
		fmt.Fprintln(os.Stderr, "focus-loadgen: exactly one of -url, -boot or -boot-cluster is required")
		os.Exit(2)
	}

	cfg := loadgen.Config{
		BaseURL:           *url,
		Clients:           *clients,
		Duration:          time.Duration(*runSeconds * float64(time.Second)),
		Seed:              *seed,
		ZipfAlpha:         *zipfAlpha,
		VerifyEvery:       *verifyEvery,
		PlanEvery:         *planEvery,
		PlanTopK:          *planTopK,
		EarlyExitEvery:    *earlyExitEvery,
		TrackEvery:        *trackEvery,
		SingleStreamEvery: *singleStreamEvery,
		PageEvery:         *pageEvery,
		PageSize:          *pageSize,
		SubscribeEvery:    *subscribeEvery,
		SubscribeFor:      *subscribeFor,
	}
	cfg.AllowPartialEvery = *allowPartialEvery
	chaos := chaosSpec{
		KillAfter:       time.Duration(*chaosKillAfter * float64(time.Second)),
		DownFor:         time.Duration(*chaosDownFor * float64(time.Second)),
		CheckpointEvery: *checkpointEvery,
	}
	if chaos.enabled() && *bootCluster == 0 {
		fmt.Fprintln(os.Stderr, "focus-loadgen: -chaos-kill-after requires -boot-cluster")
		os.Exit(2)
	}
	if chaos.enabled() && *chaosKillAfter+*chaosDownFor >= *runSeconds {
		fmt.Fprintln(os.Stderr, "focus-loadgen: the chaos schedule (-chaos-kill-after + -chaos-down-for) must complete within -run-seconds")
		os.Exit(2)
	}
	reshard := reshardSpec{After: time.Duration(*reshardAfter * float64(time.Second))}
	if reshard.enabled() && *bootCluster == 0 {
		fmt.Fprintln(os.Stderr, "focus-loadgen: -reshard-after requires -boot-cluster")
		os.Exit(2)
	}
	if reshard.enabled() && *reshardAfter >= *runSeconds {
		fmt.Fprintln(os.Stderr, "focus-loadgen: -reshard-after must fire within -run-seconds")
		os.Exit(2)
	}
	fault := serve.FaultConfig{ErrorRate: *faultErrorRate, Latency: *faultLatency, Seed: *seed}
	if fault.Active() && *bootCluster == 0 {
		fmt.Fprintln(os.Stderr, "focus-loadgen: -fault-error-rate/-fault-latency require -boot-cluster")
		os.Exit(2)
	}
	if *bootCluster > 0 {
		// A drain (or a chaos kill, or armed fault injection) is only
		// acceptable when this run causes one; and during an outage, only
		// single-stream queries against healthy shards can keep succeeding,
		// so make sure some are issued.
		cfg.AcceptDraining = *drainOneAfter > 0
		// A live reshard briefly rejects traffic on the moving stream with
		// the same typed transients an outage produces (unavailable /
		// not_ready around the cutover), so the drill opts into them too.
		cfg.AcceptOutage = chaos.enabled() || reshard.enabled() || fault.ErrorRate > 0
		if cfg.SingleStreamEvery == 0 {
			cfg.SingleStreamEvery = 3
		}
		if chaos.enabled() && cfg.AllowPartialEvery == 0 {
			// A chaos drill should also exercise the degraded-answer path:
			// some whole-corpus queries keep succeeding partially while the
			// victim is down.
			cfg.AllowPartialEvery = 4
		}
	}
	if *classesArg != "" {
		cfg.Classes = splitCSV(*classesArg)
	}
	for _, expr := range strings.Split(*plans, ";") {
		if expr = strings.TrimSpace(expr); expr != "" {
			cfg.Plans = append(cfg.Plans, expr)
		}
	}
	for _, expr := range strings.Split(*tracks, ";") {
		if expr = strings.TrimSpace(expr); expr != "" {
			cfg.Tracks = append(cfg.Tracks, expr)
		}
	}

	var shutdown func()
	chaosChecks := func() []string { return nil }
	if *boot {
		var err error
		shutdown, err = bootService(&cfg, *streams, *window, *tuneWindow, *chunk,
			*ingestInterval, *workers, *queue, *seed, *recall, *precision)
		if err != nil {
			log.Fatalf("focus-loadgen: %v", err)
		}
		defer shutdown()
	}
	if *bootCluster > 0 {
		var err error
		shutdown, chaosChecks, err = bootShardedCluster(&cfg, *bootCluster, *streams, *window, *tuneWindow, *chunk,
			*ingestInterval, *workers, *queue, *seed, *recall, *precision, *drainOneAfter, chaos, reshard, fault)
		if err != nil {
			log.Fatalf("focus-loadgen: %v", err)
		}
		defer shutdown()
	}
	if len(cfg.Classes) == 0 {
		cfg.Classes = []string{"car", "person"}
	}
	if len(cfg.Streams) == 0 {
		// -boot fills this from its registered streams; for -url runs the
		// -streams flag doubles as the single-stream pool.
		cfg.Streams = splitCSV(*streams)
	}

	log.Printf("focus-loadgen: %d clients for %.0fs against %s (classes: %s)",
		cfg.Clients, cfg.Duration.Seconds(), cfg.BaseURL, strings.Join(cfg.Classes, ","))
	rep, err := loadgen.Run(cfg)
	if err != nil {
		log.Fatalf("focus-loadgen: %v", err)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
	} else {
		printReport(rep)
	}

	failures := rep.Failures()
	// The chaos checks join on the kill/restart sequence, so run them
	// before tearing the cluster down.
	failures = append(failures, chaosChecks()...)
	if *maxP99 > 0 && rep.P99MS > *maxP99 {
		failures = append(failures, fmt.Sprintf("p99 %.1fms exceeds budget %.1fms", rep.P99MS, *maxP99))
	}
	if cfg.AcceptDraining && rep.Draining == 0 {
		// The drain exercise is the point of -drain-one-after: a run that
		// never observed a marked 503 (drain POST failed, timer fired too
		// late) silently skipped the semantics this gate exists to test —
		// and ran with a loosened 503 policy to boot.
		failures = append(failures, "drain requested but no draining 503s were observed")
	}
	if chaos.enabled() && rep.Outage == 0 {
		// Same reasoning for the chaos drill: a run that never saw a typed
		// outage rejection didn't actually exercise the outage window it
		// loosened the gate for. (Fault-rate runs don't require leaks —
		// the router's retries absorbing every injected error is success,
		// and the retries themselves are asserted by the cluster checks.)
		failures = append(failures, "chaos kill requested but no outage-typed rejections were observed")
	}
	if chaos.enabled() && cfg.AllowPartialEvery > 0 && rep.Partials == 0 {
		failures = append(failures, "chaos run mixed in allow_partial but no partial responses were observed")
	}
	if rep.OK == 0 {
		failures = append(failures, "no successful responses at all")
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Println("PASS")
}

// bootService starts an in-process focus-serve on a loopback port, fills in
// cfg.BaseURL/Verifier/Classes, and returns its shutdown function.
func bootService(cfg *loadgen.Config, streams string, window, tuneWindow, chunk float64,
	ingestInterval time.Duration, workers, queue int, seed uint64, recall, precision float64) (func(), error) {
	sys, err := focus.New(focus.Config{
		Seed:        seed,
		Targets:     focus.Targets{Recall: recall, Precision: precision},
		TuneOptions: serve.QuickTuneOptions(),
	})
	if err != nil {
		return nil, err
	}
	names := splitCSV(streams)
	var dominant []string
	seen := make(map[string]bool)
	for _, name := range names {
		sess, err := sys.AddTable1Stream(name)
		if err != nil {
			sys.Close()
			return nil, err
		}
		for _, c := range sess.Stream().DominantClasses(4) {
			cn := sys.Space().Name(c)
			if !seen[cn] {
				seen[cn] = true
				dominant = append(dominant, cn)
			}
		}
	}
	if len(cfg.Classes) == 0 {
		cfg.Classes = dominant
	}

	srv := serve.New(sys, serve.Config{
		Window:         focus.GenOptions{DurationSec: window, SampleEvery: 1},
		TuneWindow:     focus.GenOptions{DurationSec: tuneWindow, SampleEvery: 1},
		ChunkSec:       chunk,
		IngestInterval: ingestInterval,
		QueryWorkers:   workers,
		QueueDepth:     queue,
	})
	log.Printf("focus-loadgen: booting service (%d streams, window %.0fs, tune %.0fs)…",
		len(names), window, tuneWindow)
	t0 := time.Now()
	if err := srv.Start(); err != nil {
		sys.Close()
		return nil, err
	}
	log.Printf("focus-loadgen: service ready in %.1fs", time.Since(t0).Seconds())

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Stop()
		sys.Close()
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go func() { _ = httpSrv.Serve(ln) }()

	cfg.BaseURL = "http://" + ln.Addr().String()
	if cfg.VerifyEvery > 0 {
		cfg.Verifier = loadgen.NewDirectVerifier(sys)
		cfg.PlanVerifier = loadgen.NewDirectPlanVerifier(sys)
		cfg.TrackVerifier = loadgen.NewDirectTrackVerifier(sys)
		cfg.DeltaVerifier = loadgen.NewDeltaVerifier(sys)
	}
	return func() {
		_ = httpSrv.Close()
		srv.Stop()
		stats := srv.Snapshot()
		log.Printf("focus-loadgen: service saw %d queries, %d cache hits, %d misses, %d rejected; watermarks %v",
			stats.Queries, stats.CacheHits, stats.CacheMisses, stats.Rejected, stats.Watermarks)
		sys.Close()
	}, nil
}

func printReport(r *loadgen.Report) {
	fmt.Printf("clients           %d\n", r.Clients)
	fmt.Printf("elapsed           %.1fs\n", r.ElapsedSec)
	fmt.Printf("requests          %d (%.1f req/s)\n", r.Requests, r.ThroughputRPS)
	fmt.Printf("ok / rejected     %d / %d\n", r.OK, r.Rejected)
	if r.Draining > 0 {
		fmt.Printf("draining 503s     %d\n", r.Draining)
	}
	if r.Outage > 0 {
		fmt.Printf("outage 503s       %d\n", r.Outage)
	}
	if r.Partials > 0 {
		fmt.Printf("partial answers   %d\n", r.Partials)
	}
	fmt.Printf("cache hits        %d\n", r.CacheHits)
	if r.PlanRequests > 0 {
		fmt.Printf("plan requests     %d (verified: %d, cursor-paged: %d, early-exit: %d)\n",
			r.PlanRequests, r.PlanVerified, r.PagedRequests, r.EarlyExitRequests)
	}
	if r.TrackRequests > 0 {
		fmt.Printf("track requests    %d (verified: %d)\n", r.TrackRequests, r.TrackVerified)
	}
	if r.Subscriptions > 0 || r.SubscriptionShortfall != "" {
		fmt.Printf("subscriptions     %d (deltas: %d, verified: %d)\n",
			r.Subscriptions, r.DeltaEvents, r.SubscriptionsVerified)
	}
	fmt.Printf("verified          %d (mismatches: %d)\n", r.Verified, len(r.Mismatches))
	fmt.Printf("latency ms        p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n",
		r.P50MS, r.P90MS, r.P99MS, r.MaxMS)
	if len(r.Unexpected) > 0 {
		fmt.Printf("unexpected        %v\n", r.Unexpected)
	}
	if r.NetErrors > 0 {
		fmt.Printf("net errors        %d %v\n", r.NetErrors, r.ErrorSamples)
	}
}

func splitCSV(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
