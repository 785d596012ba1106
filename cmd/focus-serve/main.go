// Command focus-serve runs Focus as a resident query service: registered
// streams ingest continuously in the background while the HTTP API serves
// class queries to many concurrent clients, with watermark-consistent
// results, a shared result cache, and admission control.
//
// Usage:
//
//	focus-serve [-addr :7070] [-streams auburn_c,jacksonh | all]
//	            [-window 240] [-chunk 5] [-ingest-interval 500ms]
//	            [-workers 8] [-queue 16] [-cache 4096]
//	            [-quick-tune] [-recall 0.95] [-precision 0.95]
//	            [-drain-grace 10s]
//	            [-data-dir /var/lib/focus] [-checkpoint-every 1]
//	            [-fault-error-rate 0.2] [-fault-latency 50ms]
//	            [-fault-blackhole-after 30s] [-fault-blackhole-for 10s]
//
// With -data-dir the shard is durable: the store and MANIFEST.json live in
// that directory, live ingestion checkpoints every -checkpoint-every
// chunks, and a restarted process cold-starts from the latest checkpoint
// (replaying only the ingest tail) instead of re-tuning — see
// OPERATIONS.md §"Durability and crash recovery". The -fault-* flags arm
// the fault-injection middleware for chaos drills; never in production.
//
// Endpoints (see focus/api for the wire contract and OPERATIONS.md for
// the operator walkthrough):
//
//	POST /v1/query  — the primary query surface: {"expr": "car & person & !bus",
//	                  "top_k": 10, ...} — a single class is a one-leaf plan
//	                  ({"expr": "car"}); paging via the opaque watermark-stable
//	                  cursor; structured error codes
//	GET /v1/streams — per-stream watermarks, ingest progress, chosen configs
//	POST /v1/subscribe — standing queries: an SSE stream of answer deltas
//	GET /v1/stats   — service counters (cache, admission, subscriptions, GPU meter)
//	GET /healthz    — readiness (503 while tuning or draining, with a status body)
//	POST /drain     — leave rotation: new queries get "draining" until the process exits
//
// The listener comes up before tuning finishes, answering 503 on /healthz
// until the service is ready — the readiness probe a router (or k8s) needs.
// On SIGTERM the server drains first (in-flight queries finish, new ones
// are rejected with the draining marker, the router routes around it) and
// exits after -drain-grace. A second signal exits immediately.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"focus"
	"focus/internal/serve"
	"focus/internal/video"
)

func main() {
	addr := flag.String("addr", ":7070", "listen address")
	streams := flag.String("streams", "auburn_c,jacksonh,city_a_d", "comma-separated Table 1 stream names, \"all\", or \"none\" (boot empty and receive streams via live handoff)")
	window := flag.Float64("window", 240, "per-stream ingest horizon in seconds")
	sampleEvery := flag.Int("sample-every", 1, "frame sampling stride (1 = 30fps)")
	tuneWindow := flag.Float64("tune-window", 0, "tuning window in seconds (0 = same as -window)")
	chunk := flag.Float64("chunk", 5, "watermark granularity in stream seconds")
	ingestInterval := flag.Duration("ingest-interval", 500*time.Millisecond, "real-time pause between background ingest steps (0 = full speed)")
	workers := flag.Int("workers", 8, "concurrent query executions")
	queue := flag.Int("queue", 16, "queued queries before new arrivals get 429")
	cacheCap := flag.Int("cache", 4096, "result cache capacity (responses)")
	seed := flag.Uint64("seed", 1, "system seed")
	gpus := flag.Int("gpus", focus.DefaultNumGPUs, "query-time GPU parallelism")
	quickTune := flag.Bool("quick-tune", true, "use the trimmed boot-time parameter sweep")
	recall := flag.Float64("recall", 0.95, "tuner recall target")
	precision := flag.Float64("precision", 0.95, "tuner precision target")
	drainGrace := flag.Duration("drain-grace", 10*time.Second, "how long to serve draining 503s after SIGTERM before exiting")
	handoffTTL := flag.Duration("handoff-ttl", serve.DefaultHandoffTTL, "how long a half-done handoff may hold state: a sealed stream auto-resumes ingestion, and an unactivated import is auto-discarded, this long after the step that created it")
	dataDir := flag.String("data-dir", "", "durable data directory: the index store (focus.kv) and MANIFEST.json live here, live ingestion checkpoints into it, and a restart cold-starts from the latest checkpoint (empty = in-memory, nothing survives a crash)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "checkpoint each stream every N ingest chunks (0 = every chunk, negative = never); effective only with -data-dir")
	faultErrorRate := flag.Float64("fault-error-rate", 0, "FAULT INJECTION: probability (0..1) that a data-plane request is rejected with a typed 503 \"unavailable\"")
	faultLatency := flag.Duration("fault-latency", 0, "FAULT INJECTION: extra latency added to every data-plane request")
	faultBlackholeAfter := flag.Duration("fault-blackhole-after", 0, "FAULT INJECTION: sever every connection (including /healthz) starting this long after the first request")
	faultBlackholeFor := flag.Duration("fault-blackhole-for", 0, "FAULT INJECTION: how long the blackhole window lasts")
	faultSeed := flag.Uint64("fault-seed", 0, "FAULT INJECTION: deterministic seed for the error-rate coin (0 = 1)")
	flag.Parse()

	cfg := focus.Config{
		Seed:    *seed,
		NumGPUs: *gpus,
		Targets: focus.Targets{Recall: *recall, Precision: *precision},
	}
	if *quickTune {
		cfg.TuneOptions = serve.QuickTuneOptions()
	}
	const storeName = "focus.kv"
	if *dataDir != "" {
		if err := os.MkdirAll(*dataDir, 0o755); err != nil {
			log.Fatalf("focus-serve: %v", err)
		}
		cfg.StorePath = filepath.Join(*dataDir, storeName)
	}
	sys, err := focus.New(cfg)
	if err != nil {
		log.Fatalf("focus-serve: %v", err)
	}
	defer sys.Close()

	names := streamNames(*streams)
	for _, name := range names {
		if _, err := sys.AddTable1Stream(name); err != nil {
			log.Fatalf("focus-serve: %v", err)
		}
	}

	// -streams none boots an empty elastic shard: it joins the cluster
	// with nothing and receives its share through live handoff when the
	// router reshards onto it.
	allowEmpty := len(names) == 0

	scfg := serve.Config{
		Window:          focus.GenOptions{DurationSec: *window, SampleEvery: *sampleEvery},
		TuneWindow:      focus.GenOptions{DurationSec: *tuneWindow, SampleEvery: *sampleEvery},
		ChunkSec:        *chunk,
		IngestInterval:  *ingestInterval,
		QueryWorkers:    *workers,
		QueueDepth:      *queue,
		CacheCapacity:   *cacheCap,
		CheckpointEvery: *checkpointEvery,
		AllowNoStreams:  allowEmpty,
		HandoffTTL:      *handoffTTL,
		Fault: serve.FaultConfig{
			ErrorRate:      *faultErrorRate,
			Latency:        *faultLatency,
			BlackholeAfter: *faultBlackholeAfter,
			BlackholeFor:   *faultBlackholeFor,
			Seed:           *faultSeed,
		},
	}
	if *dataDir != "" {
		scfg.DataDir = *dataDir
		scfg.StoreName = storeName
	}
	if scfg.Fault.Active() {
		log.Printf("focus-serve: FAULT INJECTION ARMED (error-rate %.2f, latency %s, blackhole %s after %s) — never run this in production",
			*faultErrorRate, *faultLatency, *faultBlackholeFor, *faultBlackholeAfter)
	}
	srv := serve.New(sys, scfg)
	// Listen before tuning: /healthz answers 503 "not ready" during boot so
	// a router (or an orchestrator's readiness probe) can watch the shard
	// come up instead of getting connection refused.
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}
	go func() {
		log.Printf("focus-serve: listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			log.Fatalf("focus-serve: %v", err)
		}
	}()

	log.Printf("focus-serve: tuning %d streams (window %.0fs)…", len(names), *window)
	t0 := time.Now()
	if err := srv.Start(); err != nil {
		log.Fatalf("focus-serve: %v", err)
	}
	defer srv.Stop()
	log.Printf("focus-serve: ready in %.1fs, ingesting %s in the background", time.Since(t0).Seconds(), strings.Join(names, ", "))

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	// Drain first: reject new queries with the draining marker while the
	// router's health poll takes this shard out of rotation; in-flight
	// queries finish. A second signal skips the grace period.
	srv.StartDrain()
	log.Printf("focus-serve: draining for %s (signal again to exit now)", *drainGrace)
	select {
	case <-sig:
	case <-time.After(*drainGrace):
	}
	log.Print("focus-serve: shutting down")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Printf("focus-serve: shutdown: %v", err)
	}
}

func streamNames(arg string) []string {
	if strings.TrimSpace(arg) == "none" {
		return nil
	}
	if strings.TrimSpace(arg) == "all" {
		specs := video.Table1Specs()
		names := make([]string, len(specs))
		for i, s := range specs {
			names[i] = s.Name
		}
		return names
	}
	var names []string
	for _, n := range strings.Split(arg, ",") {
		if n = strings.TrimSpace(n); n != "" {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		fmt.Fprintln(os.Stderr, "focus-serve: no streams given (use -streams none for an empty elastic shard)")
		os.Exit(2)
	}
	return names
}
