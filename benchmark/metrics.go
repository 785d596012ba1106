package main

import (
	"encoding/json"
	"fmt"

	"focus/api"
)

// Metric names are the benchmark's contract: BENCHMARK.json lists exactly
// the names endToEnd and perLayer emit, and every workload emits all of
// them.

// exactMetrics are counts of fixed work: two runs of one commit on one
// seed must agree on them to the last digit that floating-point summation
// order leaves stable.
var exactMetrics = map[string]bool{
	"gpu_ms_per_query":              true,
	"ingest_gpu_ms_per_stream_hour": true,
	"store_mb_per_stream_hour":      true,
}

func mustJSON(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(err) // only ever called on the harness's own plain structs
	}
	return raw
}

// allLatencies pools the clients' samples.
func (r *run) allLatencies() (ms []float64, attempted, failed int) {
	for _, l := range r.logs {
		ms = append(ms, l.ms...)
		attempted += l.attempted
		failed += l.failed
	}
	return ms, attempted, failed
}

// phaseSummary reduces the per-set-up ingest phases to one value per
// measure: the median over set-ups of the set-up's value (shards merged).
type phaseSummary struct {
	streamSecPerSec float64
	gpuPerHour      float64
	storeMBPerHour  float64
	deltaP50        float64
	deltaN          int
}

func (r *run) summarizeIngest() phaseSummary {
	var rate, gpu, store, delta []float64
	n := 0
	for _, phases := range r.ingests {
		p := mergePhases(phases)
		hours := p.streamSec / 3600
		rate = append(rate, p.streamSec/p.stepSec)
		gpu = append(gpu, p.gpuIngestMS/hours)
		store = append(store, float64(p.storeBytes)/1e6/hours)
		delta = append(delta, median(p.deltaMS))
		n += len(p.deltaMS)
	}
	return phaseSummary{median(rate), median(gpu), median(store), median(delta), n}
}

// endToEnd is what a user of the system would see.
func (r *run) endToEnd() []metric {
	ms, attempted, failed := r.allLatencies()
	ok := float64(attempted - failed)
	p50, tail := timing("query_p50_ms", "query_p99_ms", ms, failed)
	in := r.summarizeIngest()
	return []metric{
		{Name: "setup_s", Unit: "s", Value: median(r.setupSec), N: len(r.setupSec)},
		{Name: "query_rps", Unit: "1/s", Value: ok / r.readWall, N: attempted},
		p50,
		tail,
		{Name: "gpu_ms_per_query", Unit: "GPU-ms", Value: r.stats["query_gpu_ms"] / ok, N: int(ok)},
		{Name: "ingest_stream_s_per_s", Unit: "ratio", Value: in.streamSecPerSec, N: len(r.ingests)},
		{Name: "ingest_gpu_ms_per_stream_hour", Unit: "GPU-ms", Value: in.gpuPerHour},
		{Name: "store_mb_per_stream_hour", Unit: "MB", Value: in.storeMBPerHour},
		{Name: "delta_p50_ms", Unit: "ms", Value: in.deltaP50, N: in.deltaN},
		{Name: "restore_s", Unit: "s", Value: median(r.restoreSec), N: len(r.restoreSec)},
		{Name: "peak_rss_mb", Unit: "MB", Value: r.rssMB},
	}
}

func msOf(ns int64) float64 { return float64(ns) / 1e6 }

func sum(v []float64) float64 {
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t
}

// p50 is the median of a sample as a metric carrying its n.
func p50(name, unit string, v []float64) metric {
	return metric{Name: name, Unit: unit, Value: median(v), N: len(v)}
}

func count(name string, v float64) metric { return metric{Name: name, Unit: "count", Value: v} }

// mergePhases adds up the shards' ingest phases.
func mergePhases(phases []*ingestPhase) ingestPhase {
	var all ingestPhase
	all.stats = map[string]float64{}
	for _, p := range phases {
		all.streamSec += p.streamSec
		all.tuneSec += p.tuneSec
		all.stepSec += p.stepSec
		all.advanceSec += p.advanceSec
		all.checkpointMS = append(all.checkpointMS, p.checkpointMS...)
		all.deltaMS = append(all.deltaMS, p.deltaMS...)
		all.deltaItems += p.deltaItems
		all.deltas += p.deltas
		all.gpuIngestMS += p.gpuIngestMS
		all.gpuIngestOps += p.gpuIngestOps
		all.frames += p.frames
		all.sightings += p.sightings
		all.cnnInfers += p.cnnInfers
		all.deduped += p.deduped
		all.clusters += p.clusters
		all.storeBytes += p.storeBytes
		for k, v := range p.stats {
			all.stats[k] += v
		}
	}
	return all
}

// perLayer is the traced run's report: for every layer, work done, time
// busy and what it wasted, all measured from the harness's side of the
// layer's public entry points.
func (r *run) perLayer() []metric {
	// Observed and placed spans: durations and self times by name, and per
	// request the slowest leg, the router's own time and how far the
	// replayed children are from fitting the spans they were placed in.
	spans := r.replayedSpans()
	t := buildTree(spans)
	dur, self := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		dur[s.Name] = append(dur[s.Name], msOf(s.dur()))
		self[s.Name] = append(self[s.Name], msOf(t.self(s)))
	}
	var unaccounted, slowest, roundTrip, routerSelf []float64
	for _, root := range t.roots {
		if root.Name != "client.query" {
			continue
		}
		roundTrip = append(roundTrip, msOf(root.dur()))
		unaccounted = append(unaccounted, float64(t.unaccounted(root))/float64(max(root.dur(), 1)))
		for _, rh := range t.children[root.ID] {
			if rh.Name != "router.handler" {
				continue
			}
			routerSelf = append(routerSelf, msOf(t.self(rh)))
			worst := int64(0)
			for _, l := range t.children[rh.ID] {
				worst = max(worst, l.dur())
			}
			slowest = append(slowest, msOf(worst))
		}
	}

	// Replayed layers.
	var encode, decode, cursor, respKB, compile, trackCompile []float64
	exec := map[string][]float64{}
	for _, lt := range r.layers {
		encode = append(encode, msOf(lt.encodeNS))
		decode = append(decode, msOf(lt.decodeNS))
		respKB = append(respKB, lt.respKB)
		if lt.cursorNS > 0 {
			cursor = append(cursor, float64(lt.cursorNS)/1e3)
		}
		switch lt.rep.layer {
		case "track":
			trackCompile = append(trackCompile, float64(lt.rep.compileNS)/1e3)
		case "plan":
			compile = append(compile, float64(lt.rep.compileNS)/1e3)
		}
		if lt.executed {
			exec[lt.rep.layer] = append(exec[lt.rep.layer], msOf(lt.rep.executeNS))
		}
	}

	// What the kept uncached responses say about the work behind them; the
	// query layer's counters come from single-class executions only.
	var simLatency []float64
	var stallMS, pacedWallMS, frames, gt, examined, matched float64
	for _, l := range r.logs {
		for _, x := range l.kept {
			if x.first.Cached {
				continue
			}
			simLatency = append(simLatency, x.first.LatencyMS)
			stallMS += x.first.LatencyMS * float64(r.sz.pace) / 1e6
			pacedWallMS += x.ms
			if x.first.Form != api.FormFrames {
				continue
			}
			frames++
			gt += float64(x.first.GTInferences)
			for _, s := range x.first.Streams {
				examined += float64(s.ExaminedClusters)
				matched += float64(s.MatchedClusters)
			}
		}
	}

	// Subscription counters live on the nodes that ingested; their
	// /v1/stats was read just before the stop.
	ing := mergePhases(r.ingests[len(r.ingests)-1])
	hits, misses := r.stats["cache_hits"], r.stats["cache_misses"]
	overhead, nTraced, nPlain := r.traceOverhead()

	return []metric{
		p50("serve.handler_ms_p50", "ms", dur["serve.handler"]),
		tailOf("serve.handler_ms_p99", dur["serve.handler"]),
		p50("serve.self_ms_p50", "ms", self["serve.handler"]),
		share("serve.cache_hit_share", hits, hits+misses, "cache lookups"),
		p50("serve.resp_kb_p50", "KB", respKB),
		{Name: "serve.alloc_kb_per_req", Unit: "KB", Value: r.allocKB},
		count("serve.rejected", r.stats["rejected"]),

		p50("api.encode_ms_p50", "ms", encode),
		p50("api.decode_ms_p50", "ms", decode),
		p50("api.cursor_us_p50", "us", cursor),
		p50("api.delta_apply_ms_p50", "ms", r.deltaApply),

		p50("client.self_ms_p50", "ms", self["client.query"]),

		p50("plan.compile_us_p50", "us", compile),
		p50("plan.execute_ms_p50", "ms", exec["plan"]),
		tailOf("plan.execute_ms_p99", exec["plan"]),
		share("plan.early_exit_gpu_share", r.earlyGPU, r.exactGPU, fmt.Sprintf("GPU-ms of the same %d requests run exact", r.earlyN)),

		p50("query.execute_ms_p50", "ms", exec["query"]),
		{Name: "query.gt_inferences_per_query", Unit: "count", Value: ratio(gt, frames), N: int(frames)},
		{Name: "query.examined_per_query", Unit: "count", Value: ratio(examined, frames), N: int(frames)},
		share("query.matched_share", matched, examined, "examined clusters"),
		share("query.verdict_reuse_share", examined-gt, examined, "examined clusters"),

		p50("track.compile_us_p50", "us", trackCompile),
		p50("track.execute_ms_p50", "ms", exec["track"]),
		tailOf("track.execute_ms_p99", exec["track"]),

		{Name: "gpu.query_ms_total", Unit: "GPU-ms", Value: r.stats["query_gpu_ms"]},
		count("gpu.query_ops", r.stats["query_gpu_ops"]),
		{Name: "gpu.ingest_ms_total", Unit: "GPU-ms", Value: ing.gpuIngestMS},
		count("gpu.ingest_ops", float64(ing.gpuIngestOps)),
		p50("gpu.sim_latency_ms_p50", "ms", simLatency),
		share("gpu.paced_share", stallMS, pacedWallMS, "ms of uncached round trips"),

		{Name: "ingest.advance_ms_per_stream_s", Unit: "ms", Value: ratio(ing.advanceSec*1e3, ing.streamSec)},
		count("ingest.frames", float64(ing.frames)),
		count("ingest.sightings", float64(ing.sightings)),
		count("ingest.cnn_inferences", float64(ing.cnnInfers)),
		share("ingest.dedup_share", float64(ing.deduped), float64(ing.sightings), "sightings"),
		count("ingest.clusters", float64(ing.clusters)),

		{Name: "tune.sweep_s", Unit: "s", Value: ing.tuneSec},

		p50("kvstore.checkpoint_ms_p50", "ms", ing.checkpointMS),
		tailOf("kvstore.checkpoint_ms_p99", ing.checkpointMS),
		{Name: "kvstore.checkpoint_kb", Unit: "KB", Value: ratio(float64(ing.storeBytes)/1024, float64(len(ing.checkpointMS)))},
		share("kvstore.checkpoint_share", sum(ing.checkpointMS)/1e3, ing.stepSec, "s of ingest steps"),
		{Name: "kvstore.restore_ms_per_stream", Unit: "ms", Value: median(r.restoreSec) * 1e3 / float64(len(streamNames))},

		tailOf("subscribe.delta_ms_p99", ing.deltaMS),
		count("subscribe.evals", ing.stats["subscribe_evals"]),
		count("subscribe.delta_events", ing.stats["delta_events"]),
		count("subscribe.drops", ing.stats["delta_drops"]),
		{Name: "subscribe.items_per_delta", Unit: "count", Value: ratio(float64(ing.deltaItems), float64(ing.deltas)), N: ing.deltas},

		p50("router.handler_ms_p50", "ms", dur["router.handler"]),
		p50("router.leg_ms_p50", "ms", dur["router.leg"]),
		p50("router.slowest_leg_ms_p50", "ms", slowest),
		p50("router.self_ms_p50", "ms", routerSelf),
		share("router.self_share", sum(routerSelf), sum(roundTrip), "ms of traced round trips"),
		{Name: "router.resp_kb_p50", Unit: "KB", Value: r.routerRespKB()},
		count("router.retries", r.routerStat["shard_retries"]),

		p50("trace.unaccounted_share", "ratio", unaccounted),
		{Name: "trace.overhead_share", Unit: "ratio", Value: overhead, N: nTraced,
			Base: fmt.Sprintf("the run's median round trip; from %d traced and %d untraced cursor continuations", nTraced, nPlain)},
	}
}

// tailOf is the tail half of timing, for a layer's sample.
func tailOf(name string, ms []float64) metric {
	_, tail := timing("", name, ms, 0)
	return tail
}

// traceOverhead is what carrying spans costs a request, as a share of the
// workload's median round trip. Half the requests of a traced run carry
// spans, chosen by a seeded coin, and meet the same server at the same
// time as the other half. The cost of a span does not depend on what the
// request asks, so it is read off the one class of request that costs the
// same every time — cursor continuations, always a page of twenty items
// out of the result cache — as the gap between the two halves' medians.
func (r *run) traceOverhead() (share float64, nTraced, nPlain int) {
	var traced, plain, all []float64
	for _, l := range r.logs {
		for i, ms := range l.ms {
			all = append(all, ms)
			switch {
			case l.class[i] != int(numKinds):
			case l.traced[i]:
				traced = append(traced, ms)
			default:
				plain = append(plain, ms)
			}
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		return 0, 0, 0
	}
	return (median(traced) - median(plain)) / median(all), len(traced), len(plain)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// routerRespKB is the median size of the merged responses the router
// sent: those the clients kept, re-encoded.
func (r *run) routerRespKB() float64 {
	if r.env.cluster == nil {
		return 0
	}
	var kb []float64
	for _, l := range r.logs {
		for _, x := range l.kept {
			kb = append(kb, float64(len(mustJSON(x.first)))/1024)
		}
	}
	return median(kb)
}

// layerShares says where the blocking time of the traced operations went:
// for every root span the self times along its blocking path, summed by
// span name, as shares of the total. It is the table that shows which
// layer a workload exercises and which it leaves alone.
func (r *run) layerShares() string {
	t := buildTree(r.replayedSpans())
	// Every ingest step is in the tree but only the replayed sample of the
	// requests: a request stands for all the traced requests it was
	// sampled from.
	requests := 0
	for _, s := range r.rec.spans {
		if s.Name == "client.query" {
			requests++
		}
	}
	perRequest := ratio(float64(requests), float64(len(r.replayedReq)))
	byLayer := map[string]float64{}
	total := 0.0
	for _, root := range t.roots {
		weight := 1.0
		if root.Name == "client.query" {
			weight = perRequest
		}
		for _, s := range t.blocking(root) {
			ns := s.dur()
			if len(t.children[s.ID]) > 0 {
				ns = t.self(s)
			}
			byLayer[s.Name] += weight * float64(ns)
			total += weight * float64(ns)
		}
	}
	out := fmt.Sprintf("blocking time, of %.0f ms traced:", total/1e6)
	for _, layer := range sortedKeys(byLayer) {
		out += fmt.Sprintf(" %s %.1f%%", layer, 100*byLayer[layer]/total)
	}
	return out
}

// replayedSpans are the spans the breakdown is computed over: the ingest
// steps, and the requests whose layers were replayed. A traced request
// that was not kept for replay has nothing under its handler span, and
// would pass the whole handler off as the serve layer's own time.
func (r *run) replayedSpans() []span {
	var out []span
	for _, s := range r.rec.spans {
		if s.Class == "ingest" || r.replayedReq[s.Req] {
			out = append(out, s)
		}
	}
	return out
}
