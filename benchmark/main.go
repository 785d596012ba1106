// Command benchmark is the served-path benchmark of this repository: it
// boots focus-serve (and a two-shard focus-router) in-process over real
// loopback HTTP, drives one of four named workloads from two closed-loop
// clients, checks every kept answer against a twin system, and prints
// every metric by name with its unit and sample count. See README.md.
//
//	go run . -workload hot_read -seed 1 -seconds 10 -trace 0
//	go run . -workload all -seed 1
//	go run . -selfcheck -seed 1
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (end-to-end with -trace 0, per-layer
// with -trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
)

// defaultSeconds is the measuring time BENCHMARK.json records.
const defaultSeconds = 10

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

func (r *result) json() jsonResult {
	out := jsonResult{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]jsonMetric, len(r.metrics))}
	for _, m := range r.metrics {
		// JSON has no infinity; a tail pushed beyond every sample by failed
		// requests reads as the largest finite number.
		out.Metrics[m.Name] = jsonMetric{Value: math.Min(m.Value, math.MaxFloat64), Unit: m.Unit}
	}
	return out
}

// print writes the human-readable report: every metric with its unit, its
// sample count and, for a ratio, its base.
func (r *result) print() {
	fmt.Printf("# %s: %d operations attempted, %d failed\n", r.workload, r.attempted, r.failed)
	for _, e := range r.errs {
		fmt.Printf("#   failed: %s\n", e)
	}
	for _, note := range r.notes {
		fmt.Printf("# %s\n", note)
	}
	for _, m := range r.metrics {
		fmt.Println(m)
	}
}

func runOne(workload string, seed uint64, seconds float64, trace bool) (*result, error) {
	sz, err := sizesFor(workload, seconds)
	if err != nil {
		return nil, err
	}
	return runWorkload(workload, seed, sz, trace)
}

func main() {
	workload := flag.String("workload", "all", "hot_read, cold_scan, live_ingest, routed_miss, or all")
	seed := flag.Uint64("seed", 1, "seed of the corpus and of every request sequence")
	seconds := flag.Float64("seconds", defaultSeconds, "measuring time the fixed work is sized for")
	trace := flag.Int("trace", 0, "1: record spans and report per-layer metrics instead of end-to-end ones")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice on one seed and compare the runs against the bounds")
	flag.Parse()
	if *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name|all> -seed <n> -seconds <s> -trace <0|1> | -selfcheck")
		os.Exit(2)
	}
	if *selfcheck {
		os.Exit(selfCheck(*seed, *seconds))
	}
	if *workload == "all" {
		os.Exit(runAll(*seed, *seconds, *trace == 1))
	}
	res, err := runOne(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	res.print()
	line, err := json.Marshal(res.json())
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.correct() {
		os.Exit(1)
	}
}
