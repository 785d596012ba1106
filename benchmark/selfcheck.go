package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// Each workload runs in a child process of its own, so that peak memory
// and heap state are the workload's and not its predecessor's.

// child runs one workload in a fresh process and returns its result line.
func child(workload string, seed uint64, seconds float64, trace bool, show bool) (*jsonResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", t)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if show {
		os.Stdout.Write(bytes.Join(lines[:len(lines)-1], []byte("\n")))
		fmt.Println()
	}
	var res jsonResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", workload, runErr)
		}
		return nil, fmt.Errorf("%s: no result line: %w", workload, err)
	}
	return &res, nil
}

// runAll runs every workload once and prints every metric.
func runAll(seed uint64, seconds float64, trace bool) int {
	code := 0
	for _, w := range workloadNames {
		res, err := child(w, seed, seconds, trace, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// bound is one end-to-end metric's regression bound, as BENCHMARK.json
// states it.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadBounds reads the end-to-end bounds from BENCHMARK.json in the
// working directory (the root of the checkout).
func loadBounds() ([]bound, error) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return doc.EndToEnd, nil
}

// selfCheck runs every workload twice on one seed and reports, for every
// end-to-end metric, both values, the relative gap and the bound. It is
// the tool that tells noise from change: a gap beyond its bound between
// two runs of one commit means the bound (or the workload's size) is too
// tight to judge a change by. Exact-count metrics must agree to within
// floating-point summation order.
func selfCheck(seed uint64, seconds float64) int {
	bounds, err := loadBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range workloadNames {
		var runs [2]*jsonResult
		for i := range runs {
			if runs[i], err = child(w, seed, seconds, false, false); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if !runs[i].Correct {
				fmt.Printf("%s run %d: %d of %d operations failed\n", w, i+1, runs[i].Failed, runs[i].Attempted)
				code = 1
			}
		}
		fmt.Printf("# %s, seed %d, two runs\n", w, seed)
		fmt.Printf("%-32s %14s %14s %9s %7s\n", "metric", "run 1", "run 2", "gap", "bound")
		for _, b := range bounds {
			a, c := runs[0].Metrics[b.Name], runs[1].Metrics[b.Name]
			gap := math.Abs(a.Value-c.Value) / math.Max(math.Abs(a.Value), math.SmallestNonzeroFloat64)
			limit, verdict := b.Bound, ""
			if exactMetrics[b.Name] {
				limit = 1e-9
			}
			if gap > limit {
				verdict = "  EXCEEDED"
				code = 1
			}
			fmt.Printf("%-32s %14.6g %14.6g %8.2f%% %6.0f%%%s %s\n", b.Name, a.Value, c.Value, gap*100, b.Bound*100, verdict, a.Unit)
		}
	}
	return code
}
