package main

import (
	"fmt"
	"math"
	"sort"
)

// This file holds the reporting rules every number the harness prints
// obeys: nearest-rank percentiles, a tail percentile that is only as high
// as the sample supports, timings printed with their sample count, and
// ratios printed with their base.

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest element with at least p percent of the sample at or below it.
// It never interpolates, so every reported value is one that was measured.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the nearest-rank p50 of an unsorted sample (the input is not
// reordered).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// tailCandidates are the percentiles a tail metric may report, highest
// first.
var tailCandidates = []float64{99, 98, 95, 90, 75, 50}

// tailPercentile picks the highest candidate percentile that leaves at
// least ten samples beyond it: a p99 over 300 samples would be set by its
// three slowest requests, so the report falls back (to p95 there) and
// says which percentile it used.
func tailPercentile(n int) float64 {
	for _, p := range tailCandidates {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return p
		}
	}
	return 50
}

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	// N is the number of samples a timing or a distribution statistic was
	// taken over; 0 for plain counts.
	N int
	// Base is the denominator of a ratio ("of 120000 requests"), printed
	// so that a share can be turned back into a count.
	Base string
	// Note carries a reporting caveat, e.g. the percentile a tail metric
	// fell back to.
	Note string
}

func (m metric) String() string {
	s := fmt.Sprintf("%-34s %14.6g %-7s", m.Name, m.Value, m.Unit)
	if m.N > 0 {
		s += fmt.Sprintf(" n=%d", m.N)
	}
	if m.Base != "" {
		s += " of " + m.Base
	}
	if m.Note != "" {
		s += " (" + m.Note + ")"
	}
	return s
}

// timing summarises a latency sample in milliseconds as two metrics: the
// median, and the tail percentile the sample supports under the name the
// caller gives the p99 (the note says so when it is not p99). Failed
// operations are passed as missing: they count as slower than any limit,
// so they sit beyond every percentile, pushing the reported tail up to
// +Inf once they outnumber the samples beyond it.
func timing(p50Name, tailName string, ms []float64, missing int) (metric, metric) {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	for i := 0; i < missing; i++ {
		s = append(s, math.Inf(1))
	}
	n := len(s)
	tp := tailPercentile(n)
	tail := metric{Name: tailName, Unit: "ms", Value: percentile(s, tp), N: n}
	if tp != 99 {
		tail.Note = fmt.Sprintf("p%g: fewer than ten samples beyond p99", tp)
	}
	return metric{Name: p50Name, Unit: "ms", Value: percentile(s, 50), N: n}, tail
}

// share is part/whole as a ratio metric carrying its base.
func share(name string, part, whole float64, what string) metric {
	v := 0.0
	if whole != 0 {
		v = part / whole
	}
	return metric{Name: name, Unit: "ratio", Value: v, Base: fmt.Sprintf("%.6g %s", whole, what)}
}
