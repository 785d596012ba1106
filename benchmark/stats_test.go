package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty sample: %g", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 3 {
		t.Errorf("median of four = %g, want the lower middle 3", got)
	}
}

func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 98}, {500, 98}, {499, 95}, {200, 95}, {199, 90}, {100, 90}, {40, 75}, {20, 50}, {5, 50}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestTimingCountsFailuresAsMissing(t *testing.T) {
	ms := make([]float64, 990)
	for i := range ms {
		ms[i] = float64(i + 1)
	}
	p50, tail := timing("p50", "p99", ms, 10)
	if p50.N != 1000 || tail.N != 1000 {
		t.Fatalf("n = %d/%d, want 1000 (failures are samples)", p50.N, tail.N)
	}
	if p50.Value != 500 || tail.Value != 990 || tail.Note != "" {
		t.Errorf("p50 %g tail %g note %q", p50.Value, tail.Value, tail.Note)
	}
	_, tail = timing("p50", "p99", ms, 11)
	if !math.IsInf(tail.Value, 1) {
		t.Errorf("eleven failures in 1001 must push p99 to +Inf, got %g", tail.Value)
	}
	_, tail = timing("p50", "p99", ms[:300], 0)
	if tail.Value != 285 || tail.Note == "" {
		t.Errorf("300 samples fall back to p95=285 and say so, got %g %q", tail.Value, tail.Note)
	}
}

func TestShareCarriesItsBase(t *testing.T) {
	m := share("hit", 3, 12, "requests")
	if m.Value != 0.25 || m.Base != "12 requests" {
		t.Errorf("%+v", m)
	}
	if share("none", 1, 0, "x").Value != 0 {
		t.Error("a zero base must not divide")
	}
}
