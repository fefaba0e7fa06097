package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	for _, c := range []struct{ got, want float64 }{{q1, 2.75}, {med, 5.5}, {q3, 8.25}} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
		}
	}
}

func TestMidMeanDropsOuterQuarters(t *testing.T) {
	// 1 and 2 are the low quarter, 100 and 7 the high one.
	if got := midMean([]float64{100, 1, 5, 3, 2, 4, 6, 7}); got != 4.5 {
		t.Errorf("midMean = %v, want 4.5", got)
	}
}

func TestVerdict(t *testing.T) {
	lat := spec{Name: "latency_p50_ms", Better: "lower", Bound: 0.1}
	pair := func(b, c []float64) (sample, sample) {
		return sample{all: b, paired: b}, sample{all: c, paired: c}
	}
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.02, 9.98}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name   string
		change []float64
		want   string
	}{
		{"faster everywhere", scale(base, 0.8), "improved"},
		{"same", base, "unchanged"},
		{"slower within bound", scale(base, 1.05), "unchanged"},
		{"slower beyond bound", scale(base, 1.2), "regressed"},
	} {
		b, ch := pair(base, c.change)
		if got, _ := verdict(lat, b, ch); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	noisy := []float64{5, 15, 8, 12, 10, 6, 14, 9, 11, 10}
	b, ch := pair(noisy, scale(noisy, 0.97))
	if got, _ := verdict(lat, b, ch); got != "unresolved" {
		t.Errorf("noisy parent: verdict %q, want unresolved", got)
	}
	qps := spec{Name: "qps", Better: "higher", Bound: 0.1}
	b, ch = pair(base, scale(base, 1.3))
	if got, wins := verdict(qps, b, ch); got != "improved" || wins != 10 {
		t.Errorf("higher-is-better: verdict %q with %d wins, want improved with 10", got, wins)
	}
}
