package main

import "testing"

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), whose values the reference column
// holds, including its extrapolation for two samples.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3.5, 1.25, 9, 2, 7}, [3]float64{1.625, 3.5, 8.0}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, tc := range []struct {
		name         string
		a, b         []float64
		higherBetter bool
		floor        float64
		want         string
	}{
		{"same runs", base, base, true, 0, "unchanged"},
		{"small drift within bound", base, scale(base, 0.97), true, 0, "unchanged"},
		{"throughput up 20%", base, scale(base, 1.2), true, 0, "improved"},
		{"throughput down 20%", base, scale(base, 0.8), true, 0, "worse"},
		{"latency up 20%", base, scale(base, 1.2), false, 0, "worse"},
		{"latency down 20%", base, scale(base, 0.8), false, 0, "improved"},
		{"parent spread wider than bound", noisy, scale(base, 0.95), true, 0, "unresolved"},
		{"every change run better despite spread", noisy, scale(base, 2), true, 0, "improved"},
		{"too few pairs to claim a gain", base[:5], scale(base[:5], 1.2), true, 0, "unchanged"},
		{"set-up noise under the absolute floor", scale(noisy, 0.001), scale(base, 0.0012), false, 0.05, "unchanged"},
		{"set-up worse beyond the absolute floor", scale(base, 0.001), scale(base, 0.1), false, 0.05, "worse"},
	} {
		if got := judge(tc.a, tc.b, tc.higherBetter, 0.1, tc.floor).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
