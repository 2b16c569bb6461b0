// Command mcstat analyses a trace: per-core lengths and working sets,
// LRU and OPT miss-curve samples, and the fault-optimal static partition
// for a given cache size — the profiling companion to mcsim.
//
// Usage:
//
//	mcstat -trace trace.txt -k 32
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mcpaging/internal/mattson"
	"mcpaging/internal/metrics"
	"mcpaging/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "input trace (required)")
		k         = flag.Int("k", 32, "cache size for curve samples and partition advice")
		optCurve  = flag.Bool("opt", false, "also compute Belady (OPT) curves (slower)")
	)
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "mcstat: -trace is required")
		os.Exit(2)
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	rs, err := trace.ReadAuto(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	fmt.Printf("trace: %s\ncores: %d, requests: %d, distinct pages: %d, disjoint: %v\n\n",
		*tracePath, rs.NumCores(), rs.TotalLen(), len(rs.Universe()), rs.Disjoint())

	samples := curveSamples(*k)
	headers := []string{"core", "length", "distinct", "ws_avg", "ws_max"}
	for _, s := range samples {
		headers = append(headers, fmt.Sprintf("lru@%d", s))
	}
	if *optCurve {
		for _, s := range samples {
			headers = append(headers, fmt.Sprintf("opt@%d", s))
		}
	}
	tbl := metrics.NewTable(fmt.Sprintf("per-core profile (working set over %d-request windows; miss rates at sampled cache sizes)", 4**k), headers...)
	for j, seq := range rs {
		wsAvg, wsMax := seq.WorkingSet(4 * *k)
		row := []interface{}{j, len(seq), len(seq.Pages()), wsAvg, wsMax}
		lru := mattson.LRUCurve(seq, *k)
		for _, s := range samples {
			row = append(row, rate(lru[s], len(seq)))
		}
		if *optCurve {
			opt := mattson.OPTCurve(seq, *k)
			for _, s := range samples {
				row = append(row, rate(opt[s], len(seq)))
			}
		}
		tbl.AddRow(row...)
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fatal(err)
	}

	part, err := mattson.OptimalLRU(context.Background(), rs, *k)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\noptimal static partition for K=%d (per-part LRU): %v, predicted faults %d (rate %.3f)\n",
		*k, part.Sizes, part.Faults, float64(part.Faults)/float64(rs.TotalLen()))
}

// curveSamples picks representative sizes 1, K/4, K/2, K (deduplicated,
// ascending).
func curveSamples(k int) []int {
	cand := []int{1, k / 4, k / 2, k}
	var out []int
	for _, c := range cand {
		if c < 1 {
			continue
		}
		if len(out) == 0 || c > out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

func rate(misses int64, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(misses) / float64(n)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcstat:", err)
	os.Exit(1)
}
