package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// benchmarkSpec is the part of BENCHMARK.json compare needs.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareMain implements `mcbench compare DIR_A DIR_B`: for every
// end-to-end metric of every workload it sets the runs in DIR_B (the
// change) against those in DIR_A (the parent) and gives a verdict under
// the bound BENCHMARK.json fixes. Run on two sets from one commit, it is
// the agreement check: every row must read "unchanged".
func compareMain(args []string) int {
	fs := flag.NewFlagSet("mcbench compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "", "BENCHMARK.json holding the bounds (default: ./BENCHMARK.json, else ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: mcbench compare [-benchmark FILE] DIR_A DIR_B")
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench compare:", err)
		return 2
	}
	a, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench compare:", err)
		return 2
	}
	b, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mcbench compare:", err)
		return 2
	}
	fmt.Printf("# A = %s (%d runs), B = %s (%d runs); wins = pairs where B reads better\n",
		fs.Arg(0), len(a), fs.Arg(1), len(b))
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tA q1..q3\tB median\tB q1..q3\tB wins\tbound\tverdict\t")
	code := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) < 2 || len(vb) < 2 {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t\t\t\tmissing (need 2+ runs a side)\t\n", w.Name, m.Name)
				code = 1
				continue
			}
			c := judge(va, vb, m.Better == "higher", m.Bound, absFloor[m.Name])
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g..%.4g\t%.4g\t%.4g..%.4g\t%d/%d\t%.2f\t%s\t\n", w.Name, m.Name,
				c.medA, c.q1A, c.q3A, c.medB, c.q1B, c.q3B, c.wins, c.pairs, m.Bound, c.verdict)
			if c.verdict == "worse" || c.verdict == "unresolved" {
				code = 1
			}
		}
	}
	tw.Flush()
	for _, w := range spec.Workloads {
		digests := digestsBySeed(append(append([]runRecord(nil), a...), b...), w.Name)
		for seed, ds := range digests {
			status := "identical"
			if len(ds) > 1 {
				status = "DIFFERS"
				code = 1
			}
			fmt.Printf("results_digest %s seed %d: %s across all runs (%d distinct)\n", w.Name, seed, status, len(ds))
		}
	}
	return code
}

// comparison is one (workload, metric) row.
type comparison struct {
	medA, q1A, q3A float64
	medB, q1B, q3B float64
	wins, pairs    int
	verdict        string
}

// minClaimPairs is the fewest alternating pairs a gain may rest on.
const minClaimPairs = 10

// absFloor is, per metric, the smallest worsening in the metric's unit
// that counts at all: set-ups of a few tens of milliseconds move by more
// than their bound's share from host noise alone.
var absFloor = map[string]float64{"setup_s": 0.05}

// judge applies the rule for claiming a gain in a small sandbox: B
// improves on A only when at least minClaimPairs pairs were run, B wins
// at least nine tenths of them (ties count for neither) and the medians
// differ by more than A's interquartile distance. B is worse when its
// median falls behind A's by more than the tolerance — bound × A's
// median, but at least floor — unless A's own interquartile distance
// exceeds the tolerance, in which case the row is unresolved unless
// every B run beats every A run.
func judge(a, b []float64, higherBetter bool, bound, floor float64) comparison {
	var c comparison
	c.q1A, c.medA, c.q3A = quartiles(a)
	c.q1B, c.medB, c.q3B = quartiles(b)
	better := func(x, y float64) bool { // x reads better than y
		if higherBetter {
			return x > y
		}
		return x < y
	}
	c.pairs = min(len(a), len(b))
	for i := 0; i < c.pairs; i++ {
		if better(b[i], a[i]) {
			c.wins++
		}
	}
	gain := c.medA - c.medB
	if higherBetter {
		gain = -gain
	}
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && better(x, y)
		}
	}
	improved := c.pairs >= minClaimPairs && float64(c.wins) >= 0.9*float64(c.pairs) && gain > c.q3A-c.q1A
	tol := math.Max(bound*math.Abs(c.medA), floor)
	switch {
	case c.q3A-c.q1A > tol && !allBetter:
		c.verdict = "unresolved"
	case improved:
		c.verdict = "improved"
	case -gain > tol:
		c.verdict = "worse"
	default:
		c.verdict = "unchanged"
	}
	return c
}

// values lists a metric of a workload over runs, in run order.
func values(runs []runRecord, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Workloads[workload].Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func digestsBySeed(runs []runRecord, workload string) map[int64]map[string]bool {
	out := map[int64]map[string]bool{}
	for _, r := range runs {
		wr, ok := r.Workloads[workload]
		if !ok {
			continue
		}
		if out[r.Seed] == nil {
			out[r.Seed] = map[string]bool{}
		}
		out[r.Seed][wr.Digest] = true
	}
	return out
}

// loadRuns reads every untraced result file in dir, oldest first.
func loadRuns(dir string) ([]runRecord, error) {
	files, err := filepath.Glob(filepath.Join(dir, "result-*.json"))
	if err != nil {
		return nil, err
	}
	var runs []runRecord
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r runRecord
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if r.Trace == 0 {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", dir)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].Start.Before(runs[j].Start) })
	return runs, nil
}

func loadSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	candidates := []string{path}
	if path == "" {
		candidates = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	for _, p := range candidates {
		b, err := os.ReadFile(p)
		if errors.Is(err, os.ErrNotExist) && path == "" {
			continue
		}
		if err != nil {
			return spec, err
		}
		if err := json.Unmarshal(b, &spec); err != nil {
			return spec, fmt.Errorf("%s: %w", p, err)
		}
		return spec, nil
	}
	return spec, errors.New("BENCHMARK.json not found; pass -benchmark")
}
