package experiments

import (
	"fmt"
	"slices"
	"strings"

	"mcpaging/internal/core"
	"mcpaging/internal/metrics"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/workload"
)

func init() {
	register("E13", runE13)
}

// runE13 — the practical comparison the paper's introduction motivates:
// how do shared, statically partitioned, and dynamically partitioned
// strategies compare across eviction policies and workload families?
// Reported per workload: total faults, fairness (Jain index over
// per-core faults), and makespan.
func runE13(cfg Config) (*Result, error) {
	length := 4000
	if cfg.Quick {
		length = 500
	}
	p, k, tau := 4, 16, 2
	res := &Result{
		ID:    "E13",
		Title: "Policy × workload matrix (shared vs partitioned)",
		Claim: "Section 4 framing: strategies = partition policy × eviction policy; no single choice dominates",
	}
	mix, err := workload.Mix(workload.Spec{
		Cores: p, Length: length, Pages: 24, Kind: workload.Uniform, Seed: cfg.Seed + 13,
	})
	if err != nil {
		return nil, err
	}

	// The strategy column is spelled in strategyspec's grammar — the same
	// registry the CLIs and the server build from — so the experiment
	// stays in lockstep with the composable strategy set.
	var specs []string
	for _, pol := range []string{"LRU", "FIFO", "CLOCK", "LFU", "MARK", "RMARK", "RAND", "ARC", "SLRU", "LRU2", "TINYLFU", "FWF"} {
		specs = append(specs, "S("+pol+")")
	}
	specs = append(specs, "sP[even](LRU)", "sP[opt](LRU)", "dP(LRU)", "dP[ucp](LRU)", "dP[fair](LRU)")

	kinds := workload.Kinds()
	runs := make([][]sim.Result, len(kinds)) // [workload][spec]
	for ki, kind := range kinds {
		rs := mix[kind]
		params := core.Params{K: k, Tau: tau}
		// Solo baselines for weighted speedup: each core alone with the
		// full cache under LRU.
		solo := make([]int64, p)
		for j := range rs {
			one := core.Instance{R: core.RequestSet{rs[j]}, P: params}
			sr, err := sim.Run(one, sharedLRU(), nil)
			if err != nil {
				return nil, err
			}
			solo[j] = sr.Finish[0]
		}
		// Every strategy row replays the same workload, so one runner
		// serves the whole column: the occurrence index is built once.
		rn, err := sim.NewRunner(rs)
		if err != nil {
			return nil, err
		}
		tbl := metrics.NewTable(
			fmt.Sprintf("workload=%s (p=%d, K=%d, τ=%d, n=%d)", kind, p, k, tau, rs.TotalLen()),
			"strategy", "faults", "fault_rate", "jain_fairness", "weighted_speedup", "makespan")
		for _, spec := range specs {
			st, err := strategyspec.Build(spec, rs, k, cfg.Seed+99)
			if err != nil {
				return nil, err
			}
			r, err := rn.Run(params, st, nil)
			if err != nil {
				return nil, err
			}
			runs[ki] = append(runs[ki], r)
			tbl.AddRow(spec, r.TotalFaults(),
				float64(r.TotalFaults())/float64(rs.TotalLen()),
				metrics.JainIndex(r.Faults),
				metrics.WeightedSpeedup(rs, r, solo), r.Makespan)
		}
		res.Tables = append(res.Tables, tbl)
	}
	res.Notes = matrixNotes(kinds, specs, runs)
	return res, nil
}

// matrixNotes reads E13's runs, indexed [workload][strategy in specs
// order]: the strategies with the fewest faults on each workload,
// whether one has the fewest on every workload, and whether S(LRU) and
// dP(LRU) coincide (Lemma 3).
func matrixNotes(kinds []workload.Kind, specs []string, runs [][]sim.Result) []string {
	var wins, differ []string
	everywhere := slices.Clone(specs) // the strategies with the fewest faults so far
	lru, dp := slices.Index(specs, "S(LRU)"), slices.Index(specs, "dP(LRU)")
	for ki, kind := range kinds {
		at := 0
		for si, r := range runs[ki] {
			if r.TotalFaults() < runs[ki][at].TotalFaults() {
				at = si
			}
		}
		var names []string
		for si, r := range runs[ki] {
			if r.TotalFaults() == runs[ki][at].TotalFaults() {
				names = append(names, specs[si])
			}
		}
		everywhere = slices.DeleteFunc(everywhere, func(s string) bool { return !slices.Contains(names, s) })
		wins = append(wins, fmt.Sprintf("%s %s %d (Jain %.4g)", kind, strings.Join(names, " = "),
			runs[ki][at].TotalFaults(), metrics.JainIndex(runs[ki][at].Faults)))
		if a, b := runs[ki][lru], runs[ki][dp]; !slices.Equal(a.Faults, b.Faults) || !slices.Equal(a.Finish, b.Finish) {
			differ = append(differ, string(kind))
		}
	}
	notes := []string{"fewest faults per workload: " + strings.Join(wins, "; "),
		"no strategy has the fewest faults on every workload"}
	if len(everywhere) > 0 {
		notes[1] = strings.Join(everywhere, " = ") + " has the fewest faults on every workload"
	}
	if len(differ) > 0 {
		return append(notes, "VIOLATION: S(LRU) and dP(LRU) differ on "+strings.Join(differ, ", ")+" (Lemma 3)")
	}
	return append(notes, "S(LRU) and dP(LRU) coincide on every workload (Lemma 3)")
}
