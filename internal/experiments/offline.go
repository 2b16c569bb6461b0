package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"mcpaging/internal/core"
	"mcpaging/internal/metrics"
	"mcpaging/internal/npc"
	"mcpaging/internal/offline"
)

func init() {
	register("E9", runE9)
	register("E10", runE10)
	register("E11", runE11)
	register("E12", runE12)
}

// tinyInstance draws a random instance small enough for exhaustive
// search.
func tinyInstance(rng *rand.Rand, maxP, maxLen int) core.Instance {
	p := 1 + rng.Intn(maxP)
	k := p + 1 + rng.Intn(2)
	tau := rng.Intn(3)
	rs := make(core.RequestSet, p)
	for j := range rs {
		n := 1 + rng.Intn(maxLen)
		s := make(core.Sequence, n)
		for i := range s {
			s[i] = core.PageID(10*j + rng.Intn(3))
		}
		rs[j] = s
	}
	return core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
}

// runE9 — Theorem 2 / Theorem 3: the 3-PARTITION (and 4-PARTITION)
// reductions are exercised end to end: solver → constructive schedule →
// bounds met with equality; Algorithm 2 confirms feasibility on the
// small gadget and rejects an over-tight variant.
func runE9(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 9))
	res := &Result{
		ID:    "E9",
		Title: "NP-completeness gadgets, executable",
		Claim: "Theorem 2 (3-PARTITION → PIF) and Theorem 3 (4-PARTITION → MAX-PIF): schedules exist iff the partition exists",
	}
	tbl := metrics.NewTable("Constructive schedules on reduction instances",
		"arity", "groups", "B", "tau", "p", "K", "bounds_met", "tight")
	trials := 8
	if cfg.Quick {
		trials = 4
	}
	for trial := 0; trial < trials; trial++ {
		arity := 3
		if trial%2 == 1 {
			arity = 4
		}
		b := 12 + rng.Intn(8)
		if arity == 4 {
			b = 16 + rng.Intn(8)
		}
		groups := 1 + rng.Intn(3)
		tau := rng.Intn(3)
		pi, err := npc.GenerateYes(rng, arity, groups, b)
		if err != nil {
			return nil, err
		}
		sol, ok := pi.Solve()
		if !ok {
			return nil, fmt.Errorf("generated yes-instance unsolvable")
		}
		red, err := npc.Reduce(pi, tau)
		if err != nil {
			return nil, err
		}
		met, counts, err := npc.VerifySchedule(red, sol)
		if err != nil {
			return nil, err
		}
		tight := true
		for i, f := range counts {
			if f != red.PIF.Bounds[i] {
				tight = false
			}
		}
		tbl.AddRow(arity, groups, b, tau, len(pi.S), red.PIF.Inst.P.K, met, tight)
		if !met {
			res.Notes = append(res.Notes, "VIOLATION: constructive schedule missed a bound")
		}
	}
	res.Tables = append(res.Tables, tbl)

	// Algorithm 2 on the smallest gadget, both directions.
	yes := npc.PartitionInstance{S: []int{2, 2, 2}, B: 6, Arity: 3}
	red, err := npc.Reduce(yes, 0)
	if err != nil {
		return nil, err
	}
	feasible, st1, err := offline.DecidePIF(red.PIF, offline.Options{})
	if err != nil {
		return nil, err
	}
	tight := red.PIF
	tight.Bounds = append([]int64(nil), tight.Bounds...)
	tight.Bounds[0]--
	infeasible, st2, err := offline.DecidePIF(tight, offline.Options{})
	if err != nil {
		return nil, err
	}
	dp := metrics.NewTable("Algorithm 2 on the B=6 gadget (p=3, K=4, τ=0)",
		"variant", "answer", "dp_states")
	dp.AddRow("exact bounds (yes-gadget)", feasible, st1.States)
	dp.AddRow("one bound tightened", infeasible, st2.States)
	res.Tables = append(res.Tables, dp)
	if feasible && !infeasible {
		res.Notes = append(res.Notes, "Algorithm 2 agrees with the gadget arithmetic in both directions")
	} else {
		res.Notes = append(res.Notes, "VIOLATION: Algorithm 2 disagrees with the gadget")
	}

	// MAX-PIF side (Theorem 3): MaxGroups on a partially solvable set.
	partial := npc.PartitionInstance{S: []int{4, 4, 5, 4, 4, 6}, B: 13, Arity: 3}
	mg := metrics.NewTable("MAX-3-PARTITION on a partially coverable multiset",
		"S", "B", "max_groups")
	mg.AddRow(fmt.Sprintf("%v", partial.S), partial.B, partial.MaxGroups())
	res.Tables = append(res.Tables, mg)
	return res, nil
}

// runE10 — Theorem 6 / Algorithm 1: the FTF dynamic program matches
// exhaustive search everywhere, and its state count scales polynomially
// in n (per the O(n^{K+p}(τ+1)^p) bound) on a fixed-(p,K) family.
func runE10(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 10))
	res := &Result{
		ID:    "E10",
		Title: "Algorithm 1 (minimum total faults): correctness and scaling",
		Claim: "Theorem 6: FTF solvable in O(n^{K+p}(τ+1)^p) for constant p, K",
	}
	trials := 150
	if cfg.Quick {
		trials = 40
	}
	agree := 0
	for trial := 0; trial < trials; trial++ {
		in := tinyInstance(rng, 2, 5)
		sol, err := offline.SolveFTF(in, offline.Options{})
		if err != nil {
			return nil, err
		}
		brute, err := offline.BruteFTF(in)
		if err != nil {
			return nil, err
		}
		if sol.Faults == brute {
			agree++
		}
	}
	ctbl := metrics.NewTable("DP vs exhaustive search on random tiny instances",
		"trials", "agreements")
	ctbl.AddRow(trials, agree)
	res.Tables = append(res.Tables, ctbl)
	if agree != trials {
		res.Notes = append(res.Notes, "VIOLATION: DP disagreed with exhaustive search")
	}

	// Scaling in n with p=2, K=3, τ=1 fixed. The sequences are nested
	// prefixes of one random pair, so the state counts are comparable
	// across rows.
	ns := []int{2, 3, 4, 5, 6}
	if cfg.Quick {
		ns = []int{2, 3, 4}
	}
	full := core.RequestSet{make(core.Sequence, ns[len(ns)-1]), make(core.Sequence, ns[len(ns)-1])}
	for j := range full {
		for i := range full[j] {
			full[j][i] = core.PageID(10*j + rng.Intn(3))
		}
	}
	var trends []string
	for _, sc := range []struct {
		title, header, param string
		xs                   []int
		inst                 func(x int) core.Instance
	}{
		{"Algorithm 1 state count vs n (p=2, K=3, τ=1)", "n_per_core", "n", ns, func(n int) core.Instance {
			return core.Instance{R: core.RequestSet{full[0][:n], full[1][:n]}, P: core.Params{K: 3, Tau: 1}}
		}},
		{"Algorithm 1 state count vs τ (p=2, K=3, n=4)", "tau", "τ", []int{0, 1, 2, 3}, func(tau int) core.Instance {
			return core.Instance{R: core.RequestSet{{0, 1, 2, 0}, {10, 11, 10, 11}}, P: core.Params{K: 3, Tau: tau}}
		}},
		// Every page is requested once, so only the choice of which
		// cached page to evict varies with K.
		{"Algorithm 1 state count vs K (p=2, n=4, τ=1, w=8 pages)", "K", "K", []int{2, 3, 4, 5, 6}, func(k int) core.Instance {
			return core.Instance{R: core.RequestSet{{0, 1, 2, 3}, {10, 11, 12, 13}}, P: core.Params{K: k, Tau: 1}}
		}},
	} {
		tbl := metrics.NewTable(sc.title, sc.header, "states", "min_faults")
		counts := make([]int, len(sc.xs))
		for i, x := range sc.xs {
			sol, err := offline.SolveFTF(sc.inst(x), offline.Options{})
			if err != nil {
				return nil, err
			}
			counts[i] = sol.States
			tbl.AddRow(x, sol.States, sol.Faults)
		}
		res.Tables = append(res.Tables, tbl)
		trends = append(trends, trendNote(sc.param, sc.xs, counts))
	}
	res.Notes = append(res.Notes, "state count "+strings.Join(trends, "; "))
	return res, nil
}

// trendNote says how the state counts of one E10 table move as the
// swept parameter takes the values xs: a rise, a rise to a peak and a
// fall after it, or the counts themselves when neither fits.
func trendNote(param string, xs, counts []int) string {
	top, last := 0, len(counts)-1
	for i, c := range counts {
		if c > counts[top] {
			top = i
		}
	}
	for i := 1; i <= last; i++ {
		if i <= top && counts[i] <= counts[i-1] || i > top && counts[i] >= counts[i-1] {
			return fmt.Sprintf("moves with %s without one trend (%s = %v: %v)", param, param, xs, counts)
		}
	}
	if top == last {
		return fmt.Sprintf("rises with %s (%d → %d for %s = %d…%d)", param, counts[0], counts[last], param, xs[0], xs[last])
	}
	return fmt.Sprintf("rises with %s to %d at %s = %d, then falls to %d at %s = %d", param, counts[top], param, xs[top], counts[last], param, xs[last])
}

// runE11 — Theorem 7 / Algorithm 2: the PIF dynamic program matches
// exhaustive search (honest mode) and scales with T and n.
func runE11(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 11))
	res := &Result{
		ID:    "E11",
		Title: "Algorithm 2 (PARTIAL-INDIVIDUAL-FAULTS): correctness and scaling",
		Claim: "Theorem 7: PIF decidable in O(n^{K+2p+1}(τ+1)^{p+1}) for constant p, K",
	}
	trials := 150
	if cfg.Quick {
		trials = 40
	}
	agree, yesCount := 0, 0
	for trial := 0; trial < trials; trial++ {
		in := tinyInstance(rng, 2, 5)
		p := in.R.NumCores()
		bounds := make([]int64, p)
		for i := range bounds {
			bounds[i] = int64(rng.Intn(len(in.R[i]) + 1))
		}
		maxT := int64(in.R.MaxLen() * (in.P.Tau + 1))
		pi := offline.PIFInstance{Inst: in, T: rng.Int63n(maxT + 2), Bounds: bounds}
		dp, _, err := offline.DecidePIF(pi, offline.Options{HonestPIF: true})
		if err != nil {
			return nil, err
		}
		brute, err := offline.BrutePIF(pi)
		if err != nil {
			return nil, err
		}
		if dp == brute {
			agree++
		}
		if dp {
			yesCount++
		}
	}
	ctbl := metrics.NewTable("Algorithm 2 vs exhaustive search on random tiny instances",
		"trials", "agreements", "yes_instances")
	ctbl.AddRow(trials, agree, yesCount)
	res.Tables = append(res.Tables, ctbl)
	if agree != trials {
		res.Notes = append(res.Notes, "VIOLATION: Algorithm 2 disagreed with exhaustive search")
	}

	stbl := metrics.NewTable("Algorithm 2 state/pair counts vs n (p=2, K=3, τ=1, T=n(τ+1), b=n/2)",
		"n_per_core", "states", "pairs", "answer")
	ns := []int{2, 3, 4, 5}
	if cfg.Quick {
		ns = []int{2, 3}
	}
	full := core.RequestSet{make(core.Sequence, ns[len(ns)-1]), make(core.Sequence, ns[len(ns)-1])}
	for j := range full {
		for i := range full[j] {
			full[j][i] = core.PageID(10*j + rng.Intn(3))
		}
	}
	for _, n := range ns {
		rs := core.RequestSet{full[0][:n], full[1][:n]}
		pi := offline.PIFInstance{
			Inst:   core.Instance{R: rs, P: core.Params{K: 3, Tau: 1}},
			T:      int64(n * 2),
			Bounds: []int64{int64(n/2 + 1), int64(n/2 + 1)},
		}
		ans, st, err := offline.DecidePIF(pi, offline.Options{})
		if err != nil {
			return nil, err
		}
		stbl.AddRow(n, st.States, st.Pairs, ans)
	}
	res.Tables = append(res.Tables, stbl)
	return res, nil
}

// runE12 — Theorems 4 and 5: forcing never helps the FTF optimum, and
// restricting victims to the furthest-in-the-future page of some
// sequence preserves it.
func runE12(cfg Config) (*Result, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + 12))
	res := &Result{
		ID:    "E12",
		Title: "Structure of optimal offline schedules",
		Claim: "Theorem 4: an honest optimal algorithm exists; Theorem 5: an optimal algorithm evicting per-sequence-FITF pages exists",
	}
	trials := 120
	if cfg.Quick {
		trials = 30
	}
	honestEq, fitfEq := 0, 0
	var worstGapForcing, worstGapFITF int64
	for trial := 0; trial < trials; trial++ {
		in := tinyInstance(rng, 2, 5)
		honest, err := offline.SolveFTF(in, offline.Options{})
		if err != nil {
			return nil, err
		}
		forcing, err := offline.SolveFTF(in, offline.Options{AllowForcing: true})
		if err != nil {
			return nil, err
		}
		if honest.Faults == forcing.Faults {
			honestEq++
		} else if gap := honest.Faults - forcing.Faults; gap > worstGapForcing {
			worstGapForcing = gap
		}
		fitf, err := offline.BruteFTFFITF(in)
		if err != nil {
			return nil, err
		}
		if fitf == honest.Faults {
			fitfEq++
		} else if gap := fitf - honest.Faults; gap > worstGapFITF {
			worstGapFITF = gap
		}
	}
	tbl := metrics.NewTable("Honest / FITF-restricted optima vs unrestricted optimum",
		"trials", "honest_equal", "fitf_choice_equal", "worst_forcing_gain", "worst_fitf_loss")
	tbl.AddRow(trials, honestEq, fitfEq, worstGapForcing, worstGapFITF)
	res.Tables = append(res.Tables, tbl)
	if honestEq == trials && fitfEq == trials {
		res.Notes = append(res.Notes, "both restrictions preserve the optimum on every sampled instance")
	} else {
		res.Notes = append(res.Notes, "VIOLATION: a restriction changed the optimum")
	}
	return res, nil
}
