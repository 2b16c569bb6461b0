package experiments

import (
	"context"
	"fmt"
	"strings"

	"mcpaging/internal/adversary"
	"mcpaging/internal/core"
	"mcpaging/internal/mattson"
	"mcpaging/internal/metrics"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
	"mcpaging/internal/stats"
	"mcpaging/internal/workload"
)

func init() {
	register("E1", runE1)
	register("E2", runE2)
	register("E3", runE3)
	register("E4", runE4)
	register("E5", runE5)
	register("E6", runE6)
	register("E7", runE7)
	register("E8", runE8)
}

// runE1 — Lemma 1: with a fixed static partition, per-part LRU is
// exactly max_j k_j-competitive against per-part OPT on the adversarial
// sequence; the ratio grows linearly with the largest part and never
// crosses the bound.
func runE1(cfg Config) (*Result, error) {
	perCore := 2000
	if cfg.Quick {
		perCore = 300
	}
	tbl := metrics.NewTable("sP^B_LRU vs sP^B_OPT on the Lemma 1 sequence (p=4, τ=1)",
		"max_k", "sizes", "lru_faults", "opt_faults", "ratio", "bound")
	res := &Result{
		ID:    "E1",
		Title: "Fixed static partition: LRU vs per-part OPT",
		Claim: "Lemma 1: sP^B_A/sP^B_OPT = Ω(max_j k_j), and ≤ max_j k_j for LRU",
	}
	ok := true
	for _, kmax := range []int{2, 4, 8, 16} {
		sizes := []int{1, 1, 1, kmax}
		k := 3 + kmax
		rs, err := adversary.Lemma1(sizes, perCore)
		if err != nil {
			return nil, err
		}
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: 1}}
		lruRes, err := mustRun(cfg, "E1", in, policy.NewStatic(sizes, lruF()))
		if err != nil {
			return nil, err
		}
		optRes, err := mustRun(cfg, "E1", in, policy.NewStatic(sizes, fitfF()))
		if err != nil {
			return nil, err
		}
		ratio := stats.Ratio(lruRes.TotalFaults(), optRes.TotalFaults())
		if ratio > float64(kmax) {
			ok = false
		}
		tbl.AddRow(kmax, fmt.Sprintf("%v", sizes), lruRes.TotalFaults(), optRes.TotalFaults(), ratio, kmax)
	}
	res.Tables = append(res.Tables, tbl)
	if ok {
		res.Notes = append(res.Notes, "upper bound max_j k_j respected at every point; ratio tracks max_j k_j")
	} else {
		res.Notes = append(res.Notes, "VIOLATION: ratio exceeded max_j k_j")
	}
	return res, nil
}

// runE2 — Lemma 2: a fixed online static partition loses Ω(n) against
// the offline-optimal static partition on the Lemma 2 sequence.
func runE2(cfg Config) (*Result, error) {
	lens := []int{250, 500, 1000, 2000, 4000}
	if cfg.Quick {
		lens = []int{100, 200, 400}
	}
	sizes := []int{2, 2, 2, 2}
	k := 8
	tbl := metrics.NewTable("online static (even) vs offline-optimal static partition (p=4, K=8, τ=1)",
		"n_per_core", "online_faults", "opt_static_faults", "opt_sizes", "ratio")
	res := &Result{
		ID:    "E2",
		Title: "Online static partitions are not competitive",
		Claim: "Lemma 2: ∃R: sP^B_A/sP^OPT_LRU = Ω(n) for any online static partition B",
	}
	var xs, ys []float64
	for _, n := range lens {
		rs, err := adversary.Lemma2(sizes, n)
		if err != nil {
			return nil, err
		}
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: 1}}
		online, err := mustRun(cfg, "E2", in, policy.NewStatic(sizes, lruF()))
		if err != nil {
			return nil, err
		}
		opt, err := mattson.OptimalLRU(context.TODO(), rs, k)
		if err != nil {
			return nil, err
		}
		ratio := stats.Ratio(online.TotalFaults(), opt.Faults)
		tbl.AddRow(n, online.TotalFaults(), opt.Faults, fmt.Sprintf("%v", opt.Sizes), ratio)
		xs = append(xs, float64(n))
		ys = append(ys, ratio)
	}
	res.Tables = append(res.Tables, tbl)
	fit := stats.LinearFit(xs, ys)
	res.Notes = append(res.Notes,
		fmt.Sprintf("ratio vs n: slope %.4g, R²=%.3f (linear growth ⇒ Ω(n) separation)", fit.Slope, fit.R2))
	return res, nil
}

// runE3 — Theorem 1(1): shared LRU beats the best static partition (with
// any per-part policy, here per-part OPT) by a factor growing linearly
// in n on the round-robin construction.
func runE3(cfg Config) (*Result, error) {
	xsweep := []int{25, 50, 100, 200, 400}
	if cfg.Quick {
		xsweep = []int{10, 20, 40}
	}
	p, k, tau := 2, 4, 1
	tbl := metrics.NewTable("sP^OPT_OPT vs S_LRU on the Theorem 1 round-robin sequence (p=2, K=4, τ=1)",
		"x", "n_total", "slru_faults", "spopt_opt_faults", "ratio")
	res := &Result{
		ID:    "E3",
		Title: "Shared LRU beats every static partition",
		Claim: "Theorem 1(1): ∃R: sP^OPT_OPT/S_LRU = Ω(n)",
	}
	var xs, ys []float64
	for _, x := range xsweep {
		rs, err := adversary.Theorem1Round(p, k, tau, x)
		if err != nil {
			return nil, err
		}
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
		shared, err := mustRun(cfg, "E3", in, sharedLRU())
		if err != nil {
			return nil, err
		}
		opt, err := mattson.OptimalOPT(context.TODO(), rs, k)
		if err != nil {
			return nil, err
		}
		ratio := stats.Ratio(opt.Faults, shared.TotalFaults())
		tbl.AddRow(x, rs.TotalLen(), shared.TotalFaults(), opt.Faults, ratio)
		xs = append(xs, float64(rs.TotalLen()))
		ys = append(ys, ratio)
	}
	res.Tables = append(res.Tables, tbl)
	fit := stats.LinearFit(xs, ys)
	res.Notes = append(res.Notes,
		fmt.Sprintf("ratio vs n: slope %.4g, R²=%.3f (S_LRU faults stay at K+p while partitions pay Θ(n))",
			fit.Slope, fit.R2))
	return res, nil
}

// runE4 — Theorem 1(2): in the other direction, shared LRU is within a
// factor K of the best static partition on every input; measured across
// the synthetic workload families and the adversarial constructions.
func runE4(cfg Config) (*Result, error) {
	length := 4000
	if cfg.Quick {
		length = 600
	}
	p, k, tau := 4, 16, 2
	tbl := metrics.NewTable(fmt.Sprintf("S_LRU vs sP^OPT_OPT across workloads (p=%d, K=%d, τ=%d)", p, k, tau),
		"workload", "slru_faults", "spopt_opt_faults", "ratio", "bound_K")
	res := &Result{
		ID:    "E4",
		Title: "Shared LRU is K-competitive against static partitions",
		Claim: "Theorem 1(2): ∀R: S_LRU/sP^OPT_OPT ≤ K",
	}
	worst := 0.0
	check := func(name string, rs core.RequestSet) error {
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
		shared, err := mustRun(cfg, "E4", in, sharedLRU())
		if err != nil {
			return err
		}
		opt, err := mattson.OptimalOPT(context.TODO(), rs, k)
		if err != nil {
			return err
		}
		optRes, err := mustRun(cfg, "E4", in, policy.NewStatic(opt.Sizes, fitfF()))
		if err != nil {
			return err
		}
		ratio := stats.Ratio(shared.TotalFaults(), optRes.TotalFaults())
		if ratio > worst {
			worst = ratio
		}
		tbl.AddRow(name, shared.TotalFaults(), optRes.TotalFaults(), ratio, k)
		return nil
	}
	mix, err := workload.Mix(workload.Spec{Cores: p, Length: length, Pages: 24, Kind: workload.Uniform, Seed: cfg.Seed})
	if err != nil {
		return nil, err
	}
	for _, kind := range workload.Kinds() {
		if err := check(string(kind), mix[kind]); err != nil {
			return nil, err
		}
	}
	if rs, err := adversary.Lemma4(p, k, length/4); err == nil {
		if err := check("lemma4-cyclic", rs); err != nil {
			return nil, err
		}
	}
	if rs, err := adversary.Lemma2([]int{4, 4, 4, 4}, length/4); err == nil {
		if err := check("lemma2-adversarial", rs); err != nil {
			return nil, err
		}
	}
	res.Tables = append(res.Tables, tbl)
	if worst <= float64(k) {
		res.Notes = append(res.Notes, fmt.Sprintf("worst observed ratio %.3g ≤ K = %d", worst, k))
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf("VIOLATION: ratio %.3g > K = %d", worst, k))
	}
	return res, nil
}

// runE5 — Theorem 1(3): dynamic partitions that change o(n) times lose
// ω(1) against shared LRU; with a constant number of stages the loss is
// Ω(n). Stage schedules that track the active core recover the shared
// performance — partitions must change often to compete.
func runE5(cfg Config) (*Result, error) {
	xsweep := []int{25, 50, 100, 200}
	if cfg.Quick {
		xsweep = []int{10, 20, 40}
	}
	p, k, tau := 2, 4, 1
	tbl := metrics.NewTable("Staged dynamic partitions vs S_LRU on the round-robin sequence (p=2, K=4, τ=1)",
		"x", "n_total", "slru", "static_even", "staged_2", "aligned_p_stages", "ratio_static", "ratio_staged2")
	res := &Result{
		ID:    "E5",
		Title: "Slowly changing dynamic partitions lose to shared LRU",
		Claim: "Theorem 1(3): dP^D_A with o(n) partition changes has dP^D_A/S_LRU = ω(1); Ω(n) for O(1) changes",
	}
	var xs, ys []float64
	for _, x := range xsweep {
		rs, err := adversary.Theorem1Round(p, k, tau, x)
		if err != nil {
			return nil, err
		}
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
		shared, err := mustRun(cfg, "E5", in, sharedLRU())
		if err != nil {
			return nil, err
		}
		even := policy.EvenSizes(k, p)
		static, err := mustRun(cfg, "E5", in, policy.NewStatic(even, lruF()))
		if err != nil {
			return nil, err
		}
		// Two stages: swap the bigger share halfway.
		halftime := int64(rs.TotalLen()) * int64(tau+1) / int64(2*p)
		staged2, err := mustRun(cfg, "E5", in, policy.NewStaged([]policy.Stage{
			{At: 0, Sizes: []int{3, 1}},
			{At: halftime, Sizes: []int{1, 3}},
		}, lruF()))
		if err != nil {
			return nil, err
		}
		// p stages aligned with the turns: give the core in its distinct
		// period K/p+1 cells.
		m := k/p + 1
		turn := int64(m * (tau + x)) // requests per quiet period ≈ time per turn
		var stages []policy.Stage
		for j := 0; j < p; j++ {
			sizes := make([]int, p)
			for c := range sizes {
				sizes[c] = 1
			}
			sizes[j] = k - (p - 1)
			stages = append(stages, policy.Stage{At: int64(j) * turn, Sizes: sizes})
		}
		aligned, err := mustRun(cfg, "E5", in, policy.NewStaged(stages, lruF()))
		if err != nil {
			return nil, err
		}
		rStatic := stats.Ratio(static.TotalFaults(), shared.TotalFaults())
		rStaged := stats.Ratio(staged2.TotalFaults(), shared.TotalFaults())
		tbl.AddRow(x, rs.TotalLen(), shared.TotalFaults(), static.TotalFaults(),
			staged2.TotalFaults(), aligned.TotalFaults(), rStatic, rStaged)
		xs = append(xs, float64(rs.TotalLen()))
		ys = append(ys, rStaged)
	}
	res.Tables = append(res.Tables, tbl)
	fit := stats.LinearFit(xs, ys)
	res.Notes = append(res.Notes,
		fmt.Sprintf("two-stage partition ratio grows with n (slope %.4g, R²=%.3f); turn-aligned p-stage schedule tracks S_LRU",
			fit.Slope, fit.R2))
	return res, nil
}

// runE6 — Lemma 3: the global-LRU dynamic partition equals shared LRU
// request for request on disjoint inputs.
func runE6(cfg Config) (*Result, error) {
	trials := 60
	length := 800
	if cfg.Quick {
		trials, length = 15, 200
	}
	tbl := metrics.NewTable("dP^D_LRU ≡ S_LRU equivalence check across workload families",
		"workload", "trials", "mismatches", "slru_faults_total", "dp_faults_total")
	res := &Result{
		ID:    "E6",
		Title: "Dynamic partition with global-LRU donor equals shared LRU",
		Claim: "Lemma 3: ∃D: ∀ disjoint R, dP^D_LRU(R) = S_LRU(R)",
	}
	totalMismatch := 0
	for _, kind := range workload.Kinds() {
		mismatch := 0
		var sumS, sumD int64
		for trial := 0; trial < trials; trial++ {
			rs, err := workload.Generate(workload.Spec{
				Cores: 2 + trial%3, Length: length, Pages: 12, Kind: kind,
				Seed: cfg.Seed + int64(trial),
			})
			if err != nil {
				return nil, err
			}
			in := core.Instance{R: rs, P: core.Params{K: 8, Tau: trial % 4}}
			var evS, evD []sim.Event
			rS, err := sim.Run(in, sharedLRU(), func(e sim.Event) { evS = append(evS, e) })
			if err != nil {
				return nil, err
			}
			rD, err := sim.Run(in, policy.NewDynamicLRU(), func(e sim.Event) { evD = append(evD, e) })
			if err != nil {
				return nil, err
			}
			sumS += rS.TotalFaults()
			sumD += rD.TotalFaults()
			if len(evS) != len(evD) {
				mismatch++
				continue
			}
			for i := range evS {
				if evS[i] != evD[i] {
					mismatch++
					break
				}
			}
		}
		totalMismatch += mismatch
		tbl.AddRow(string(kind), trials, mismatch, sumS, sumD)
	}
	res.Tables = append(res.Tables, tbl)
	if totalMismatch == 0 {
		res.Notes = append(res.Notes, "exact equivalence: identical event streams in every trial")
	} else {
		res.Notes = append(res.Notes, fmt.Sprintf("VIOLATION: %d mismatching trials", totalMismatch))
	}
	return res, nil
}

// runE7 — Lemma 4: shared LRU loses a factor ≈ p(τ+1) to the sacrifice
// strategy on the cyclic construction; the measured ratio tracks the
// bound across τ and p.
func runE7(cfg Config) (*Result, error) {
	perCore := 3000
	if cfg.Quick {
		perCore = 400
	}
	tbl := metrics.NewTable("S_LRU vs the sacrifice offline strategy on the Lemma 4 sequence",
		"p", "tau", "slru_faults", "soff_faults", "ratio", "bound_p(tau+1)")
	res := &Result{
		ID:    "E7",
		Title: "Shared LRU loses Ω(p(τ+1)) to offline",
		Claim: "Lemma 4: ∃R: S_LRU/S_OPT = Ω(p(τ+1))",
	}
	ps, taus := []int{2, 4}, []int{0, 1, 3, 7}
	ratios := make([][]float64, len(ps))
	for pi, p := range ps {
		for _, tau := range taus {
			k := p * p // tall cache: K = p²
			rs, err := adversary.Lemma4(p, k, perCore)
			if err != nil {
				return nil, err
			}
			in := core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
			lruRes, err := mustRun(cfg, "E7", in, sharedLRU())
			if err != nil {
				return nil, err
			}
			soff, err := mustRun(cfg, "E7", in, adversary.NewSacrifice(p-1))
			if err != nil {
				return nil, err
			}
			ratio := stats.Ratio(lruRes.TotalFaults(), soff.TotalFaults())
			ratios[pi] = append(ratios[pi], ratio)
			tbl.AddRow(p, tau, lruRes.TotalFaults(), soff.TotalFaults(), ratio, p*(tau+1))
		}
	}
	res.Tables = append(res.Tables, tbl)
	res.Notes = append(res.Notes, lemma4Note(ps, taus, ratios))
	return res, nil
}

// lemma4Note reads E7's table, where ratios[i][j] is the ratio at
// ps[i] and taus[j]. The ratio tracks p(τ+1) when it rises with τ at
// each p, rises with p at each τ, and stays at least half the bound;
// otherwise the note is a VIOLATION naming every failed check.
func lemma4Note(ps, taus []int, ratios [][]float64) string {
	var bad []string
	for i, p := range ps {
		for j, tau := range taus {
			r := ratios[i][j]
			if j > 0 && r <= ratios[i][j-1] {
				bad = append(bad, fmt.Sprintf("at p=%d the ratio does not rise from τ=%d to τ=%d (%.4g → %.4g)", p, taus[j-1], tau, ratios[i][j-1], r))
			}
			if i > 0 && r <= ratios[i-1][j] {
				bad = append(bad, fmt.Sprintf("at τ=%d the ratio does not rise from p=%d to p=%d (%.4g → %.4g)", tau, ps[i-1], p, ratios[i-1][j], r))
			}
			if bound := p * (tau + 1); 2*r < float64(bound) {
				bad = append(bad, fmt.Sprintf("at p=%d, τ=%d the ratio %.4g is below p(τ+1)/2 = %.4g", p, tau, r, float64(bound)/2))
			}
		}
	}
	if len(bad) > 0 {
		return "VIOLATION: " + strings.Join(bad, "; ")
	}
	return "ratio grows with both p and τ, tracking p(τ+1) as n→∞"
}

// runE8 — remark after Lemma 4: shared FITF stops being optimal once
// τ > K/p; the sacrifice strategy overtakes it exactly past the
// crossover.
func runE8(cfg Config) (*Result, error) {
	perCore := 2000
	if cfg.Quick {
		perCore = 300
	}
	p, k := 2, 4
	tbl := metrics.NewTable(fmt.Sprintf("S_FITF vs sacrifice on the Lemma 4 sequence (p=%d, K=%d; the paper guarantees S_FITF loses for τ > K/p = %d)", p, k, k/p),
		"tau", "fitf_faults", "soff_faults", "fitf_minus_soff", "soff_wins")
	res := &Result{
		ID:    "E8",
		Title: "Furthest-In-The-Future is not optimal for large τ",
		Claim: "Section 4 remark: τ > K/p ⇒ S_FITF(R) > S_OPT(R) on the Lemma 4 sequence",
	}
	crossoverSeen := false
	for _, tau := range []int{0, 1, 2, 3, 5, 8} {
		rs, err := adversary.Lemma4(p, k, perCore)
		if err != nil {
			return nil, err
		}
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
		fitfRes, err := mustRun(cfg, "E8", in, adversary.SharedFITF())
		if err != nil {
			return nil, err
		}
		soff, err := mustRun(cfg, "E8", in, adversary.NewSacrifice(p-1))
		if err != nil {
			return nil, err
		}
		diff := fitfRes.TotalFaults() - soff.TotalFaults()
		beaten := diff > 0
		if tau > k/p && beaten {
			crossoverSeen = true
		}
		tbl.AddRow(tau, fitfRes.TotalFaults(), soff.TotalFaults(), diff, beaten)
	}
	res.Tables = append(res.Tables, tbl)
	if crossoverSeen {
		res.Notes = append(res.Notes, "FITF is beaten for τ > K/p, as the paper remarks")
	} else {
		res.Notes = append(res.Notes, "WARNING: no crossover observed")
	}
	return res, nil
}
