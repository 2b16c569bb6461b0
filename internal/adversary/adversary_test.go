package adversary_test

import (
	"context"
	"testing"

	"mcpaging/internal/adversary"
	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/mattson"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
)

func lru() cache.Factory  { return func() cache.Policy { return cache.NewLRU() } }
func fitf() cache.Factory { return func() cache.Policy { return cache.NewFITF() } }

func run(t *testing.T, in core.Instance, s sim.Strategy) sim.Result {
	t.Helper()
	res, err := sim.Run(in, s, nil)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return res
}

func TestCycleAndRepeat(t *testing.T) {
	c := adversary.Cycle(1, 3, 7)
	if len(c) != 7 {
		t.Fatalf("len = %d", len(c))
	}
	if c[0] != c[3] || c[0] == c[1] {
		t.Fatal("cycle structure wrong")
	}
	r := adversary.Repeat(0, 5)
	for _, pg := range r {
		if pg != r[0] {
			t.Fatal("repeat should be constant")
		}
	}
	// Distinct cores use distinct page spaces.
	rs := core.RequestSet{adversary.Cycle(0, 3, 5), adversary.Cycle(1, 3, 5)}
	if !rs.Disjoint() {
		t.Fatal("constructions must be disjoint across cores")
	}
}

// TestLemma1Shape: with a fixed static partition, LRU per part loses a
// factor ≈ max_j k_j against per-part OPT on the Lemma 1 sequence, and
// never more than that (the lemma's matching upper bound).
func TestLemma1Shape(t *testing.T) {
	sizes := []int{2, 2, 4, 2}
	k := 10
	perCore := 400
	rs, err := adversary.Lemma1(sizes, perCore)
	if err != nil {
		t.Fatal(err)
	}
	if j := adversary.Lemma1Jstar(sizes); j != 2 {
		t.Fatalf("jstar = %d, want 2", j)
	}
	in := core.Instance{R: rs, P: core.Params{K: k, Tau: 1}}
	lruRes := run(t, in, policy.NewStatic(sizes, lru()))
	optRes := run(t, in, policy.NewStatic(sizes, fitf()))

	// Per the proof: sP_LRU faults on every request of the cycling core
	// plus once per other core.
	wantLRU := int64(perCore + len(sizes) - 1)
	if lruRes.TotalFaults() != wantLRU {
		t.Fatalf("sP_LRU faults = %d, want %d", lruRes.TotalFaults(), wantLRU)
	}
	ratio := float64(lruRes.TotalFaults()) / float64(optRes.TotalFaults())
	kmax := 4.0
	if ratio > kmax+1e-9 {
		t.Fatalf("ratio %.2f exceeds the Lemma 1 upper bound max_j k_j = %v", ratio, kmax)
	}
	if ratio < kmax*0.75 {
		t.Fatalf("ratio %.2f too small; construction should approach %v", ratio, kmax)
	}
}

// TestLemma1RatioGrowsWithK: the lower bound scales with the largest
// part.
func TestLemma1RatioGrowsWithK(t *testing.T) {
	prev := 0.0
	for _, kbig := range []int{2, 4, 8} {
		sizes := []int{1, kbig}
		rs, err := adversary.Lemma1(sizes, 600)
		if err != nil {
			t.Fatal(err)
		}
		in := core.Instance{R: rs, P: core.Params{K: kbig + 1, Tau: 0}}
		lruRes := run(t, in, policy.NewStatic(sizes, lru()))
		optRes := run(t, in, policy.NewStatic(sizes, fitf()))
		ratio := float64(lruRes.TotalFaults()) / float64(optRes.TotalFaults())
		if ratio <= prev {
			t.Fatalf("ratio should grow with k: %v at k=%d after %v", ratio, kbig, prev)
		}
		prev = ratio
	}
}

// TestLemma2Shape: an online static partition loses a factor growing
// linearly in n against the offline-optimal static partition.
func TestLemma2Shape(t *testing.T) {
	sizes := []int{2, 2, 2, 2}
	k := 8
	ratios := make([]float64, 0, 2)
	for _, perCore := range []int{200, 400} {
		rs, err := adversary.Lemma2(sizes, perCore)
		if err != nil {
			t.Fatal(err)
		}
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: 1}}
		online := run(t, in, policy.NewStatic(sizes, lru()))
		opt, err := mattson.OptimalLRU(context.Background(), rs, k)
		if err != nil {
			t.Fatal(err)
		}
		optRes := run(t, in, policy.NewStatic(opt.Sizes, lru()))
		if optRes.TotalFaults() != opt.Faults {
			t.Fatalf("partition prediction mismatch: %d vs %d", optRes.TotalFaults(), opt.Faults)
		}
		ratios = append(ratios, float64(online.TotalFaults())/float64(optRes.TotalFaults()))
	}
	// Doubling n should roughly double the ratio (Ω(n) separation).
	if ratios[1] < ratios[0]*1.6 {
		t.Fatalf("ratio not growing linearly: %v", ratios)
	}
}

// TestTheorem1Part1Shape: on the round-robin construction, shared LRU
// faults only K+p times while the best static partition with any
// eviction policy faults Θ(x); the separation grows with n.
func TestTheorem1Part1Shape(t *testing.T) {
	p, k, tau := 2, 4, 1
	prevRatio := 0.0
	for _, x := range []int{50, 100} {
		rs, err := adversary.Theorem1Round(p, k, tau, x)
		if err != nil {
			t.Fatal(err)
		}
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
		shared := run(t, in, adversary.SharedLRU())
		if shared.TotalFaults() != int64(k+p) {
			t.Fatalf("x=%d: S_LRU faults = %d, want K+p = %d", x, shared.TotalFaults(), k+p)
		}
		opt, err := mattson.OptimalOPT(context.Background(), rs, k)
		if err != nil {
			t.Fatal(err)
		}
		ratio := float64(opt.Faults) / float64(shared.TotalFaults())
		if ratio <= prevRatio {
			t.Fatalf("separation should grow with x: %.2f after %.2f", ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

// TestTheorem1Part3Shape: a dynamic partition that changes only a
// constant number of times (here two stages, swapping the larger share
// halfway) loses to shared LRU on the round-robin construction by a
// factor that grows with n.
func TestTheorem1Part3Shape(t *testing.T) {
	p, k, tau := 2, 4, 1
	prevRatio := 0.0
	for _, x := range []int{50, 100} {
		rs, err := adversary.Theorem1Round(p, k, tau, x)
		if err != nil {
			t.Fatal(err)
		}
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
		shared := run(t, in, adversary.SharedLRU())
		half := int64(rs.TotalLen()) * int64(tau+1) / int64(2*p)
		staged := run(t, in, policy.NewStaged([]policy.Stage{
			{At: 0, Sizes: []int{3, 1}},
			{At: half, Sizes: []int{1, 3}},
		}, lru()))
		ratio := float64(staged.TotalFaults()) / float64(shared.TotalFaults())
		if ratio <= prevRatio {
			t.Fatalf("x=%d: two-stage ratio %.2f after %.2f, want it growing with n", x, ratio, prevRatio)
		}
		prevRatio = ratio
	}
}

// TestTheorem1Part2Shape: in the other direction shared LRU is within a
// factor K of the best static partition (Theorem 1(2)) — checked on the
// adversarial inputs of this package, where the bound is under the most
// stress.
func TestTheorem1Part2Shape(t *testing.T) {
	cases := []core.RequestSet{}
	if rs, err := adversary.Lemma1([]int{2, 3, 3}, 200); err == nil {
		cases = append(cases, rs)
	}
	if rs, err := adversary.Lemma2([]int{2, 2, 2, 2}, 200); err == nil {
		cases = append(cases, rs)
	}
	if rs, err := adversary.Lemma4(2, 4, 200); err == nil {
		cases = append(cases, rs)
	}
	for i, rs := range cases {
		k := 8
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: 1}}
		shared := run(t, in, adversary.SharedLRU())
		opt, err := mattson.OptimalOPT(context.Background(), rs, k)
		if err != nil {
			t.Fatal(err)
		}
		optRes := run(t, in, policy.NewStatic(opt.Sizes, fitf()))
		if float64(shared.TotalFaults()) > float64(k)*float64(optRes.TotalFaults())+1e-9 {
			t.Fatalf("case %d: S_LRU %d > K·sP_OPT_OPT %d·%d", i, shared.TotalFaults(), k, optRes.TotalFaults())
		}
	}
}

// TestLemma4Shape: shared LRU faults on every request of the cycling
// construction while the sacrifice strategy achieves ≈ n/(p(τ+1)),
// giving a competitive-ratio separation of order p(τ+1).
func TestLemma4Shape(t *testing.T) {
	p, k, tau, perCore := 2, 4, 3, 300
	rs, err := adversary.Lemma4(p, k, perCore)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
	lruRes := run(t, in, adversary.SharedLRU())
	if lruRes.TotalFaults() != int64(p*perCore) {
		t.Fatalf("S_LRU faults = %d, want every request (%d)", lruRes.TotalFaults(), p*perCore)
	}
	soff := run(t, in, adversary.NewSacrifice(p-1))
	ratio := float64(lruRes.TotalFaults()) / float64(soff.TotalFaults())
	bound := float64(p * (tau + 1))
	if ratio < bound*0.5 {
		t.Fatalf("ratio %.2f too small; want ≈ p(τ+1) = %.0f", ratio, bound)
	}
	// The non-sacrificed core should settle after its working set fits.
	if soff.Faults[0] > int64(k) {
		t.Fatalf("protected core faults %d, want ≤ K", soff.Faults[0])
	}
}

// TestLemma4RatioGrowsWithTau: the separation scales with τ.
func TestLemma4RatioGrowsWithTau(t *testing.T) {
	p, k, perCore := 2, 4, 400
	prev := 0.0
	for _, tau := range []int{0, 2, 5} {
		rs, err := adversary.Lemma4(p, k, perCore)
		if err != nil {
			t.Fatal(err)
		}
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
		lruRes := run(t, in, adversary.SharedLRU())
		soff := run(t, in, adversary.NewSacrifice(p-1))
		ratio := float64(lruRes.TotalFaults()) / float64(soff.TotalFaults())
		if ratio <= prev {
			t.Fatalf("ratio should grow with τ: %.2f at τ=%d after %.2f", ratio, tau, prev)
		}
		prev = ratio
	}
}

// TestFITFNotOptimal (remark after Lemma 4): when τ > K/p, shared FITF is
// beaten by the sacrifice strategy on the Lemma 4 construction.
func TestFITFNotOptimal(t *testing.T) {
	p, k, perCore := 2, 4, 300
	tau := k/p + 1 // τ > K/p
	rs, err := adversary.Lemma4(p, k, perCore)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
	fitfRes := run(t, in, adversary.SharedFITF())
	soff := run(t, in, adversary.NewSacrifice(p-1))
	if soff.TotalFaults() >= fitfRes.TotalFaults() {
		t.Fatalf("sacrifice (%d) should beat shared FITF (%d) when τ > K/p",
			soff.TotalFaults(), fitfRes.TotalFaults())
	}
}

func TestConstructorValidation(t *testing.T) {
	if _, err := adversary.Lemma1(nil, 10); err == nil {
		t.Error("Lemma1 with empty sizes should fail")
	}
	if _, err := adversary.Lemma2([]int{1}, 10); err == nil {
		t.Error("Lemma2 with p=1 should fail")
	}
	if _, err := adversary.Lemma2([]int{1, 1}, 10); err == nil {
		t.Error("Lemma2 with all parts < 2 should fail")
	}
	if _, err := adversary.Theorem1Round(3, 4, 1, 5); err == nil {
		t.Error("Theorem1Round with p∤K should fail")
	}
	if _, err := adversary.Lemma4(3, 4, 10); err == nil {
		t.Error("Lemma4 with p∤K should fail")
	}
	s := adversary.NewSacrifice(5)
	in := core.Instance{R: core.RequestSet{{1}}, P: core.Params{K: 2, Tau: 0}}
	if _, err := sim.Run(in, s, nil); err == nil {
		t.Error("Sacrifice with out-of-range core should fail")
	}
}

func TestSacrificeAccounting(t *testing.T) {
	rs, err := adversary.Lemma4(2, 4, 100)
	if err != nil {
		t.Fatal(err)
	}
	in := core.Instance{R: rs, P: core.Params{K: 4, Tau: 2}}
	res := run(t, in, adversary.NewSacrifice(1))
	if res.TotalFaults()+res.TotalHits() != int64(in.R.TotalLen()) {
		t.Fatal("faults + hits != n")
	}
}
