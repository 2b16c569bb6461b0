package offline_test

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/mattson"
	"mcpaging/internal/offline"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
)

func lru() cache.Factory { return func() cache.Policy { return cache.NewLRU() } }

func inst(k, tau int, seqs ...core.Sequence) core.Instance {
	return core.Instance{R: core.RequestSet(seqs), P: core.Params{K: k, Tau: tau}}
}

// tinyInstance draws a random small disjoint instance suitable for
// exhaustive search.
func tinyInstance(rng *rand.Rand) core.Instance {
	p := 1 + rng.Intn(2)
	k := p + 1 + rng.Intn(2)
	tau := rng.Intn(3)
	rs := make(core.RequestSet, p)
	for j := range rs {
		n := 1 + rng.Intn(5)
		s := make(core.Sequence, n)
		for i := range s {
			s[i] = core.PageID(10*j + rng.Intn(3))
		}
		rs[j] = s
	}
	return core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
}

func TestFTFSequentialMatchesBelady(t *testing.T) {
	// p=1, τ=0: the model is classical paging and the DP must agree with
	// Belady's algorithm.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(8)
		seq := make(core.Sequence, n)
		for i := range seq {
			seq[i] = core.PageID(rng.Intn(4))
		}
		k := 1 + rng.Intn(3)
		sol, err := offline.SolveFTF(inst(k, 0, seq), offline.Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := mattson.OPTMisses(seq, k); sol.Faults != want {
			t.Fatalf("trial %d seq=%v K=%d: DP=%d Belady=%d", trial, seq, k, sol.Faults, want)
		}
	}
}

func TestFTFSequentialWithTau(t *testing.T) {
	// p=1, τ>0: delays do not reorder a single sequence, so the optimum
	// is still Belady's miss count.
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		n := 3 + rng.Intn(6)
		seq := make(core.Sequence, n)
		for i := range seq {
			seq[i] = core.PageID(rng.Intn(4))
		}
		k, tau := 2, 1+rng.Intn(3)
		sol, err := offline.SolveFTF(inst(k, tau, seq), offline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if want := mattson.OPTMisses(seq, k); sol.Faults != want {
			t.Fatalf("trial %d: DP=%d Belady=%d (τ=%d)", trial, sol.Faults, want, tau)
		}
	}
}

// TestFTFMatchesBruteForce is the central cross-check: Algorithm 1's
// minimum equals exhaustive search over honest schedules.
func TestFTFMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		sol, err := offline.SolveFTF(in, offline.Options{})
		if err != nil {
			return false
		}
		brute, err := offline.BruteFTF(in)
		if err != nil {
			return false
		}
		return sol.Faults == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem4ForcingNeutralFTF: allowing voluntary evictions in the DP
// never lowers the FTF optimum (Theorem 4).
func TestTheorem4ForcingNeutralFTF(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		honest, err := offline.SolveFTF(in, offline.Options{})
		if err != nil {
			return false
		}
		forcing, err := offline.SolveFTF(in, offline.Options{AllowForcing: true})
		if err != nil {
			return false
		}
		return honest.Faults == forcing.Faults
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestTheorem5FITFChoice: restricting victims to the furthest-in-the-
// future page of some sequence preserves the optimum (Theorem 5).
func TestTheorem5FITFChoice(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		full, err := offline.BruteFTF(in)
		if err != nil {
			return false
		}
		fitf, err := offline.BruteFTFFITF(in)
		if err != nil {
			return false
		}
		return full == fitf
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestFTFLowerBoundsOnline: the offline optimum never exceeds what any
// online strategy achieves.
func TestFTFLowerBoundsOnline(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		sol, err := offline.SolveFTF(in, offline.Options{})
		if err != nil {
			return false
		}
		res, err := sim.Run(in, policy.NewShared(lru()), nil)
		if err != nil {
			return false
		}
		return sol.Faults <= res.TotalFaults()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFTFColdMissFloor(t *testing.T) {
	// The optimum is at least the number of distinct pages.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		sol, err := offline.SolveFTF(in, offline.Options{})
		if err != nil {
			return false
		}
		return sol.Faults >= int64(len(in.R.Universe()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFTFRejectsNonDisjoint(t *testing.T) {
	in := inst(2, 0, core.Sequence{1}, core.Sequence{1})
	if _, err := offline.SolveFTF(in, offline.Options{}); !errors.Is(err, sim.ErrNotDisjoint) {
		t.Fatalf("want ErrNotDisjoint, got %v", err)
	}
}

func TestFTFStateLimit(t *testing.T) {
	seq := make(core.Sequence, 30)
	for i := range seq {
		seq[i] = core.PageID(i % 7)
	}
	in := inst(4, 2, seq, append(core.Sequence{}, seq...))
	// Force disjointness.
	in.R[1] = make(core.Sequence, len(seq))
	for i := range seq {
		in.R[1][i] = seq[i] + 100
	}
	_, err := offline.SolveFTF(in, offline.Options{MaxStates: 500})
	if !errors.Is(err, offline.ErrStateLimit) {
		t.Fatalf("want ErrStateLimit, got %v", err)
	}
}

func TestFTFEmptyInstance(t *testing.T) {
	sol, err := offline.SolveFTF(inst(2, 1, core.Sequence{}, core.Sequence{}), offline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Faults != 0 {
		t.Fatalf("faults = %d, want 0", sol.Faults)
	}
}

// --- PIF ---

func TestPIFMatchesBruteForceHonest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		p := in.R.NumCores()
		bounds := make([]int64, p)
		for i := range bounds {
			bounds[i] = int64(rng.Intn(len(in.R[i]) + 1))
		}
		maxT := int64(in.R.MaxLen() * (in.P.Tau + 1))
		pi := offline.PIFInstance{Inst: in, T: rng.Int63n(maxT + 2), Bounds: bounds}
		dp, _, err := offline.DecidePIF(pi, offline.Options{HonestPIF: true})
		if err != nil {
			return false
		}
		brute, err := offline.BrutePIF(pi)
		if err != nil {
			return false
		}
		return dp == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPIFForcingAtLeastHonest: the forcing search accepts whenever the
// honest search does.
func TestPIFForcingAtLeastHonest(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		p := in.R.NumCores()
		bounds := make([]int64, p)
		for i := range bounds {
			bounds[i] = int64(rng.Intn(len(in.R[i]) + 1))
		}
		maxT := int64(in.R.MaxLen() * (in.P.Tau + 1))
		pi := offline.PIFInstance{Inst: in, T: rng.Int63n(maxT + 2), Bounds: bounds}
		honest, _, err := offline.DecidePIF(pi, offline.Options{HonestPIF: true})
		if err != nil {
			return false
		}
		forcing, _, err := offline.DecidePIF(pi, offline.Options{})
		if err != nil {
			return false
		}
		return !honest || forcing
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestPIFMonotoneInBounds: relaxing a fault budget can only keep a yes.
func TestPIFMonotoneInBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := tinyInstance(rng)
		p := in.R.NumCores()
		bounds := make([]int64, p)
		for i := range bounds {
			bounds[i] = int64(rng.Intn(len(in.R[i]) + 1))
		}
		maxT := int64(in.R.MaxLen() * (in.P.Tau + 1))
		pi := offline.PIFInstance{Inst: in, T: rng.Int63n(maxT + 2), Bounds: bounds}
		yes, _, err := offline.DecidePIF(pi, offline.Options{})
		if err != nil {
			return false
		}
		if !yes {
			return true
		}
		relaxed := make([]int64, p)
		for i := range relaxed {
			relaxed[i] = bounds[i] + int64(rng.Intn(3))
		}
		pi.Bounds = relaxed
		yes2, _, err := offline.DecidePIF(pi, offline.Options{})
		return err == nil && yes2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPIFTrivialCases(t *testing.T) {
	in := inst(2, 1, core.Sequence{1, 2}, core.Sequence{10})
	// T=0: trivially yes.
	yes, _, err := offline.DecidePIF(offline.PIFInstance{Inst: in, T: 0, Bounds: []int64{0, 0}}, offline.Options{})
	if err != nil || !yes {
		t.Fatalf("T=0 should be yes (err=%v)", err)
	}
	// Generous bounds: yes.
	yes, _, err = offline.DecidePIF(offline.PIFInstance{Inst: in, T: 100, Bounds: []int64{10, 10}}, offline.Options{})
	if err != nil || !yes {
		t.Fatalf("generous bounds should be yes (err=%v)", err)
	}
	// Zero bounds but compulsory faults before T: no.
	yes, _, err = offline.DecidePIF(offline.PIFInstance{Inst: in, T: 100, Bounds: []int64{0, 0}}, offline.Options{})
	if err != nil || yes {
		t.Fatalf("zero bounds should be no (err=%v)", err)
	}
}

func TestPIFValidation(t *testing.T) {
	in := inst(2, 0, core.Sequence{1}, core.Sequence{2})
	cases := []offline.PIFInstance{
		{Inst: in, T: -1, Bounds: []int64{1, 1}},
		{Inst: in, T: 1, Bounds: []int64{1}},
		{Inst: in, T: 1, Bounds: []int64{1, -1}},
	}
	for i, pi := range cases {
		if _, _, err := offline.DecidePIF(pi, offline.Options{}); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

// TestPinnedEvictionNeutral verifies the modelling choice inherited from
// Algorithm 1's successor rule: forbidding eviction of pages requested in
// the same timestep (pinned pages) does not change the FTF optimum. The
// check compares the DP (pinned rule) with an unrestricted bound obtained
// by letting the DP force evictions, which strictly contains every
// same-step-eviction schedule's fault pattern.
func TestPinnedEvictionNeutral(t *testing.T) {
	// Same-step eviction of a page another core is about to request has
	// the effect of forcing that core to fault; with AllowForcing the DP
	// covers the equivalent behaviour. Equality of the two optima was
	// already asserted by TestTheorem4ForcingNeutralFTF; here we pin down
	// a targeted scenario where two cores contend at the same timestep.
	in := inst(2, 1,
		core.Sequence{1, 2, 1, 2},
		core.Sequence{10, 11, 10, 11},
	)
	honest, err := offline.SolveFTF(in, offline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	forcing, err := offline.SolveFTF(in, offline.Options{AllowForcing: true})
	if err != nil {
		t.Fatal(err)
	}
	if honest.Faults != forcing.Faults {
		t.Fatalf("honest=%d forcing=%d", honest.Faults, forcing.Faults)
	}
}

// TestFTFAlignmentAdvantage reproduces the paper's key qualitative point:
// an offline schedule can beat shared LRU by sacrificing one sequence to
// protect the others (Lemma 4's construction in miniature).
func TestFTFAlignmentAdvantage(t *testing.T) {
	// Two cores, each cycling through K/2+1 pages: LRU thrashes on both;
	// the optimum parks one sequence.
	mk := func(base core.PageID, reps int) core.Sequence {
		var s core.Sequence
		for r := 0; r < reps; r++ {
			for i := core.PageID(0); i < 3; i++ {
				s = append(s, base+i)
			}
		}
		return s
	}
	in := inst(4, 1, mk(0, 3), mk(100, 3))
	sol, err := offline.SolveFTF(in, offline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(in, policy.NewShared(lru()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalFaults() != 18 {
		t.Fatalf("shared LRU faults = %d, want 18 (thrash)", res.TotalFaults())
	}
	if sol.Faults >= res.TotalFaults() {
		t.Fatalf("OPT %d should beat LRU %d", sol.Faults, res.TotalFaults())
	}
}

// TestFTFThreeCores extends the central cross-check to p=3 with shorter
// sequences: the DP must still match exhaustive search, and the
// Theorem 5 FITF restriction must still be lossless.
func TestFTFThreeCores(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 25; trial++ {
		rs := make(core.RequestSet, 3)
		for j := range rs {
			n := 1 + rng.Intn(3)
			s := make(core.Sequence, n)
			for i := range s {
				s[i] = core.PageID(10*j + rng.Intn(2))
			}
			rs[j] = s
		}
		in := core.Instance{R: rs, P: core.Params{K: 4, Tau: rng.Intn(2)}}
		sol, err := offline.SolveFTF(in, offline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		brute, err := offline.BruteFTF(in)
		if err != nil {
			t.Fatal(err)
		}
		if sol.Faults != brute {
			t.Fatalf("trial %d: DP %d != brute %d (R=%v)", trial, sol.Faults, brute, rs)
		}
		fitf, err := offline.BruteFTFFITF(in)
		if err != nil {
			t.Fatal(err)
		}
		if fitf != brute {
			t.Fatalf("trial %d: FITF-choice %d != brute %d (R=%v)", trial, fitf, brute, rs)
		}
		seq, err := offline.SolveFTFSeq(in, offline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		unpinned, err := offline.BruteFTFUnpinned(in)
		if err != nil {
			t.Fatal(err)
		}
		if seq.Faults != unpinned {
			t.Fatalf("trial %d: seq DP %d != unpinned brute %d (R=%v)", trial, seq.Faults, unpinned, rs)
		}
	}
}

// TestParetoFrontier checks the two-core fault-budget trade-off curve:
// every reported point is feasible and Pareto-minimal, the curve is
// monotone, and its min-max corner agrees with MinUniformBound.
func TestParetoFrontier(t *testing.T) {
	in := core.Instance{
		R: core.RequestSet{
			{0, 1, 0, 1, 0, 1},
			{100, 101, 102, 100, 101, 102},
		},
		P: core.Params{K: 4, Tau: 1},
	}
	const T = 14
	frontier, err := offline.ParetoFrontier(in, T, offline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(frontier) < 2 {
		t.Fatalf("frontier too small: %v", frontier)
	}
	check := func(b0, b1 int64) bool {
		ok, _, err := offline.DecidePIF(offline.PIFInstance{
			Inst: in, T: T, Bounds: []int64{b0, b1},
		}, offline.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	bestUniform := int64(1 << 30)
	for i, pt := range frontier {
		if !check(pt[0], pt[1]) {
			t.Fatalf("frontier point %v infeasible", pt)
		}
		if pt[0] > 0 && check(pt[0]-1, pt[1]) {
			t.Fatalf("point %v not minimal in b0", pt)
		}
		if pt[1] > 0 && check(pt[0], pt[1]-1) {
			t.Fatalf("point %v not minimal in b1", pt)
		}
		if i > 0 && (pt[0] <= frontier[i-1][0] || pt[1] >= frontier[i-1][1]) {
			t.Fatalf("frontier not monotone: %v", frontier)
		}
		mx := pt[0]
		if pt[1] > mx {
			mx = pt[1]
		}
		if mx < bestUniform {
			bestUniform = mx
		}
	}
	uniform, err := offline.MinUniformBound(in, T, offline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if uniform != bestUniform {
		t.Fatalf("min uniform bound %d != frontier min-max corner %d (frontier %v)",
			uniform, bestUniform, frontier)
	}
}

func TestParetoFrontierRejectsWrongArity(t *testing.T) {
	in := core.Instance{R: core.RequestSet{{1}}, P: core.Params{K: 2, Tau: 0}}
	if _, err := offline.ParetoFrontier(in, 5, offline.Options{}); err == nil {
		t.Fatal("p != 2 should be rejected")
	}
}
