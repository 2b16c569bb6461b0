package verify

import (
	"reflect"
	"strings"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/workload"
)

// fastClaim is a small statistical claim used across prover tests: on
// the thm1 adversary construction shared LRU beats the even static
// partition on every draw, so it resolves HOLDS quickly.
func fastClaim() Claim {
	return Claim{
		Name:       "fast",
		Family:     "thm1(p=2,k=4,tau=1,x=4)",
		Baseline:   "S(LRU)",
		Challenger: "sP[even](LRU)",
		Relation:   "<=",
		K:          4,
		Tau:        1,
		Samples:    10,
		Seed:       7,
	}
}

func TestClaimValidateErrors(t *testing.T) {
	cases := []struct {
		mutate func(*Claim)
		want   string
	}{
		{func(c *Claim) { c.Name = "" }, "without a name"},
		{func(c *Claim) { c.Samples = 0 }, "samples"},
		{func(c *Claim) { c.QuickSamples = 99 }, "quick_samples"},
		{func(c *Claim) { c.K = 0 }, "claim fast"},
		{func(c *Claim) { c.Relation = "<" }, "relation"},
		{func(c *Claim) { c.Mode = "sometimes" }, "unknown mode"},
		{func(c *Claim) { c.Family = "nope(x=1)" }, "unknown family"},
		{func(c *Claim) { c.Baseline = "Q(LRU)" }, "baseline"},
		{func(c *Claim) { c.Challenger = "S(WAT)" }, "challenger"},
		{func(c *Claim) { c.Challenger = "" }, "needs a challenger"},
		{func(c *Claim) { c.Metric = "latency" }, "unknown metric"},
		{func(c *Claim) { c.Metric = MetricOptRatio; c.Bound = 2 }, "not a challenger"},
		{func(c *Claim) { c.Metric = MetricOptRatio; c.Challenger = "" }, "bound > 0"},
		{func(c *Claim) {
			c.Metric = MetricOptRatio
			c.Challenger = ""
			c.Bound = 2
			c.Relation = ">="
		}, "only relation"},
	}
	for _, tc := range cases {
		c := fastClaim()
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("Validate accepted a bad claim (want error containing %q)", tc.want)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Validate error %q does not contain %q", err, tc.want)
		}
	}
	c := fastClaim()
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate rejected the reference claim: %v", err)
	}
}

func TestParseManifestErrors(t *testing.T) {
	cases := []struct {
		json string
		want string
	}{
		{`{"claims": []}`, "no claims"},
		{`{"claimz": []}`, "bad manifest"},
		{`{"claims": [{"name": "a", "family": "zipf", "baseline": "S(LRU)",
		   "challenger": "S(FITF)", "relation": ">=", "k": 4, "tau": 1,
		   "samples": 2, "seed": 1, "surprise": true}]}`, "bad manifest"},
	}
	for _, tc := range cases {
		if _, err := ParseManifest(strings.NewReader(tc.json)); err == nil {
			t.Errorf("ParseManifest accepted %s", tc.json)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseManifest error %q does not contain %q", err, tc.want)
		}
	}

	// Duplicate names are rejected.
	one := `{"name": "dup", "family": "thm1(p=2,k=4,tau=1,x=4)",
	         "baseline": "S(LRU)", "challenger": "sP[even](LRU)",
	         "relation": "<=", "k": 4, "tau": 1, "samples": 2, "seed": 1}`
	if _, err := ParseManifest(strings.NewReader(`{"claims": [` + one + `,` + one + `]}`)); err == nil {
		t.Error("ParseManifest accepted duplicate claim names")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate-name error: %v", err)
	}
}

func TestQuickSamplesDefault(t *testing.T) {
	c := Claim{Samples: 100}
	if got := c.quickSamples(); got != 12 {
		t.Errorf("quickSamples(100) = %d, want 12", got)
	}
	c = Claim{Samples: 4}
	if got := c.quickSamples(); got != 4 {
		t.Errorf("quickSamples(4) = %d, want 4 (capped at samples)", got)
	}
	c = Claim{Samples: 100, QuickSamples: 20}
	if got := c.quickSamples(); got != 20 {
		t.Errorf("explicit quickSamples = %d, want 20", got)
	}
}

// TestProveDeterministic: the verdict is a pure function of the claim
// across repeated runs (TestProveAllWorkerInvariance covers worker
// counts).
func TestProveDeterministic(t *testing.T) {
	c := fastClaim()
	a, err := NewProver(Options{}).Prove(c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewProver(Options{}).Prove(c)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("repeated Prove differs:\n%+v\n%+v", a, b)
	}
	if a.Status != Holds {
		t.Errorf("reference claim status = %s, want HOLDS", a.Status)
	}
	if a.Wins != c.Samples || a.Losses != 0 {
		t.Errorf("reference claim tallied %d/%d/%d", a.Wins, a.Losses, a.Ties)
	}
	if len(a.WitnessSeeds) == 0 {
		t.Error("HOLDS verdict carries no witness seeds")
	}
}

func TestProveAllWorkerInvariance(t *testing.T) {
	m := &Manifest{Claims: []Claim{fastClaim()}}
	c2 := fastClaim()
	c2.Name = "fast2"
	c2.Seed = 8
	m.Claims = append(m.Claims, c2)
	serial, err := NewProver(Options{Workers: 1}).ProveAll(m)
	if err != nil {
		t.Fatal(err)
	}
	conc, err := NewProver(Options{Workers: 4}).ProveAll(m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, conc) {
		t.Errorf("worker count changed verdicts:\n%+v\n%+v", serial, conc)
	}
	if serial[0].Claim != "fast" || serial[1].Claim != "fast2" {
		t.Errorf("verdicts out of manifest order: %s, %s", serial[0].Claim, serial[1].Claim)
	}
}

// TestUniversalRefutedReplays: the reverse of the thm1 ordering is
// refuted, and its counterexample seeds replay the violation exactly.
func TestUniversalRefutedReplays(t *testing.T) {
	c := fastClaim()
	c.Name = "reverse"
	c.Baseline = "sP[even](LRU)"
	c.Challenger = "S(LRU)"
	c.Mode = Universal
	v, err := NewProver(Options{}).Prove(c)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != Refuted {
		t.Fatalf("reverse claim status = %s, want REFUTED", v.Status)
	}
	if len(v.CounterSeeds) == 0 {
		t.Fatal("REFUTED verdict carries no counterexample seeds")
	}

	// Replay the first counterexample from its seed alone.
	fam, err := workload.ParseFamily(c.Family)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := fam.Sample(v.CounterSeeds[0])
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{K: c.K, Tau: c.Tau}
	faults := func(spec string) int64 {
		st, err := strategyspec.Build(spec, rs, c.K, 0)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(core.Instance{R: rs, P: params}, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res.TotalFaults()
	}
	if even, shared := faults(c.Baseline), faults(c.Challenger); even <= shared {
		t.Errorf("counterexample does not replay: even=%d <= shared=%d", even, shared)
	}
}

func TestStatisticalMarginInconclusive(t *testing.T) {
	c := fastClaim()
	c.Margin = 1e9 // ordering holds, but no finite sample clears this
	v, err := NewProver(Options{}).Prove(c)
	if err != nil {
		t.Fatal(err)
	}
	if v.Status != Inconclusive {
		t.Errorf("margin-gated claim status = %s, want INCONCLUSIVE", v.Status)
	}
	if v.Losses != 0 {
		t.Errorf("ordering unexpectedly violated: %d losses", v.Losses)
	}
}

func TestQuickAndScaleOptions(t *testing.T) {
	c := fastClaim()
	c.Samples = 32
	c.QuickSamples = 4
	v, err := NewProver(Options{Quick: true}).Prove(c)
	if err != nil {
		t.Fatal(err)
	}
	if v.Samples != 4 {
		t.Errorf("quick samples = %d, want 4", v.Samples)
	}
	v, err = NewProver(Options{Quick: true, SampleScale: 2}).Prove(c)
	if err != nil {
		t.Fatal(err)
	}
	if v.Samples != 8 {
		t.Errorf("scaled quick samples = %d, want 8", v.Samples)
	}
}

func TestReportRoundTrip(t *testing.T) {
	in := []Verdict{
		{Claim: "a", Status: Holds, Samples: 3, Wins: 3, PValue: 0.125,
			WitnessSeeds: []int64{1, 2}},
		{Claim: "b", Status: Refuted, Samples: 3, Losses: 3, PValue: 1,
			CounterSeeds: []int64{-9}},
	}
	var buf strings.Builder
	if err := WriteReport(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadReport(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("report round trip:\n%+v\n%+v", in, out)
	}
	if _, err := ReadReport(strings.NewReader("{not json")); err == nil {
		t.Error("ReadReport accepted malformed JSONL")
	}
}

func TestBaselineCompare(t *testing.T) {
	b := &Baseline{Claims: map[string]BaselineEntry{
		"a": {Full: Holds, Quick: Holds},
		"b": {Full: Holds, Quick: Inconclusive},
		"c": {Full: Inconclusive},
	}}
	verdicts := []Verdict{
		{Claim: "a", Status: Inconclusive}, // regression in both modes
		{Claim: "b", Status: Inconclusive}, // regression in full only
		{Claim: "c", Status: Refuted},      // full regression; quick skipped
		{Claim: "new", Status: Refuted},    // not in baseline: never a regression
	}
	full := b.Compare(verdicts, false)
	want := []Regression{
		{Claim: "a", Was: Holds, Now: Inconclusive},
		{Claim: "b", Was: Holds, Now: Inconclusive},
		{Claim: "c", Was: Inconclusive, Now: Refuted},
	}
	if !reflect.DeepEqual(full, want) {
		t.Errorf("full Compare = %+v, want %+v", full, want)
	}
	quick := b.Compare(verdicts, true)
	want = []Regression{{Claim: "a", Was: Holds, Now: Inconclusive}}
	if !reflect.DeepEqual(quick, want) {
		t.Errorf("quick Compare = %+v, want %+v", quick, want)
	}
	if s := quick[0].String(); s != "a: HOLDS -> INCONCLUSIVE" {
		t.Errorf("Regression.String() = %q", s)
	}

	// Improvements are not regressions.
	if got := b.Compare([]Verdict{{Claim: "c", Status: Holds}}, false); len(got) != 0 {
		t.Errorf("improvement reported as regression: %+v", got)
	}
}

func TestBaselineMerge(t *testing.T) {
	b := &Baseline{}
	b.Merge([]Verdict{{Claim: "a", Status: Holds}}, true)
	b.Merge([]Verdict{{Claim: "a", Status: Inconclusive}}, false)
	got := b.Claims["a"]
	if got.Quick != Holds || got.Full != Inconclusive {
		t.Errorf("merged entry = %+v", got)
	}
}

func TestAnyRefuted(t *testing.T) {
	if AnyRefuted([]Verdict{{Status: Holds}, {Status: Inconclusive}}) {
		t.Error("AnyRefuted true without refutations")
	}
	if !AnyRefuted([]Verdict{{Status: Holds}, {Status: Refuted}}) {
		t.Error("AnyRefuted missed a refutation")
	}
}

func TestJainMetricClaim(t *testing.T) {
	c := Claim{
		Name:       "jain",
		Family:     "mixed(cores=3,length=512,pages=32)",
		Metric:     MetricJain,
		Baseline:   "dP[fair](LRU)",
		Challenger: "sP[even](LRU)",
		Relation:   ">=",
		K:          8,
		Tau:        1,
		Samples:    4,
		Seed:       3,
	}
	v, err := NewProver(Options{}).Prove(c)
	if err != nil {
		t.Fatal(err)
	}
	if v.Wins+v.Losses+v.Ties != 4 {
		t.Errorf("jain claim tally %d/%d/%d does not cover 4 samples", v.Wins, v.Losses, v.Ties)
	}
}

func TestOptRatioClaim(t *testing.T) {
	c := Claim{
		Name:     "ratio",
		Family:   "uniform(cores=2,length=12,pages=3)",
		Metric:   MetricOptRatio,
		Baseline: "dP(LRU)",
		Relation: "<=",
		Bound:    8,
		K:        2,
		Tau:      1,
		Samples:  3,
		Seed:     4,
	}
	v, err := NewProver(Options{}).Prove(c)
	if err != nil {
		t.Fatal(err)
	}
	// A ratio can never exceed 8x on these tiny instances; the effect is
	// bound - ratio, so every sample must support the claim.
	if v.Losses != 0 {
		t.Errorf("opt-ratio bound 8 violated: %d losses (counter seeds %v)", v.Losses, v.CounterSeeds)
	}
}
