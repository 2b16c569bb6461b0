// Package verify runs the paper's lemma-level claims as statistical
// hypotheses over sampled instance families and renders confidence-
// scored verdicts.
//
// The repo's analytic layer (hardness.go, internal/adversary) certifies
// each separation with one hand-picked witness; this package asks the
// complementary question — *where* do the theorems hold? A Claim is a
// falsifiable statement over simulation outcomes ("shared LRU faults at
// least as much as the even static partition on family F at K, τ"), a
// Prover samples N seeded instances of the family, runs both strategies
// through reusable sim.Runners, and condenses the paired results into a
// Verdict: HOLDS, REFUTED or INCONCLUSIVE, with a one-sided sign-test
// p-value, a bootstrap confidence interval on the effect size, and the
// exact seeds of any counterexamples, so every refutation replays as a
// deterministic witness (workload.ParseFamily(F).Sample(seed)).
//
// Everything is deterministic in the manifest: seeds derive from the
// claim seed via sim.DeriveSeed, the bootstrap is seeded, and no
// wall-clock enters a verdict, so verdict reports are byte-stable and
// CI can gate on them (cmd/mcverify).
package verify

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/workload"
)

// Metric names the per-run scalar a claim compares.
type Metric string

const (
	// MetricFaults is the paper's FTF objective: total faults.
	MetricFaults Metric = "faults"
	// MetricMakespan is the completion time of the slowest core.
	MetricMakespan Metric = "makespan"
	// MetricJain is Jain's fairness index of the run's per-core fault
	// counts (joins included), the value telemetry reports as FaultJain.
	MetricJain Metric = "jain"
	// MetricOptRatio is baseline faults divided by the offline optimum
	// (Algorithm 1 / Theorem 6), compared against Claim.Bound instead of
	// a challenger strategy. Exponential in K and p — tiny families only.
	MetricOptRatio Metric = "opt-ratio"
)

// Mode selects how sample-level violations aggregate into a verdict.
type Mode string

const (
	// Universal claims are theorem-shaped: a single violating sample
	// refutes them, and its seed is the counterexample.
	Universal Mode = "universal"
	// Statistical claims are distribution-shaped: the verdict comes from
	// the sign test over paired wins and losses.
	Statistical Mode = "statistical"
)

// Claim is one falsifiable statement over simulation outcomes:
//
//	metric(Baseline) Relation metric(Challenger)   on Family at K, τ
//
// or, for MetricOptRatio,
//
//	faults(Baseline) / OPT  <=  Bound              on Family at K, τ.
type Claim struct {
	// Name identifies the claim in reports and baselines.
	Name string `json:"name"`
	// Doc cites the statement being tested, e.g. "Theorem 1(1)".
	Doc string `json:"doc,omitempty"`
	// Family is a workload family spec (workload.ParseFamily).
	Family string `json:"family"`
	// Metric selects the compared scalar (default faults).
	Metric Metric `json:"metric,omitempty"`
	// Baseline and Challenger are strategy specs (strategyspec.Build).
	// Challenger is empty exactly for opt-ratio claims.
	Baseline   string `json:"baseline"`
	Challenger string `json:"challenger,omitempty"`
	// Relation is "<=" or ">=": the claimed ordering of
	// metric(Baseline) against metric(Challenger).
	Relation string `json:"relation"`
	// Bound is the claimed ratio ceiling for opt-ratio claims.
	Bound float64 `json:"bound,omitempty"`
	// Margin is the mean effect size a statistical claim must clear to
	// HOLD, in the metric's units (0 = any positive effect).
	Margin float64 `json:"margin,omitempty"`
	// Mode is universal or statistical (default statistical).
	Mode Mode `json:"mode,omitempty"`
	// K and Tau are the model parameters of every run.
	K   int `json:"k"`
	Tau int `json:"tau"`
	// Capacity is an optional K(t) schedule spec (capacity
	// mini-language) applied to both runs; it is resolved against each
	// run's own base K, so percentage forms scale with ChallengerK.
	// Empty is the fixed-capacity model. Not valid for opt-ratio claims
	// (the offline solver is fixed-K).
	Capacity string `json:"capacity,omitempty"`
	// ChallengerK, when > 0, runs the challenger at that capacity
	// instead of K — resource-augmentation claims ("the challenger
	// needs 2K cells to match the baseline") in the Sleator-Tarjan /
	// Peserico sense. 0 runs both sides at K.
	ChallengerK int `json:"challenger_k,omitempty"`
	// Samples is the full-mode sample count; QuickSamples the bounded
	// CI-mode count (0 = max(8, Samples/8)).
	Samples      int `json:"samples"`
	QuickSamples int `json:"quick_samples,omitempty"`
	// Seed is the root seed all per-sample and bootstrap seeds derive
	// from (sim.DeriveSeed), making the verdict a pure function of the
	// claim.
	Seed int64 `json:"seed"`
	// Alpha is the significance level of the sign test (0 = 0.05).
	Alpha float64 `json:"alpha,omitempty"`
}

// alpha returns the effective significance level.
func (c *Claim) alpha() float64 {
	if c.Alpha > 0 {
		return c.Alpha
	}
	return 0.05
}

// mode returns the effective mode.
func (c *Claim) mode() Mode {
	if c.Mode == "" {
		return Statistical
	}
	return c.Mode
}

// metric returns the effective metric.
func (c *Claim) metric() Metric {
	if c.Metric == "" {
		return MetricFaults
	}
	return c.Metric
}

// challengerK returns the capacity the challenger runs at.
func (c *Claim) challengerK() int {
	if c.ChallengerK > 0 {
		return c.ChallengerK
	}
	return c.K
}

// sideParams builds the run parameters for one side of the claim at
// base capacity k, resolving the capacity schedule spec when set.
func (c *Claim) sideParams(k int) (core.Params, error) {
	p := core.Params{K: k, Tau: c.Tau}
	if c.Capacity != "" {
		sched, err := capacity.ParseSchedule(c.Capacity, k)
		if err != nil {
			return core.Params{}, err
		}
		p.Capacity = sched
	}
	if err := p.Validate(); err != nil {
		return core.Params{}, err
	}
	return p, nil
}

// quickSamples returns the bounded sample count for -quick runs.
func (c *Claim) quickSamples() int {
	if c.QuickSamples > 0 {
		return c.QuickSamples
	}
	n := c.Samples / 8
	if n < 8 {
		n = 8
	}
	if n > c.Samples {
		n = c.Samples
	}
	return n
}

// Validate checks the claim, including that the family spec parses and
// the strategy specs build.
func (c *Claim) Validate() error {
	_, _, err := c.resolve()
	return err
}

// resolve is Validate returning what it resolved: the run parameters of
// both sides. The baseline runs at K, the challenger at challenger_k
// when set (resource augmentation); the capacity schedule, when
// present, resolves against each side's own base.
func (c *Claim) resolve() (base, chal core.Params, err error) {
	if c.Name == "" {
		return base, chal, fmt.Errorf("verify: claim without a name")
	}
	if c.Samples < 1 {
		return base, chal, fmt.Errorf("verify: claim %s: samples = %d, want >= 1", c.Name, c.Samples)
	}
	if c.QuickSamples < 0 || c.QuickSamples > c.Samples {
		return base, chal, fmt.Errorf("verify: claim %s: quick_samples %d outside [0, %d]", c.Name, c.QuickSamples, c.Samples)
	}
	if base, err = c.sideParams(c.K); err != nil {
		return base, chal, fmt.Errorf("verify: claim %s: %w", c.Name, err)
	}
	if c.ChallengerK < 0 {
		return base, chal, fmt.Errorf("verify: claim %s: challenger_k = %d, want >= 0", c.Name, c.ChallengerK)
	}
	chal = base
	if c.ChallengerK > 0 {
		if chal, err = c.sideParams(c.ChallengerK); err != nil {
			return base, chal, fmt.Errorf("verify: claim %s: challenger_k: %w", c.Name, err)
		}
	}
	switch c.Relation {
	case "<=", ">=":
	default:
		return base, chal, fmt.Errorf("verify: claim %s: relation %q, want \"<=\" or \">=\"", c.Name, c.Relation)
	}
	switch c.mode() {
	case Universal, Statistical:
	default:
		return base, chal, fmt.Errorf("verify: claim %s: unknown mode %q", c.Name, c.Mode)
	}
	fam, err := workload.ParseFamily(c.Family)
	if err != nil {
		return base, chal, fmt.Errorf("verify: claim %s: %w", c.Name, err)
	}
	// Build both strategies against a probe sample so bad specs fail at
	// manifest load, not mid-proof.
	probe, err := fam.Sample(0)
	if err != nil {
		return base, chal, fmt.Errorf("verify: claim %s: %w", c.Name, err)
	}
	if _, err := strategyspec.Build(c.Baseline, probe, c.K, 0); err != nil {
		return base, chal, fmt.Errorf("verify: claim %s: baseline: %w", c.Name, err)
	}
	switch c.metric() {
	case MetricFaults, MetricMakespan, MetricJain:
		if c.Challenger == "" {
			return base, chal, fmt.Errorf("verify: claim %s: metric %s needs a challenger", c.Name, c.metric())
		}
		if _, err := strategyspec.Build(c.Challenger, probe, c.challengerK(), 0); err != nil {
			return base, chal, fmt.Errorf("verify: claim %s: challenger: %w", c.Name, err)
		}
	case MetricOptRatio:
		if c.Challenger != "" {
			return base, chal, fmt.Errorf("verify: claim %s: opt-ratio compares against bound, not a challenger", c.Name)
		}
		if c.Capacity != "" {
			return base, chal, fmt.Errorf("verify: claim %s: opt-ratio is fixed-capacity (the offline solver has no K(t))", c.Name)
		}
		if c.ChallengerK > 0 {
			return base, chal, fmt.Errorf("verify: claim %s: opt-ratio has no challenger to augment", c.Name)
		}
		if c.Bound <= 0 {
			return base, chal, fmt.Errorf("verify: claim %s: opt-ratio needs bound > 0", c.Name)
		}
		if c.Relation != "<=" {
			return base, chal, fmt.Errorf("verify: claim %s: opt-ratio supports only relation \"<=\"", c.Name)
		}
	default:
		return base, chal, fmt.Errorf("verify: claim %s: unknown metric %q", c.Name, c.Metric)
	}
	return base, chal, nil
}

// Manifest is a committed list of claims (verify/claims.json).
type Manifest struct {
	Claims []Claim `json:"claims"`
}

// ParseManifest decodes and validates a manifest.
func ParseManifest(r io.Reader) (*Manifest, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var m Manifest
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("verify: bad manifest: %w", err)
	}
	if len(m.Claims) == 0 {
		return nil, fmt.Errorf("verify: manifest has no claims")
	}
	seen := make(map[string]bool, len(m.Claims))
	for i := range m.Claims {
		c := &m.Claims[i]
		if err := c.Validate(); err != nil {
			return nil, err
		}
		if seen[c.Name] {
			return nil, fmt.Errorf("verify: duplicate claim name %q", c.Name)
		}
		seen[c.Name] = true
	}
	return &m, nil
}

// LoadManifest reads a manifest file.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("verify: %w", err)
	}
	defer f.Close()
	return ParseManifest(f)
}
