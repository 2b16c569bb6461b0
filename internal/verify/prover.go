package verify

import (
	"fmt"
	"sync"

	"mcpaging/internal/core"
	"mcpaging/internal/offline"
	"mcpaging/internal/sim"
	"mcpaging/internal/stats"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/telemetry"
	"mcpaging/internal/workload"
)

// Seed streams: every per-sample seed derives from the claim seed via
// sim.DeriveSeed(seed, stream, index), one stream per consumer, so the
// instance draw, the strategies' own randomness and the bootstrap
// resampling never alias.
const (
	streamInstance = iota
	streamStrategy
	streamBootstrap
)

// effectEps separates wins from ties under float metrics (Jain,
// ratios); integer metrics produce whole-number effects, so the epsilon
// never misclassifies them.
const effectEps = 1e-9

// maxCounterSeeds bounds how many counterexample seeds a verdict
// carries; maxWitnessSeeds likewise for supporting witnesses.
const (
	maxCounterSeeds = 8
	maxWitnessSeeds = 3
)

// Options tunes a Prover.
type Options struct {
	// Quick substitutes each claim's bounded quick_samples count — the
	// per-PR CI budget.
	Quick bool
	// SampleScale multiplies sample counts after the Quick selection
	// (nightly runs use > 1; 0 means 1).
	SampleScale float64
	// Workers proves that many claims concurrently (0 or 1 = serial).
	// Verdict order and content are unaffected: each claim's sampling
	// is self-contained and seeded.
	Workers int
	// Progress, when non-nil, receives one line per finished claim.
	Progress func(v Verdict)
}

// Prover samples claims and renders verdicts.
type Prover struct {
	opts Options
}

// NewProver returns a Prover with the given options.
func NewProver(opts Options) *Prover { return &Prover{opts: opts} }

// samplesFor resolves the effective sample count for a claim.
func (p *Prover) samplesFor(c *Claim) int {
	n := c.Samples
	if p.opts.Quick {
		n = c.quickSamples()
	}
	if p.opts.SampleScale > 0 {
		n = int(float64(n) * p.opts.SampleScale)
	}
	if n < 1 {
		n = 1
	}
	return n
}

// Prove samples one claim and renders its verdict.
func (p *Prover) Prove(c Claim) (Verdict, error) {
	if err := c.Validate(); err != nil {
		return Verdict{}, err
	}
	fam, err := workload.ParseFamily(c.Family)
	if err != nil {
		return Verdict{}, err
	}
	n := p.samplesFor(&c)
	v := Verdict{
		Claim:       c.Name,
		Family:      c.Family,
		Metric:      c.metric(),
		Baseline:    c.Baseline,
		Challenger:  c.Challenger,
		Relation:    c.Relation,
		Mode:        c.mode(),
		Margin:      c.Margin,
		Samples:     n,
		Capacity:    c.Capacity,
		ChallengerK: c.ChallengerK,
	}
	// Each side runs at its own base capacity: the baseline at K, the
	// challenger at challenger_k when set (resource augmentation). The
	// capacity schedule, when present, resolves against each base.
	baseParams, err := c.sideParams(c.K)
	if err != nil {
		return Verdict{}, fmt.Errorf("verify: claim %s: %w", c.Name, err)
	}
	chalParams := baseParams
	if c.challengerK() != c.K {
		chalParams, err = c.sideParams(c.challengerK())
		if err != nil {
			return Verdict{}, fmt.Errorf("verify: claim %s: %w", c.Name, err)
		}
	}
	var runner *sim.Runner
	effects := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		instSeed := sim.DeriveSeed(c.Seed, streamInstance, int64(i))
		rs, err := fam.Sample(instSeed)
		if err != nil {
			return Verdict{}, fmt.Errorf("verify: claim %s sample %d: %w", c.Name, i, err)
		}
		if runner == nil {
			runner, err = sim.NewRunner(rs)
		} else {
			err = runner.Bind(rs)
		}
		if err != nil {
			return Verdict{}, fmt.Errorf("verify: claim %s sample %d: %w", c.Name, i, err)
		}
		stratSeed := sim.DeriveSeed(c.Seed, streamStrategy, int64(i))
		effect, err := p.evalSample(&c, rs, runner, baseParams, chalParams, stratSeed)
		if err != nil {
			return Verdict{}, fmt.Errorf("verify: claim %s sample %d (seed %d): %w", c.Name, i, instSeed, err)
		}
		effects = append(effects, effect)
		switch {
		case effect > effectEps:
			v.Wins++
			if len(v.WitnessSeeds) < maxWitnessSeeds {
				v.WitnessSeeds = append(v.WitnessSeeds, instSeed)
			}
		case effect < -effectEps:
			v.Losses++
			if len(v.CounterSeeds) < maxCounterSeeds {
				v.CounterSeeds = append(v.CounterSeeds, instSeed)
			}
		default:
			v.Ties++
			if len(v.WitnessSeeds) < maxWitnessSeeds {
				v.WitnessSeeds = append(v.WitnessSeeds, instSeed)
			}
		}
	}
	if runner != nil {
		runner.Release()
	}
	sum := stats.Summarize(effects)
	v.EffectMean = sum.Mean
	ci := stats.BootstrapMeanCI(effects, 0, 0.95, sim.DeriveSeed(c.Seed, streamBootstrap, 0))
	v.EffectLo, v.EffectHi = ci.Lo, ci.Hi
	v.PValue = stats.SignTest(v.Wins, v.Losses)
	v.Status = decide(&c, &v)
	return v, nil
}

// evalSample computes one paired effect: positive means the sample
// supports the claim, negative refutes it, zero is a tie.
func (p *Prover) evalSample(c *Claim, rs core.RequestSet, runner *sim.Runner, baseParams, chalParams core.Params, stratSeed int64) (float64, error) {
	base, err := p.runMetric(c, c.Baseline, rs, runner, baseParams, stratSeed)
	if err != nil {
		return 0, fmt.Errorf("baseline %s: %w", c.Baseline, err)
	}
	var chal float64
	if c.metric() == MetricOptRatio {
		chal = c.Bound
	} else {
		chal, err = p.runMetric(c, c.Challenger, rs, runner, chalParams, stratSeed)
		if err != nil {
			return 0, fmt.Errorf("challenger %s: %w", c.Challenger, err)
		}
	}
	// Orient the effect so "supports the claim" is positive.
	if c.Relation == "<=" {
		return chal - base, nil
	}
	return base - chal, nil
}

// runMetric runs one strategy over the bound request set at the given
// side's parameters and extracts the claim's metric.
func (p *Prover) runMetric(c *Claim, spec string, rs core.RequestSet, runner *sim.Runner, params core.Params, stratSeed int64) (float64, error) {
	strat, err := strategyspec.Build(spec, rs, params.K, stratSeed)
	if err != nil {
		return 0, err
	}
	var obs sim.Observer
	var col *telemetry.Collector
	if c.metric() == MetricJain {
		col = telemetry.New(telemetry.Config{Cores: rs.NumCores(), Params: params})
		obs = col.Observe
	}
	res, err := runner.Run(params, strat, obs)
	if err != nil {
		return 0, err
	}
	switch c.metric() {
	case MetricMakespan:
		return float64(res.Makespan), nil
	case MetricJain:
		col.Finish(res)
		return col.Totals().FaultJain, nil
	case MetricOptRatio:
		opt, err := offline.SolveFTF(core.Instance{R: rs, P: params}, offline.Options{})
		if err != nil {
			return 0, err
		}
		if opt.Faults == 0 {
			return 0, fmt.Errorf("offline optimum has zero faults; ratio undefined")
		}
		return float64(res.TotalFaults()) / float64(opt.Faults), nil
	default: // MetricFaults
		return float64(res.TotalFaults()), nil
	}
}

// decide aggregates sample-level outcomes into a verdict status.
func decide(c *Claim, v *Verdict) Status {
	switch c.mode() {
	case Universal:
		if v.Losses > 0 {
			return Refuted
		}
		return Holds
	default:
		alpha := c.alpha()
		if v.PValue <= alpha && v.EffectMean >= c.Margin {
			return Holds
		}
		if stats.SignTest(v.Losses, v.Wins) <= alpha {
			return Refuted
		}
		return Inconclusive
	}
}

// ProveAll proves every claim of the manifest, in manifest order, with
// Options.Workers-way concurrency across claims.
func (p *Prover) ProveAll(m *Manifest) ([]Verdict, error) {
	verdicts := make([]Verdict, len(m.Claims))
	errs := make([]error, len(m.Claims))
	workers := p.opts.Workers
	if workers < 1 {
		workers = 1
	}
	if workers > len(m.Claims) {
		workers = len(m.Claims)
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				verdicts[i], errs[i] = p.Prove(m.Claims[i])
				if errs[i] == nil && p.opts.Progress != nil {
					p.opts.Progress(verdicts[i])
				}
			}
		}()
	}
	for i := range m.Claims {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("verify: claim %s: %w", m.Claims[i].Name, err)
		}
	}
	return verdicts, nil
}
