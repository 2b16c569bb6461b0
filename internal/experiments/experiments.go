package experiments

import (
	"fmt"
	"io"
	"sort"

	"mcpaging/internal/cache"
	"mcpaging/internal/metrics"
	"mcpaging/internal/par"
	"mcpaging/internal/policy"
)

// Config tunes an experiment run.
type Config struct {
	// Quick shrinks workload sizes so the full suite runs in seconds
	// (used by benchmarks and smoke tests). Default (false) uses the
	// sizes recorded in EXPERIMENTS.md.
	Quick bool
	// Seed drives all randomized workloads; experiments are
	// deterministic given the seed.
	Seed int64
	// telem, when set via WithTelemetry, makes every mustRun simulation
	// export its windowed timeline.
	telem *telemetryState
}

// Result is an experiment's report.
type Result struct {
	// ID is the experiment identifier, e.g. "E7".
	ID string
	// Title is a one-line description.
	Title string
	// Claim is the paper statement being reproduced.
	Claim string
	// Tables hold the measurements.
	Tables []*metrics.Table
	// Notes carry free-form observations (e.g. "bound respected at
	// every point").
	Notes []string
}

// Render writes the full report to w.
func (r *Result) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\nClaim: %s\n\n", r.ID, r.Title, r.Claim); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// RenderMarkdown writes the report as a markdown section, suitable for
// pasting into EXPERIMENTS.md.
func (r *Result) RenderMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "## %s — %s\n\n**Claim.** %s\n\n", r.ID, r.Title, r.Claim); err != nil {
		return err
	}
	for _, t := range r.Tables {
		if err := t.Markdown(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "*Note:* %s\n\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Runner executes one experiment.
type Runner func(Config) (*Result, error)

// registry maps experiment IDs to runners; populated by init functions
// in the per-experiment files.
var registry = map[string]Runner{}

// register adds an experiment to the registry (called from init).
func register(id string, r Runner) {
	if _, dup := registry[id]; dup {
		panic("experiments: duplicate id " + id)
	}
	registry[id] = r
}

// IDs returns the registered experiment IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// E2 < E10 numerically.
		a, b := out[i], out[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		return a < b
	})
	return out
}

// Get returns the runner for an experiment ID.
func Get(id string) (Runner, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	return r, nil
}

// RunAll runs every experiment, concurrently on up to GOMAXPROCS
// goroutines, then writes the reports to w in registry order with
// render ((*Result).Render or (*Result).RenderMarkdown). Experiments are
// independent and deterministic given the seed, so the output does not
// depend on the scheduling.
func RunAll(cfg Config, w io.Writer, render func(*Result, io.Writer) error) error {
	return runAll(cfg, w, render, 0)
}

// runAll is RunAll on up to workers goroutines (0 = GOMAXPROCS).
func runAll(cfg Config, w io.Writer, render func(*Result, io.Writer) error, workers int) error {
	ids := IDs()
	results := make([]*Result, len(ids))
	errs := make([]error, len(ids))
	par.For(len(ids), workers, func() func(int) {
		return func(i int) { results[i], errs[i] = registry[ids[i]](cfg) }
	})
	for i, id := range ids {
		if errs[i] != nil {
			return fmt.Errorf("%s: %w", id, errs[i])
		}
		if err := render(results[i], w); err != nil {
			return err
		}
	}
	return nil
}

// lruF is the LRU factory shared by experiments.
func lruF() cache.Factory { return func() cache.Policy { return cache.NewLRU() } }

// fitfF is the FITF factory shared by experiments.
func fitfF() cache.Factory { return func() cache.Policy { return cache.NewFITF() } }

// sharedLRU builds the S_LRU baseline.
func sharedLRU() *policy.Shared { return policy.NewShared(lruF()) }
