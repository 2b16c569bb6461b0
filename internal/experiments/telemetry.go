package experiments

import (
	"fmt"
	"path/filepath"
	"sync"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/telemetry"
)

// telemetryState is the shared bookkeeping behind Config.WithTelemetry:
// the export root plus a per-experiment run counter that keeps export
// directories unique and deterministic (each experiment issues its runs
// sequentially, even when RunAll runs experiments concurrently).
type telemetryState struct {
	dir    string
	window int64
	mu     sync.Mutex
	seq    map[string]int
}

// WithTelemetry returns a copy of cfg in which every mustRun simulation
// dumps a windowed telemetry export (windows.jsonl, CSV matrices,
// Prometheus snapshot, manifest) under
// dir/<experiment>/<nn>_<strategy>_k<K>_tau<τ>/. window is the window
// width in time steps (0 = telemetry default).
func (c Config) WithTelemetry(dir string, window int64) Config {
	c.telem = &telemetryState{dir: dir, window: window, seq: map[string]int{}}
	return c
}

// mustRun simulates and fails the experiment on any protocol error.
// When the config carries telemetry (WithTelemetry), the run's timeline
// is exported under the experiment's directory.
func mustRun(cfg Config, exp string, in core.Instance, s sim.Strategy) (sim.Result, error) {
	ts := cfg.telem
	if ts == nil {
		return sim.Run(in, s, nil)
	}
	ts.mu.Lock()
	n := ts.seq[exp]
	ts.seq[exp] = n + 1
	ts.mu.Unlock()
	label := fmt.Sprintf("%02d_%s_k%d_tau%d",
		n, telemetry.SanitizeLabel(s.Name()), in.P.K, in.P.Tau)
	sess, err := telemetry.Start(telemetry.SessionConfig{
		Dir: filepath.Join(ts.dir, exp, label),
		Collector: telemetry.Config{
			Cores:  in.R.NumCores(),
			Params: in.P,
			Window: ts.window,
		},
		Manifest: telemetry.Manifest{
			Tool:         "mcexp",
			Source:       exp,
			Strategy:     s.Name(),
			StrategyName: s.Name(),
			Cores:        in.R.NumCores(),
			Requests:     in.R.TotalLen(),
			Pages:        len(in.R.Universe()),
			K:            in.P.K,
			Tau:          in.P.Tau,
			Seed:         cfg.Seed,
			Window:       ts.window,
		},
	})
	if err != nil {
		return sim.Result{}, err
	}
	res, err := sim.Run(in, s, sess.Observer())
	if err != nil {
		sess.Abort()
		return res, err
	}
	return res, sess.Close(res)
}
