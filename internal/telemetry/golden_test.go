package telemetry

import (
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the telemetry golden files")

// goldenFiles are the exports checked byte for byte. manifest.json is
// included with its toolchain field normalized (see normalize); the CI
// step that replays this fixture through cmd/mcsim excludes it from the
// diff instead.
var goldenFiles = []string{
	"events.jsonl",
	"windows.jsonl",
	"fault_rate.csv",
	"hit_rate.csv",
	"occupancy.csv",
	"slowdown.csv",
	"tau_debt.csv",
	"summary.csv",
	"metrics.prom",
	"manifest.json",
}

// normalize makes an export comparable across Go toolchains.
func normalize(b []byte) []byte {
	return []byte(strings.ReplaceAll(string(b), runtime.Version(), "GOTOOLCHAIN"))
}

// TestGoldenExport replays the committed fixture trace through the same
// pipeline as
//
//	mcsim -trace internal/telemetry/testdata/trace.txt -k 8 -tau 2 \
//	      -strategy 'S(LRU)' -telemetry -telemetry-window 64
//
// and requires every export to match testdata/golden byte for byte. CI
// additionally runs the real binary and diffs against the same golden
// directory, so this test and cmd/mcsim must stay in lockstep — if one
// drifts, one of the two checks fails. Regenerate with:
//
//	go test ./internal/telemetry -run Golden -update
func TestGoldenExport(t *testing.T) {
	f, err := os.Open("testdata/trace.txt")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := trace.ReadAuto(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	const spec = "S(LRU)"
	st, err := strategyspec.Build(spec, rs, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{K: 8, Tau: 2}
	dir := t.TempDir()
	sess, err := Start(SessionConfig{
		Dir:           dir,
		Collector:     Config{Cores: rs.NumCores(), Params: params, Window: 64},
		CaptureEvents: true,
		Manifest: Manifest{
			Tool: "mcsim",
			// The path as CI passes it to mcsim from the repo root.
			Source:       "internal/telemetry/testdata/trace.txt",
			Strategy:     spec,
			StrategyName: st.Name(),
			Cores:        rs.NumCores(),
			Requests:     rs.TotalLen(),
			Pages:        len(rs.Universe()),
			K:            params.K,
			Tau:          params.Tau,
			Seed:         1,
			Window:       64,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(core.Instance{R: rs, P: params}, st, sess.Observer())
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(res); err != nil {
		t.Fatal(err)
	}

	goldenDir := filepath.Join("testdata", "golden")
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range goldenFiles {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("export missing %s: %v", name, err)
		}
		got = normalize(got)
		goldenPath := filepath.Join(goldenDir, name)
		if *update {
			if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("golden missing for %s (run with -update): %v", name, err)
		}
		if string(got) != string(want) {
			t.Errorf("%s differs from golden (regenerate with -update if the change is intended)\ngot:\n%s\nwant:\n%s",
				name, clip(got), clip(want))
		}
	}
}

// TestGoldenElasticPrometheus pins the Prometheus snapshot of an
// elastic run, whose mcpaging_capacity_* lines the fixed-capacity
// golden above never carries: the fixture trace under eP[fair](LRU)
// with K(t) stepping from 8 down to 5 mid-run. Regenerate with:
//
//	go test ./internal/telemetry -run GoldenElastic -update
func TestGoldenElasticPrometheus(t *testing.T) {
	f, err := os.Open("testdata/trace.txt")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := trace.ReadAuto(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	sched, err := capacity.ParseSchedule("step(to=5,at=120)", 8)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{K: 8, Tau: 2, Capacity: sched}
	st, err := strategyspec.Build("eP[fair](LRU)", rs, params.K, 1)
	if err != nil {
		t.Fatal(err)
	}
	col := New(Config{Cores: rs.NumCores(), Params: params, Window: 64})
	res, err := sim.Run(core.Instance{R: rs, P: params}, st, col.Observe)
	if err != nil {
		t.Fatal(err)
	}
	col.Finish(res)
	var b strings.Builder
	if err := WritePrometheus(&b, col); err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if !strings.Contains(got, "mcpaging_capacity_k_min 5\n") {
		t.Fatalf("elastic snapshot without K(t)'s minimum:\n%s", got)
	}
	path := filepath.Join("testdata", "metrics_elastic.prom")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run with -update): %v", err)
	}
	if got != string(want) {
		t.Fatalf("elastic snapshot differs from golden (regenerate with -update if the change is intended)\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// clip bounds failure output for large exports.
func clip(b []byte) string {
	const max = 1500
	if len(b) <= max {
		return string(b)
	}
	return string(b[:max]) + "\n…(truncated)"
}
