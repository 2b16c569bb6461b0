// Package bench holds the smoke test of the repository benchmark; the
// benchmark itself is the mcbench command in cmd/mcbench.
package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
	PerLayer []metric `json:"per_layer"`
}

type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestQuickRunReportsEveryMetric builds mcbench and runs every workload
// in -quick mode, untraced and traced. Each run must pass its
// correctness checks with no failed request, and print every metric
// BENCHMARK.json names, for every workload, with the unit it declares.
func TestQuickRunReportsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload for about a second, twice")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "mcbench")
	if out, err := exec.Command(goTool, "build", "-o", bin, "./cmd/mcbench").CombinedOutput(); err != nil {
		t.Fatalf("building mcbench: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		trace string
		want  []metric
	}{{"0", sp.EndToEnd}, {"1", sp.PerLayer}} {
		t.Run("trace="+tc.trace, func(t *testing.T) {
			var stderr bytes.Buffer
			cmd := exec.Command(bin, "-quick", "-seed", "1", "-trace", tc.trace, "-out", dir)
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Fatalf("mcbench: %v\n%s", err, stderr.Bytes())
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("last line is not the result object: %v\n%s", err, out)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("correct=%v failed=%d attempted=%d, want a clean run\n%s", res.Correct, res.Failed, res.Attempted, stderr.Bytes())
			}
			for _, w := range sp.Workloads {
				for _, m := range tc.want {
					got, ok := res.Metrics[w.Name+"/"+m.Name]
					switch {
					case !ok:
						t.Errorf("%s: metric %s not printed", w.Name, m.Name)
					case got.Unit != m.Unit:
						t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
					}
				}
			}
		})
	}
}
