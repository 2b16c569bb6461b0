package strategyspec_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// tinyLFURow is one pinned TinyLFU result.
type tinyLFURow struct {
	Spec     string  `json:"spec"`
	Kind     string  `json:"kind"`
	Shared   float64 `json:"shared"`
	K        int     `json:"k"`
	Faults   []int64 `json:"faults"`
	Makespan int64   `json:"makespan"`
}

// TestTinyLFUGolden pins TinyLFU's results on generated workloads, whose
// sparse page IDs the engine renames before strategies see them.
// TinyLFU is the one policy whose victims depend on page ID values (its
// count-min sketch hashes them), so this catches any change to the IDs
// it hashes. Regenerate with:
//
//	go test ./internal/strategyspec -run TinyLFUGolden -update
func TestTinyLFUGolden(t *testing.T) {
	var rows []tinyLFURow
	for _, kind := range []workload.Kind{workload.Zipf, workload.Phased} {
		for _, shared := range []float64{0, 0.1} {
			rs, err := workload.Generate(workload.Spec{Cores: 4, Length: 12500, Pages: 512,
				Kind: kind, SharedFrac: shared, Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{64, 256} {
				for _, spec := range []string{"S(TINYLFU)", "sP[even](TINYLFU)"} {
					st, err := strategyspec.Build(spec, rs, k, 1)
					if err != nil {
						t.Fatal(err)
					}
					res, err := sim.Run(core.Instance{R: rs, P: core.Params{K: k, Tau: 4}}, st, nil)
					if err != nil {
						t.Fatalf("%s %s shared=%v K=%d: %v", spec, kind, shared, k, err)
					}
					rows = append(rows, tinyLFURow{Spec: spec, Kind: string(kind), Shared: shared, K: k,
						Faults: res.Faults, Makespan: res.Makespan})
				}
			}
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, filepath.Join("testdata", "tinylfu_golden.jsonl"), buf.Bytes())
}

// checkGolden compares got with the golden file at path, row by row, or
// rewrites the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden missing (run with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gotRows := bytes.Split(got, []byte("\n"))
	exp := bytes.Split(want, []byte("\n"))
	for i := range gotRows {
		if i >= len(exp) || !bytes.Equal(gotRows[i], exp[i]) {
			t.Errorf("row %d differs from golden:\ngot  %s\nwant %s", i, gotRows[i], line(exp, i))
		}
	}
	if len(exp) > len(gotRows) {
		t.Errorf("golden has %d rows, run produced %d", len(exp), len(gotRows))
	}
}

func line(lines [][]byte, i int) string {
	if i < len(lines) {
		return string(lines[i])
	}
	return fmt.Sprintf("<no row %d>", i)
}
