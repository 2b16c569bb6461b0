package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"mcpaging/internal/sim"
	"mcpaging/internal/workload"
)

var update = flag.Bool("update", false, "rewrite docs/results-full.md")

// TestResultsFullRecord renders the whole suite at mcexp's defaults
// (full size, seed 1) as markdown and requires docs/results-full.md to
// match it byte for byte, so a change to any experiment's output shows
// up as a diff that the change must regenerate and explain. Regenerate
// with `make results`, which runs:
//
//	go test ./internal/experiments -run ResultsFullRecord -update
func TestResultsFullRecord(t *testing.T) {
	var got bytes.Buffer
	if err := RunAll(Config{Seed: 1}, &got, (*Result).RenderMarkdown); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("..", "..", "docs", "results-full.md")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("docs/results-full.md differs from mcexp -format md at line %d (run `make results` if the change is intended):\n got: %s\nwant: %s", i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("docs/results-full.md has %d lines, mcexp -format md %d (run `make results` if the change is intended)", len(wantLines), len(gotLines))
}

// TestMatrixNotesReadTheTables feeds matrixNotes made-up runs: a
// strategy with the fewest faults on both workloads is named, ties are
// joined, and S(LRU) and dP(LRU) differing on a workload is a
// VIOLATION naming it.
func TestMatrixNotesReadTheTables(t *testing.T) {
	run := func(faults ...int64) sim.Result { return sim.Result{Faults: faults, Finish: []int64{9, 9}} }
	specs := []string{"S(LRU)", "dP(LRU)", "S(LFU)"}
	kinds := []workload.Kind{workload.Zipf, workload.Loop}
	runs := [][]sim.Result{
		{run(5, 5), run(5, 5), run(1, 2)},
		{run(4, 4), run(4, 3), run(3, 4)},
	}
	want := []string{
		"fewest faults per workload: zipf S(LFU) 3 (Jain 0.9); loop dP(LRU) = S(LFU) 7 (Jain 0.98)",
		"S(LFU) has the fewest faults on every workload",
		"VIOLATION: S(LRU) and dP(LRU) differ on loop (Lemma 3)",
	}
	if got := matrixNotes(kinds, specs, runs); !slices.Equal(got, want) {
		t.Fatalf("notes:\n%q\nwant:\n%q", got, want)
	}
}

// TestLemma4NoteReadsTheTable: E7's note holds only while the ratio
// rises with τ and with p and stays at least half of p(τ+1); any other
// table is a VIOLATION naming each failed check.
func TestLemma4NoteReadsTheTable(t *testing.T) {
	ps, taus := []int{2, 4}, []int{0, 1}
	for _, c := range []struct {
		ratios [][]float64
		want   string
	}{
		{[][]float64{{2, 3.9}, {3.9, 7.8}}, "ratio grows with both p and τ, tracking p(τ+1) as n→∞"},
		{[][]float64{{2, 2}, {3.9, 7.8}}, "VIOLATION: at p=2 the ratio does not rise from τ=0 to τ=1 (2 → 2)"},
		{[][]float64{{2, 3.9}, {2, 3.8}}, "VIOLATION: at τ=0 the ratio does not rise from p=2 to p=4 (2 → 2); " +
			"at τ=1 the ratio does not rise from p=2 to p=4 (3.9 → 3.8); at p=4, τ=1 the ratio 3.8 is below p(τ+1)/2 = 4"},
	} {
		if got := lemma4Note(ps, taus, c.ratios); got != c.want {
			t.Errorf("lemma4Note(%v):\n got %q\nwant %q", c.ratios, got, c.want)
		}
	}
}

// TestTrendNoteReadsTheCounts: E10's note names a rise, a rise to a
// peak and the fall after it, or else the counts themselves.
func TestTrendNoteReadsTheCounts(t *testing.T) {
	for _, c := range []struct {
		param      string
		xs, counts []int
		want       string
	}{
		{"n", []int{2, 3, 4}, []int{4, 8, 13}, "rises with n (4 → 13 for n = 2…4)"},
		{"K", []int{2, 3, 4}, []int{9, 27, 20}, "rises with K to 27 at K = 3, then falls to 20 at K = 4"},
		{"τ", []int{0, 1, 2}, []int{5, 3, 7}, "moves with τ without one trend (τ = [0 1 2]: [5 3 7])"},
		{"τ", []int{0, 1}, []int{5, 5}, "moves with τ without one trend (τ = [0 1]: [5 5])"},
	} {
		if got := trendNote(c.param, c.xs, c.counts); got != c.want {
			t.Errorf("trendNote(%s, %v, %v):\n got %q\nwant %q", c.param, c.xs, c.counts, got, c.want)
		}
	}
}
