package experiments

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E20", "E21", "E22"}
	if len(ids) != len(want) {
		t.Fatalf("registry has %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("registry order %v, want %v", ids, want)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("E99"); err == nil {
		t.Fatal("unknown id should error")
	}
}

// TestAllExperimentsQuick runs the full suite in quick mode and checks
// that every experiment produces tables and no VIOLATION notes — the
// quick suite is the regression harness for all reproduced claims.
func TestAllExperimentsQuick(t *testing.T) {
	cfg := Config{Quick: true, Seed: 7}
	for _, id := range IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			r, err := Get(id)
			if err != nil {
				t.Fatal(err)
			}
			res, err := r(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.ID != id {
				t.Errorf("result id %q", res.ID)
			}
			if len(res.Tables) == 0 {
				t.Error("no tables produced")
			}
			for _, tb := range res.Tables {
				if tb.NumRows() == 0 {
					t.Error("empty table")
				}
			}
			for _, n := range res.Notes {
				if strings.Contains(n, "VIOLATION") || strings.Contains(n, "WARNING") {
					t.Errorf("experiment reports: %s", n)
				}
			}
			var buf bytes.Buffer
			if err := res.Render(&buf); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(buf.String(), id) {
				t.Error("render missing id")
			}
		})
	}
}

func TestRunAllQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAll(Config{Quick: true, Seed: 3}, &buf, (*Result).Render); err != nil {
		t.Fatal(err)
	}
	for _, id := range IDs() {
		if !strings.Contains(buf.String(), "== "+id+":") {
			t.Errorf("output missing %s", id)
		}
	}
}

// TestRunAllParallelMatchesSerial requires the suite's reports to be
// the same on one goroutine and on four, apart from the wall-clock "ms"
// values, the only run-dependent content.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	timings := regexp.MustCompile(`[0-9]+\.[0-9]+\n`)
	cfg := Config{Quick: true, Seed: 11}
	var out [2]string
	for i, workers := range []int{1, 4} {
		var buf bytes.Buffer
		if err := runAll(cfg, &buf, (*Result).Render, workers); err != nil {
			t.Fatal(err)
		}
		out[i] = timings.ReplaceAllString(buf.String(), "X\n")
	}
	if out[0] != out[1] {
		t.Fatal("output at 4 workers differs from 1 worker")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		var buf bytes.Buffer
		r, _ := Get("E7")
		res, err := r(Config{Quick: true, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		res.Render(&buf)
		return buf.String()
	}
	if run() != run() {
		t.Fatal("experiment not deterministic")
	}
}
