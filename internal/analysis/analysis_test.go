package analysis_test

import (
	"strings"
	"testing"

	"mcpaging/internal/analysis"
	"mcpaging/internal/analysis/analysistest"
)

func TestIsCritical(t *testing.T) {
	cases := []struct {
		pkgPath string
		want    bool
	}{
		{"mcpaging/internal/sim", true},
		{"mcpaging/internal/sweep", true},
		{"mcpaging/internal/cache", true},
		{"mcpaging/internal/telemetry", true},
		{"mcpaging/internal/offline", true},
		{"mcpaging/internal/server", true},
		{"mcpaging/internal/fleet", true},
		{"mcpaging/internal/par", true},
		{"mcpaging/internal/analysis", false},
		{"mcpaging/cmd/mcvet", false},
		{"mcpaging/internal/simx", false}, // prefix match is per path element
	}
	for _, c := range cases {
		if got := analysis.IsCritical(c.pkgPath); got != c.want {
			t.Errorf("IsCritical(%q) = %v, want %v", c.pkgPath, got, c.want)
		}
	}
}

// TestDirectiveHygiene checks that malformed //mcvet:ignore directives
// are themselves findings: no analyzer, unknown analyzer, no reason.
func TestDirectiveHygiene(t *testing.T) {
	pkg := analysistest.Load(t, "baddirective")
	diags := analysis.RunSuite(analysis.DefaultSuite(), pkg)
	want := []string{
		"mcvet:ignore directive names no analyzer",
		`mcvet:ignore directive names unknown analyzer "nosuch"`,
		"mcvet:ignore detmap directive is missing a reason",
	}
	if len(diags) != len(want) {
		t.Fatalf("got %d diagnostics, want %d: %v", len(diags), len(want), diags)
	}
	for i, d := range diags {
		if d.Analyzer != "mcvet" {
			t.Errorf("diagnostic %d attributed to %q, want mcvet", i, d.Analyzer)
		}
		if d.Message != want[i] {
			t.Errorf("diagnostic %d = %q, want %q", i, d.Message, want[i])
		}
	}
}

// TestSuiteCriticalScoping checks that RunSuite skips Critical
// analyzers on non-critical packages: the detmap fixture package is not
// a critical import path, so its map ranges pass the suite untouched.
func TestSuiteCriticalScoping(t *testing.T) {
	pkg := analysistest.Load(t, "detmap")
	for _, d := range analysis.RunSuite(analysis.DefaultSuite(), pkg) {
		if d.Analyzer == "detmap" {
			t.Errorf("detmap ran on non-critical package %s: %s", pkg.PkgPath, d)
		}
	}
	if got := analysis.RunAnalyzer(analysis.Detmap(), pkg); len(got) == 0 {
		t.Fatal("RunAnalyzer found nothing in the detmap fixture; scoping test is vacuous")
	}
}

// TestDefaultSuite pins the suite composition mcvet ships with.
func TestDefaultSuite(t *testing.T) {
	var names []string
	for _, a := range analysis.DefaultSuite() {
		names = append(names, a.Name)
	}
	if got, want := strings.Join(names, ","), "detmap,wallclock,globalrand,hotalloc,obsguard,lockheld,goleak,ctxflow,seedflow,clockflow"; got != want {
		t.Fatalf("DefaultSuite = %s, want %s", got, want)
	}
}

// TestStaleDirectives checks RunAll's dead-annotation detection: a
// well-formed //mcvet:ignore that suppressed nothing anywhere in the
// sweep is itself a finding, while one that earned its keep is not.
// The diagnostic lands on the directive's own line, which cannot carry
// a separate want comment, so this is a direct assertion instead of a
// fixture-want test.
func TestStaleDirectives(t *testing.T) {
	pkg := analysistest.Load(t, "staleignore")
	diags := analysis.RunAll(analysis.DefaultSuite(), []*analysis.Package{pkg})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want exactly the stale directive: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "mcvet" {
		t.Errorf("stale directive attributed to %q, want mcvet", d.Analyzer)
	}
	if want := "mcvet:ignore lockheld directive suppresses nothing — drop it"; d.Message != want {
		t.Errorf("message = %q, want %q", d.Message, want)
	}
	if !strings.Contains(d.Pos.Filename, "staleignore") || d.Pos.Line != 22 {
		t.Errorf("diagnostic at %s:%d, want the stale directive's line 22", d.Pos.Filename, d.Pos.Line)
	}
}
