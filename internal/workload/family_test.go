package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mcpaging/internal/trace"
)

// familySpecs is one representative spec per registered family (the
// trace family is added per-test because it needs a fixture path).
var familySpecs = []string{
	"uniform(cores=2,length=512,pages=32)",
	"zipf(cores=2,length=512,pages=32,s=1.4)",
	"loop(cores=2,length=512,pages=32)",
	"phased(cores=2,length=512,pages=32,phases=4,ws=8)",
	"markov(cores=2,length=512,pages=32,jump=0.1)",
	"corr(cores=3,length=512,pages=32,rho=0.7,dwell=64)",
	"mixed(cores=3,length=512,pages=32)",
	"thm1(p=2,k=4,tau=1,x=8)",
	"lemma1(p=2,k=4,percore=256)",
	"lemma2(p=2,k=4,percore=256)",
	"lemma4(p=2,k=4,percore=256)",
}

// sampleBytes serializes a draw so determinism checks compare the
// request stream byte for byte.
func sampleBytes(t *testing.T, spec string, seed int64) []byte {
	t.Helper()
	f, err := ParseFamily(spec)
	if err != nil {
		t.Fatalf("ParseFamily(%q): %v", spec, err)
	}
	rs, err := f.Sample(seed)
	if err != nil {
		t.Fatalf("Sample(%q, %d): %v", spec, seed, err)
	}
	if err := rs.Validate(); err != nil {
		t.Fatalf("Sample(%q, %d) invalid: %v", spec, seed, err)
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, rs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestFamilySeedDeterminism(t *testing.T) {
	specs := append([]string(nil), familySpecs...)
	specs = append(specs, traceSpec(t))
	for _, spec := range specs {
		a := sampleBytes(t, spec, 42)
		b := sampleBytes(t, spec, 42)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: same seed produced different request streams", spec)
		}
		c := sampleBytes(t, spec, 43)
		if bytes.Equal(a, c) {
			t.Errorf("%s: different seeds produced identical request streams", spec)
		}
	}
}

func TestFamilyCoverage(t *testing.T) {
	// Every registered family must appear in the determinism matrix, so
	// adding a family without a seed-determinism test fails here.
	covered := map[string]bool{"trace": true}
	for _, spec := range familySpecs {
		covered[spec[:strings.Index(spec, "(")]] = true
	}
	for _, name := range FamilyNames() {
		if !covered[name] {
			t.Errorf("family %s has no seed-determinism coverage", name)
		}
	}
	if len(ListFamilies()) != len(FamilyNames()) {
		t.Fatal("ListFamilies and FamilyNames disagree")
	}
}

// traceSpec writes a small trace fixture and returns a trace-family
// spec pointing at it.
func traceSpec(t *testing.T) string {
	t.Helper()
	rs, err := Generate(Spec{Cores: 2, Length: 256, Pages: 16, Kind: Phased, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, rs); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return "trace(path=" + path + ",rewrite=0.05,swap=0.05)"
}

func TestTraceFamilyPreservesShape(t *testing.T) {
	spec := traceSpec(t)
	f, err := ParseFamily(spec)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := f.Sample(3)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumCores() != 2 || len(rs[0]) != 256 || len(rs[1]) != 256 {
		t.Fatalf("perturbed replay changed the trace shape: %d cores, lens %d/%d",
			rs.NumCores(), len(rs[0]), len(rs[1]))
	}
}

func TestParseFamilyErrors(t *testing.T) {
	bad := []string{
		"nope(cores=2)",                   // unknown family
		"zipf(cores=2,bogus=1)",           // unknown key
		"zipf(cores=x)",                   // malformed int
		"zipf(cores=2,s=abc)",             // malformed float
		"zipf(cores=2,cores=3)",           // duplicate key
		"zipf(cores=2",                    // unbalanced paren
		"corr(rho=1.5)",                   // out-of-range
		"trace()",                         // missing path
		"trace(path=/does/not/exist.txt)", // unreadable path
		"mixed(cores=1)",                  // needs >= 2 cores
		"zipf(cores=2,v=1e15)",            // numerically unusable
	}
	for _, spec := range bad {
		if _, err := ParseFamily(spec); err == nil {
			t.Errorf("ParseFamily(%q) unexpectedly succeeded", spec)
		}
	}
}

func TestFamilyDefaults(t *testing.T) {
	// A bare family name parses with defaults.
	f, err := ParseFamily("zipf")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := f.Sample(1)
	if err != nil {
		t.Fatal(err)
	}
	if rs.NumCores() != 4 {
		t.Fatalf("default cores = %d, want 4", rs.NumCores())
	}
}

func TestCorrelatedIsDisjoint(t *testing.T) {
	f, err := ParseFamily("corr(cores=4,length=1024,pages=64,rho=0.9)")
	if err != nil {
		t.Fatal(err)
	}
	rs, err := f.Sample(5)
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Disjoint() {
		t.Fatal("correlated family must keep per-core namespaces disjoint")
	}
}
