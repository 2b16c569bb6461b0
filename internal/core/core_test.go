package core

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSequencePages(t *testing.T) {
	s := Sequence{3, 1, 3, 2, 1}
	got := s.Pages()
	want := []PageID{1, 2, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Pages() = %v, want %v", got, want)
	}
}

func TestSequenceClone(t *testing.T) {
	s := Sequence{1, 2, 3}
	c := s.Clone()
	c[0] = 9
	if s[0] != 1 {
		t.Fatalf("Clone aliases the original")
	}
}

func TestRequestSetCounts(t *testing.T) {
	r := RequestSet{{1, 2}, {3}, {}}
	if got := r.NumCores(); got != 3 {
		t.Errorf("NumCores = %d, want 3", got)
	}
	if got := r.TotalLen(); got != 3 {
		t.Errorf("TotalLen = %d, want 3", got)
	}
	if got := r.MaxLen(); got != 2 {
		t.Errorf("MaxLen = %d, want 2", got)
	}
}

func TestUniverse(t *testing.T) {
	r := RequestSet{{5, 1}, {1, 7}}
	want := []PageID{1, 5, 7}
	if got := r.Universe(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Universe = %v, want %v", got, want)
	}
}

func TestDisjoint(t *testing.T) {
	cases := []struct {
		name string
		r    RequestSet
		want bool
	}{
		{"disjoint", RequestSet{{1, 2}, {3, 4}}, true},
		{"overlap", RequestSet{{1, 2}, {2, 3}}, false},
		{"single core repeats", RequestSet{{1, 1, 2}}, true},
		{"empty", RequestSet{{}, {}}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.r.Disjoint(); got != c.want {
				t.Fatalf("Disjoint = %v, want %v", got, c.want)
			}
		})
	}
}

func TestOwner(t *testing.T) {
	r := RequestSet{{1, 2}, {3}, {2, 4}}
	o := r.Owner()
	want := map[PageID]int{1: 0, 2: 0, 3: 1, 4: 2}
	if !reflect.DeepEqual(o, want) {
		t.Fatalf("Owner = %v, want %v", o, want)
	}
}

func TestValidate(t *testing.T) {
	if err := (RequestSet{}).Validate(); err == nil {
		t.Error("empty request set should fail validation")
	}
	if err := (RequestSet{{1, -2}}).Validate(); err == nil {
		t.Error("negative page should fail validation")
	}
	if err := (RequestSet{{1, 2}, {}}).Validate(); err != nil {
		t.Errorf("valid set failed: %v", err)
	}
	// The error names the first negative page of the first core that has
	// one, wherever it sits in the sequence.
	for _, c := range []struct {
		rs   RequestSet
		want string
	}{
		{RequestSet{{-1, 2, 3, -4}}, "core: core 0 request 0: invalid page -1"},
		{RequestSet{{1, 2}, {5, 6, -7, 8, -9}}, "core: core 1 request 2: invalid page -7"},
		{RequestSet{{1, 2}, {}, {5, 6, 7, -2147483648}}, "core: core 2 request 3: invalid page -2147483648"},
	} {
		err := c.rs.Validate()
		if err == nil || err.Error() != c.want {
			t.Errorf("Validate(%v) = %v, want %q", c.rs, err, c.want)
		}
	}
}

func TestParamsValidate(t *testing.T) {
	if err := (Params{K: 0, Tau: 0}).Validate(); err == nil {
		t.Error("K=0 should fail")
	}
	if err := (Params{K: 1, Tau: -1}).Validate(); err == nil {
		t.Error("tau<0 should fail")
	}
	if err := (Params{K: 4, Tau: 0}).Validate(); err != nil {
		t.Errorf("valid params failed: %v", err)
	}
}

func TestServiceSlots(t *testing.T) {
	p := Params{K: 4, Tau: 3}
	if got := p.ServiceSlots(false); got != 1 {
		t.Errorf("hit slots = %d, want 1", got)
	}
	if got := p.ServiceSlots(true); got != 4 {
		t.Errorf("fault slots = %d, want tau+1 = 4", got)
	}
}

func TestTallCache(t *testing.T) {
	in := Instance{R: RequestSet{{1}, {2}}, P: Params{K: 4, Tau: 0}}
	if !in.TallCache() {
		t.Error("K=4, p=2 should satisfy K >= p^2")
	}
	in.P.K = 3
	if in.TallCache() {
		t.Error("K=3, p=2 should not satisfy K >= p^2")
	}
}

func TestRenumberDense(t *testing.T) {
	r := RequestSet{{100, 5}, {5, 42}}
	out, m := Renumber(r)
	// Dense IDs 0..w-1.
	u := out.Universe()
	for i, p := range u {
		if int(p) != i {
			t.Fatalf("renumbered universe not dense: %v", u)
		}
	}
	// The mapping reproduces the renaming.
	for j := range r {
		for i := range r[j] {
			if m[r[j][i]] != out[j][i] {
				t.Fatalf("mapping mismatch at core %d pos %d", j, i)
			}
		}
	}
}

func TestRenumberPreservesStructure(t *testing.T) {
	// Property: renumbering preserves lengths, equality structure and
	// disjointness.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := make(RequestSet, 1+rng.Intn(4))
		for j := range r {
			s := make(Sequence, rng.Intn(20))
			for i := range s {
				s[i] = PageID(rng.Intn(10))
			}
			r[j] = s
		}
		out, _ := Renumber(r)
		if out.TotalLen() != r.TotalLen() || out.NumCores() != r.NumCores() {
			return false
		}
		// Equality structure within a core.
		for j := range r {
			for a := range r[j] {
				for b := range r[j] {
					if (r[j][a] == r[j][b]) != (out[j][a] == out[j][b]) {
						return false
					}
				}
			}
		}
		return r.Disjoint() == out.Disjoint()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestConcatRoundRobin(t *testing.T) {
	r := RequestSet{{1, 2, 3}, {4}, {5, 6}}
	got := Concat(r)
	want := Sequence{1, 4, 5, 2, 6, 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Concat = %v, want %v", got, want)
	}
}

func TestCloneIndependence(t *testing.T) {
	r := RequestSet{{1, 2}}
	c := r.Clone()
	c[0][0] = 9
	if r[0][0] != 1 {
		t.Fatal("Clone aliases the original")
	}
}

func TestWorkingSet(t *testing.T) {
	s := Sequence{1, 1, 1, 1}
	avg, max := s.WorkingSet(2)
	if avg != 1 || max != 1 {
		t.Fatalf("constant: avg=%v max=%d", avg, max)
	}
	s = Sequence{1, 2, 3, 4}
	avg, max = s.WorkingSet(2)
	if avg != 2 || max != 2 {
		t.Fatalf("all-distinct: avg=%v max=%d", avg, max)
	}
	s = Sequence{1, 2, 1, 2, 3}
	_, max = s.WorkingSet(3)
	if max != 3 {
		t.Fatalf("max=%d, want 3", max)
	}
	// Degenerate inputs.
	if a, m := (Sequence{}).WorkingSet(4); a != 0 || m != 0 {
		t.Fatal("empty sequence")
	}
	if a, m := s.WorkingSet(0); a != 0 || m != 0 {
		t.Fatal("zero window")
	}
	// Window larger than the sequence clamps.
	avg, max = Sequence{1, 2, 1}.WorkingSet(10)
	if max != 2 || avg != 2 {
		t.Fatalf("clamped window: avg=%v max=%d", avg, max)
	}
}

func TestWorkingSetBoundedByDistinct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := make(Sequence, 1+rng.Intn(100))
		for i := range s {
			s[i] = PageID(rng.Intn(8))
		}
		w := 1 + rng.Intn(20)
		avg, max := s.WorkingSet(w)
		if max > len(s.Pages()) || max > w {
			return false
		}
		return avg <= float64(max) && avg >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
