package cache

import (
	"math/rand"
	"testing"
	"testing/quick"

	"mcpaging/internal/core"
)

func acc(t int64) Access { return Access{Core: 0, Time: t, Index: int(t)} }

func TestLRUOrder(t *testing.T) {
	l := NewLRU()
	l.Insert(1, acc(0))
	l.Insert(2, acc(1))
	l.Insert(3, acc(2))
	l.Touch(1, acc(3)) // order now 2,3,1
	v, ok := l.Evict(nil)
	if !ok || v != 2 {
		t.Fatalf("evict = %d,%v; want 2", v, ok)
	}
	v, _ = l.Evict(nil)
	if v != 3 {
		t.Fatalf("second evict = %d; want 3", v)
	}
	v, _ = l.Evict(nil)
	if v != 1 {
		t.Fatalf("third evict = %d; want 1", v)
	}
	if _, ok := l.Evict(nil); ok {
		t.Fatal("evict from empty domain should fail")
	}
}

func TestLRUEvictablePredicate(t *testing.T) {
	l := NewLRU()
	l.Insert(1, acc(0))
	l.Insert(2, acc(1))
	v, ok := l.Evict(func(p core.PageID) bool { return p != 1 })
	if !ok || v != 2 {
		t.Fatalf("evict skipping 1 = %d,%v; want 2", v, ok)
	}
	if !l.Contains(1) || l.Contains(2) {
		t.Fatal("domain contents wrong after predicate evict")
	}
}

func TestLRULeastRecent(t *testing.T) {
	l := NewLRU()
	if _, ok := l.LeastRecent(nil); ok {
		t.Fatal("LeastRecent on empty should fail")
	}
	l.Insert(7, acc(0))
	l.Insert(8, acc(1))
	p, ok := l.LeastRecent(nil)
	if !ok || p != 7 {
		t.Fatalf("LeastRecent = %d,%v; want 7", p, ok)
	}
	if l.Len() != 2 {
		t.Fatal("LeastRecent must not remove")
	}
}

func TestMRUOrder(t *testing.T) {
	m := NewMRU()
	m.Insert(1, acc(0))
	m.Insert(2, acc(1))
	m.Touch(1, acc(2)) // 1 most recent
	v, ok := m.Evict(nil)
	if !ok || v != 1 {
		t.Fatalf("MRU evict = %d,%v; want 1", v, ok)
	}
}

func TestFIFOIgnoresTouch(t *testing.T) {
	f := NewFIFO()
	f.Insert(1, acc(0))
	f.Insert(2, acc(1))
	f.Touch(1, acc(2))
	v, ok := f.Evict(nil)
	if !ok || v != 1 {
		t.Fatalf("FIFO evict = %d,%v; want 1 despite touch", v, ok)
	}
}

func TestClockSecondChance(t *testing.T) {
	c := NewClock()
	c.Insert(1, acc(0))
	c.Insert(2, acc(1))
	c.Insert(3, acc(2))
	// All ref bits set; first sweep clears them, second finds a victim.
	v, ok := c.Evict(nil)
	if !ok {
		t.Fatal("clock evict failed")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
	if c.Contains(v) {
		t.Fatal("victim still in domain")
	}
}

func TestClockTouchProtects(t *testing.T) {
	c := NewClock()
	c.Insert(1, acc(0))
	c.Insert(2, acc(1))
	// Evict once to clear bits and remove one page.
	v1, _ := c.Evict(nil)
	var survivor core.PageID = 1
	if v1 == 1 {
		survivor = 2
	}
	c.Insert(10, acc(2))
	c.Touch(survivor, acc(3))
	// survivor has its bit set, 10 has its bit set; the next eviction
	// must still terminate and evict one of them.
	v2, ok := c.Evict(nil)
	if !ok || (v2 != survivor && v2 != 10) {
		t.Fatalf("unexpected victim %d", v2)
	}
}

func TestClockSingleElement(t *testing.T) {
	c := NewClock()
	c.Insert(1, acc(0))
	v, ok := c.Evict(nil)
	if !ok || v != 1 {
		t.Fatalf("single element evict = %d,%v", v, ok)
	}
	if c.Len() != 0 {
		t.Fatal("domain should be empty")
	}
	c.Insert(2, acc(1))
	if !c.Contains(2) {
		t.Fatal("insert after drain failed")
	}
}

func TestClockRemoveHand(t *testing.T) {
	c := NewClock()
	c.Insert(1, acc(0))
	c.Insert(2, acc(1))
	c.Insert(3, acc(2))
	// Remove pages including whichever the hand points at.
	for _, p := range []core.PageID{1, 2, 3} {
		if !c.Remove(p) {
			t.Fatalf("remove %d failed", p)
		}
	}
	if c.Len() != 0 {
		t.Fatal("domain should be empty after removals")
	}
	if c.Remove(1) {
		t.Fatal("double remove should report false")
	}
}

func TestLFUFrequencyOrder(t *testing.T) {
	l := NewLFU()
	l.Insert(1, acc(0))
	l.Insert(2, acc(1))
	l.Insert(3, acc(2))
	l.Touch(1, acc(3))
	l.Touch(1, acc(4))
	l.Touch(2, acc(5))
	// freq: 1→3, 2→2, 3→1
	v, ok := l.Evict(nil)
	if !ok || v != 3 {
		t.Fatalf("LFU evict = %d,%v; want 3", v, ok)
	}
	v, _ = l.Evict(nil)
	if v != 2 {
		t.Fatalf("LFU second evict = %d; want 2", v)
	}
}

func TestLFUTieBreakLeastRecent(t *testing.T) {
	l := NewLFU()
	l.Insert(1, acc(0))
	l.Insert(2, acc(1))
	// Equal frequency; 1 accessed earlier → evicted first.
	v, ok := l.Evict(nil)
	if !ok || v != 1 {
		t.Fatalf("LFU tie evict = %d,%v; want 1", v, ok)
	}
}

func TestMarkingPhases(t *testing.T) {
	m := NewMarking()
	m.Insert(1, acc(0))
	m.Insert(2, acc(1))
	// Both marked: eviction opens a new phase and evicts the least
	// recent unmarked page, which is 1.
	v, ok := m.Evict(nil)
	if !ok || v != 1 {
		t.Fatalf("marking evict = %d,%v; want 1", v, ok)
	}
	m.Insert(3, acc(2)) // 3 marked in the new phase
	// 2 is unmarked (phase reset), so it goes before 3.
	v, _ = m.Evict(nil)
	if v != 2 {
		t.Fatalf("marking second evict = %d; want 2", v)
	}
}

func TestMarkingRespectsPredicate(t *testing.T) {
	m := NewMarking()
	m.Insert(1, acc(0))
	m.Insert(2, acc(1))
	v, ok := m.Evict(func(p core.PageID) bool { return p == 2 })
	if !ok || v != 2 {
		t.Fatalf("marking predicate evict = %d,%v; want 2", v, ok)
	}
	// Nothing evictable: must fail without corrupting state.
	if _, ok := m.Evict(func(core.PageID) bool { return false }); ok {
		t.Fatal("evict with all-false predicate should fail")
	}
	if !m.Contains(1) {
		t.Fatal("page 1 lost")
	}
}

func TestRandomDeterministicBySeed(t *testing.T) {
	run := func(seed int64) []core.PageID {
		r := NewRandom(seed)
		for p := core.PageID(0); p < 10; p++ {
			r.Insert(p, acc(int64(p)))
		}
		var out []core.PageID
		for i := 0; i < 10; i++ {
			v, ok := r.Evict(nil)
			if !ok {
				t.Fatal("random evict failed")
			}
			out = append(out, v)
		}
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a, b)
		}
	}
}

func TestRandomReset(t *testing.T) {
	r := NewRandom(7)
	r.Insert(1, acc(0))
	r.Insert(2, acc(1))
	v1, _ := r.Evict(nil)
	r.Reset()
	r.Insert(1, acc(0))
	r.Insert(2, acc(1))
	v2, _ := r.Evict(nil)
	if v1 != v2 {
		t.Fatal("reset did not replay the seed")
	}
}

type mapOracle map[core.PageID]int64

func (m mapOracle) NextUse(p core.PageID) int64 {
	if v, ok := m[p]; ok {
		return v
	}
	return NeverUsed
}

func (mapOracle) Original(p core.PageID) core.PageID { return p }

func TestFITFEvictsFurthest(t *testing.T) {
	f := NewFITF()
	f.SetOracle(mapOracle{1: 10, 2: 50, 3: 30})
	f.Insert(1, acc(0))
	f.Insert(2, acc(1))
	f.Insert(3, acc(2))
	v, ok := f.Evict(nil)
	if !ok || v != 2 {
		t.Fatalf("FITF evict = %d,%v; want 2 (next use 50)", v, ok)
	}
}

func TestFITFNeverUsedWins(t *testing.T) {
	f := NewFITF()
	f.SetOracle(mapOracle{1: 10})
	f.Insert(1, acc(0))
	f.Insert(9, acc(1)) // never used again
	v, _ := f.Evict(nil)
	if v != 9 {
		t.Fatalf("FITF evict = %d; want 9 (never used)", v)
	}
}

func TestFITFTieBreakSmallestID(t *testing.T) {
	f := NewFITF()
	f.SetOracle(mapOracle{})
	f.Insert(5, acc(0))
	f.Insert(3, acc(1))
	v, _ := f.Evict(nil)
	if v != 3 {
		t.Fatalf("FITF tie evict = %d; want 3", v)
	}
}

func TestFITFWithoutOraclePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f := NewFITF()
	f.Insert(1, acc(0))
	f.Evict(nil)
}

func TestNewFactory(t *testing.T) {
	for _, name := range PolicyNames() {
		mk, err := NewFactory(name, 1)
		if err != nil {
			t.Fatalf("factory %s: %v", name, err)
		}
		p := mk()
		if p.Name() != name {
			t.Errorf("policy name %q != factory name %q", p.Name(), name)
		}
	}
	if _, err := NewFactory("nope", 0); err == nil {
		t.Fatal("unknown policy should error")
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	for _, name := range PolicyNames() {
		mk, _ := NewFactory(name, 1)
		p := mk()
		p.Insert(1, acc(0))
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: duplicate insert should panic", name)
				}
			}()
			p.Insert(1, acc(1))
		}()
	}
}

// TestPolicyInvariants drives every policy with a random trace of
// insert/touch/evict/remove operations and checks the domain invariants:
// Len matches a reference set, Contains agrees, evictions only return
// evictable members, and Reset empties the domain.
func TestPolicyInvariants(t *testing.T) {
	f := func(seed int64, policyIdx uint8) bool {
		names := PolicyNames()
		name := names[int(policyIdx)%len(names)]
		mk, _ := NewFactory(name, seed)
		p := mk()
		if ou, ok := p.(OracleUser); ok {
			ou.SetOracle(mapOracle{})
		}
		rng := rand.New(rand.NewSource(seed))
		ref := make(map[core.PageID]bool)
		for step := 0; step < 200; step++ {
			pg := core.PageID(rng.Intn(12))
			switch rng.Intn(4) {
			case 0: // insert
				if !ref[pg] {
					p.Insert(pg, acc(int64(step)))
					ref[pg] = true
				}
			case 1: // touch
				if ref[pg] {
					p.Touch(pg, acc(int64(step)))
				}
			case 2: // evict with a random predicate
				allowed := make(map[core.PageID]bool)
				for q := range ref {
					if rng.Intn(2) == 0 {
						allowed[q] = true
					}
				}
				v, ok := p.Evict(func(q core.PageID) bool { return allowed[q] })
				if ok {
					if !ref[v] || !allowed[v] {
						return false
					}
					delete(ref, v)
				} else if len(allowed) > 0 {
					return false // had candidates but refused
				}
			case 3: // remove
				got := p.Remove(pg)
				if got != ref[pg] {
					return false
				}
				delete(ref, pg)
			}
			if p.Len() != len(ref) {
				return false
			}
			for q := core.PageID(0); q < 12; q++ {
				if p.Contains(q) != ref[q] {
					return false
				}
			}
		}
		p.Reset()
		return p.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
