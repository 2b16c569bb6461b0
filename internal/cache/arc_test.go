package cache

import (
	"testing"

	"mcpaging/internal/core"
)

func TestARCGhostPromotion(t *testing.T) {
	a := NewARC()
	a.Resize(2)
	a.Insert(1, acc(0))
	a.Insert(2, acc(1))
	// Miss on 3: evict (T1 LRU = 1 goes to B1), insert 3.
	v, ok := a.EvictFor(3, nil)
	if !ok || v != 1 {
		t.Fatalf("EvictFor = %d,%v; want 1", v, ok)
	}
	a.Insert(3, acc(2))
	// Miss on 1 again: it is a B1 ghost, so after reinsertion it must
	// land in T2 (frequency list).
	v, ok = a.EvictFor(1, nil)
	if !ok {
		t.Fatal("second EvictFor failed")
	}
	a.Remove(core.NoPage) // no-op; keeps the linter honest about Remove
	a.Insert(1, acc(3))
	// A subsequent eviction for a fresh page should prefer T1 (recency)
	// over the ghost-promoted page in T2 when p̂ grew.
	if !a.Contains(1) {
		t.Fatal("page 1 lost after ghost promotion")
	}
	if a.Len() != 2 {
		t.Fatalf("Len = %d, want 2", a.Len())
	}
}

func TestARCLenBounded(t *testing.T) {
	a := NewARC()
	a.Resize(4)
	for i := 0; i < 50; i++ {
		p := core.PageID(i % 9)
		if a.Contains(p) {
			a.Touch(p, acc(int64(i)))
			continue
		}
		if a.Len() >= 4 {
			if _, ok := a.EvictFor(p, nil); !ok {
				t.Fatal("eviction failed with full domain")
			}
		}
		a.Insert(p, acc(int64(i)))
		if a.Len() > 4 {
			t.Fatalf("domain exceeded capacity: %d", a.Len())
		}
	}
}

func TestARCRespectsEvictable(t *testing.T) {
	a := NewARC()
	a.Resize(2)
	a.Insert(1, acc(0))
	a.Insert(2, acc(1))
	v, ok := a.EvictFor(3, func(p core.PageID) bool { return p == 2 })
	if !ok || v != 2 {
		t.Fatalf("EvictFor with predicate = %d,%v; want 2", v, ok)
	}
	if _, ok := a.EvictFor(4, func(core.PageID) bool { return false }); ok {
		t.Fatal("eviction with all-pinned domain should fail")
	}
}

func TestARCReset(t *testing.T) {
	a := NewARC()
	a.Resize(2)
	a.Insert(1, acc(0))
	a.Reset()
	if a.Len() != 0 || a.Contains(1) {
		t.Fatal("reset did not clear")
	}
	a.Insert(1, acc(1)) // must not panic after reset
}

// TestARCScanResistance drives ARC and LRU through a workload that mixes
// a hot set with a one-shot scan; ARC must keep more of the hot set.
func TestARCScanResistance(t *testing.T) {
	run := func(mk func() Policy) (hits int) {
		p := mk()
		p.Resize(6)
		access := func(pg core.PageID, i int) {
			if p.Contains(pg) {
				p.Touch(pg, acc(int64(i)))
				hits++
				return
			}
			if p.Len() >= 6 {
				if ie, ok := p.(IncomingEvictor); ok {
					ie.EvictFor(pg, nil)
				} else {
					p.Evict(nil)
				}
			}
			p.Insert(pg, acc(int64(i)))
		}
		step := 0
		for round := 0; round < 50; round++ {
			// Hot set of 4 pages, touched twice per round.
			for rep := 0; rep < 2; rep++ {
				for h := core.PageID(0); h < 4; h++ {
					access(h, step)
					step++
				}
			}
			// One-shot scan pages, never reused; the scan is longer
			// than the cache, so LRU flushes the hot set every round.
			for s := 0; s < 8; s++ {
				access(core.PageID(1000+round*8+s), step)
				step++
			}
		}
		return hits
	}
	arcHits := run(func() Policy { return NewARC() })
	lruHits := run(func() Policy { return NewLRU() })
	if arcHits <= lruHits {
		t.Fatalf("ARC hits %d should beat LRU hits %d under scan pollution", arcHits, lruHits)
	}
}

func TestSLRUPromotion(t *testing.T) {
	s := NewSLRU()
	s.Resize(4) // protected cap 2
	s.Insert(1, acc(0))
	s.Insert(2, acc(1))
	s.Touch(1, acc(2)) // 1 → protected
	// Probationary now {2}; eviction must take 2, not the protected 1.
	v, ok := s.Evict(nil)
	if !ok || v != 2 {
		t.Fatalf("evict = %d,%v; want 2", v, ok)
	}
	if !s.Contains(1) {
		t.Fatal("protected page evicted")
	}
}

func TestSLRUProtectedOverflowDemotes(t *testing.T) {
	s := NewSLRU()
	s.Resize(4) // protected cap 2
	for p := core.PageID(1); p <= 3; p++ {
		s.Insert(p, acc(int64(p)))
		s.Touch(p, acc(int64(p)+10)) // promote all three
	}
	// Only 2 fit protected; one was demoted, so an eviction succeeds
	// from probationary and the domain stays complete.
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	v, ok := s.Evict(nil)
	if !ok || v != 1 {
		t.Fatalf("evict = %d,%v; want demoted LRU page 1", v, ok)
	}
}

func TestSLRUFallsBackToProtected(t *testing.T) {
	s := NewSLRU()
	s.Resize(2)
	s.Insert(1, acc(0))
	s.Touch(1, acc(1))
	// Probationary empty: protected page must still be evictable.
	v, ok := s.Evict(nil)
	if !ok || v != 1 {
		t.Fatalf("evict = %d,%v; want 1", v, ok)
	}
}

func TestLRU2Order(t *testing.T) {
	l := NewLRU2()
	l.Insert(1, acc(0))
	l.Insert(2, acc(1))
	l.Touch(1, acc(2))
	l.Touch(2, acc(3))
	l.Touch(2, acc(4))
	// Second-most-recent: 1 → t0-insert, 2 → t3. Victim = 1.
	v, ok := l.Evict(nil)
	if !ok || v != 1 {
		t.Fatalf("evict = %d,%v; want 1", v, ok)
	}
}

func TestLRU2OnceSeenFirst(t *testing.T) {
	l := NewLRU2()
	l.Insert(1, acc(0))
	l.Touch(1, acc(1)) // twice-seen
	l.Insert(2, acc(2))
	l.Insert(3, acc(3))
	// 2 and 3 are once-seen: they rank before 1; among them, older last
	// access (2) first.
	v, _ := l.Evict(nil)
	if v != 2 {
		t.Fatalf("first evict = %d; want 2", v)
	}
	v, _ = l.Evict(nil)
	if v != 3 {
		t.Fatalf("second evict = %d; want 3", v)
	}
	v, _ = l.Evict(nil)
	if v != 1 {
		t.Fatalf("third evict = %d; want 1", v)
	}
}

// TestARCMissingResizeAdoptsOccupancy pins the missing-Resize
// fallback: a never-resized ARC adopts a capacity from its occupancy on
// the first Insert (occupancy + 1) so REPLACE still produces victims
// instead of running with c = 0, where the p-hat arithmetic and ghost
// trimming would degenerate.
func TestARCMissingResizeAdoptsOccupancy(t *testing.T) {
	a := NewARC()
	a.Insert(1, acc(0))
	if a.c != 1 {
		t.Fatalf("adopted capacity = %d, want 1 (first insert into empty ARC)", a.c)
	}
	a.Insert(2, acc(1))
	v, ok := a.EvictFor(3, nil)
	if !ok || v != 1 {
		t.Fatalf("EvictFor without Resize = %d,%v; want 1 (T1 LRU)", v, ok)
	}
	// The adoption is one-shot: later operations keep the adopted size.
	if a.c != 1 {
		t.Fatalf("capacity drifted to %d after adoption", a.c)
	}
}

// TestARCResizeZeroIsRespected pins the elastic-quota contract: an
// explicit Resize(0) — a part shrunk to nothing — must not be
// overwritten by the missing-Resize fallback. Every resident page stays
// evictable and the capacity stays zero.
func TestARCResizeZeroIsRespected(t *testing.T) {
	a := NewARC()
	a.Resize(2)
	a.Insert(1, acc(0))
	a.Insert(2, acc(1))
	a.Resize(0)
	if a.c != 0 {
		t.Fatalf("capacity after Resize(0) = %d, want 0", a.c)
	}
	// EvictFor must not resurrect the capacity from occupancy.
	v, ok := a.EvictFor(3, nil)
	if !ok {
		t.Fatal("EvictFor after Resize(0) failed")
	}
	if a.c != 0 {
		t.Fatalf("Resize(0) overwritten: capacity = %d", a.c)
	}
	// The remaining resident drains through Evict like any shrink.
	w, ok := a.Evict(nil)
	if !ok {
		t.Fatal("Evict after Resize(0) failed")
	}
	if v == w {
		t.Fatalf("Evict repeated victim %d", w)
	}
	if a.Len() != 0 {
		t.Fatalf("Len after draining = %d, want 0", a.Len())
	}
	// Growing again restores normal operation.
	a.Resize(2)
	a.Insert(5, acc(4))
	if !a.Contains(5) || a.c != 2 {
		t.Fatal("regrow after Resize(0) broken")
	}
}

// TestARCResizeZeroSurvivesReset pins Reset's "capacity survives"
// contract for the sized flag too: a reset ARC that was explicitly
// sized never re-enters the missing-Resize fallback.
func TestARCResizeZeroSurvivesReset(t *testing.T) {
	a := NewARC()
	a.Resize(0)
	a.Reset()
	a.Insert(1, acc(0))
	if _, ok := a.EvictFor(2, nil); !ok {
		t.Fatal("EvictFor failed after reset")
	}
	if a.c != 0 {
		t.Fatalf("fallback resurrected capacity %d after Reset", a.c)
	}
}
