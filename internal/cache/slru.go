package cache

import (
	"mcpaging/internal/core"
)

// SLRU is segmented LRU (Karedla, Love & Wherry 1994): a probationary
// segment receiving new pages and a protected segment receiving pages
// hit while probationary. Victims come from the probationary LRU end,
// so one-touch scan pages cannot displace the protected working set —
// another scan-resistant contender for shared multicore caches.
//
// The protected segment is capped at half the domain capacity (rounded
// down, at least 1 when capacity permits); overflowing protected pages
// are demoted to the probationary MRU end rather than evicted.
type SLRU struct {
	c            int
	protectedCap int
	prob, prot   *arcList // front = LRU (reuses the ARC list helper)
}

// NewSLRU returns an empty SLRU; Resize should be called before use
// (otherwise the protected cap adapts to the observed domain size).
func NewSLRU() *SLRU { return &SLRU{prob: newArcList(), prot: newArcList()} }

// Name implements Policy.
func (s *SLRU) Name() string { return "SLRU" }

// Resize implements Policy: the protected segment is re-capped at half
// the new domain capacity. Overflowing protected pages demote lazily on
// the next promotion rather than eagerly.
func (s *SLRU) Resize(c int) {
	s.c = c
	s.protectedCap = c / 2
	if s.protectedCap == 0 && c > 1 {
		s.protectedCap = 1
	}
}

// Insert implements Policy: new pages are probationary.
func (s *SLRU) Insert(p core.PageID, _ Access) {
	if s.prob.has(p) || s.prot.has(p) {
		panic("cache: duplicate insert of page in SLRU domain")
	}
	s.prob.pushMRU(p)
}

// Touch implements Policy: probationary hits promote; protected hits
// refresh recency. Promotion may demote the protected LRU page back to
// probationary.
func (s *SLRU) Touch(p core.PageID, _ Access) {
	switch {
	case s.prot.has(p):
		s.prot.remove(p)
		s.prot.pushMRU(p)
	case s.prob.has(p):
		s.prob.remove(p)
		s.prot.pushMRU(p)
		cap := s.protectedCap
		if cap == 0 {
			cap = (s.prob.len() + s.prot.len()) / 2
			if cap == 0 {
				cap = 1
			}
		}
		for s.prot.len() > cap {
			v, ok := s.prot.lru(nil)
			if !ok {
				break
			}
			s.prot.remove(v)
			s.prob.pushMRU(v)
		}
	}
}

// Evict implements Policy: probationary LRU first, protected LRU as the
// fallback.
func (s *SLRU) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	if v, ok := s.prob.lru(evictable); ok {
		s.prob.remove(v)
		return v, true
	}
	if v, ok := s.prot.lru(evictable); ok {
		s.prot.remove(v)
		return v, true
	}
	return core.NoPage, false
}

// peekVictim returns the page Evict would choose without removing it.
func (s *SLRU) peekVictim(evictable func(core.PageID) bool) (core.PageID, bool) {
	if v, ok := s.prob.lru(evictable); ok {
		return v, true
	}
	return s.prot.lru(evictable)
}

// evictExact removes a specific page chosen earlier via peekVictim.
func (s *SLRU) evictExact(p core.PageID) bool {
	return s.prob.remove(p) || s.prot.remove(p)
}

// Remove implements Policy.
func (s *SLRU) Remove(p core.PageID) bool { return s.prob.remove(p) || s.prot.remove(p) }

// Contains implements Policy.
func (s *SLRU) Contains(p core.PageID) bool { return s.prob.has(p) || s.prot.has(p) }

// Len implements Policy.
func (s *SLRU) Len() int { return s.prob.len() + s.prot.len() }

// Reset implements Policy; capacity survives.
func (s *SLRU) Reset() {
	s.prob.reset()
	s.prot.reset()
}

// LRU2 implements LRU-K for K=2 (O'Neil, O'Neil & Weikum 1993): the
// victim is the page whose second-most-recent access is oldest; pages
// seen only once rank before all twice-seen pages (their backward
// K-distance is infinite), breaking ties by older last access. Pages sit
// on the recency list in last-access order, and second-most-recent
// stamps are unique among twice-seen pages, so the victim is the first
// evictable minimum in list order. Victim search scans the domain (≤ K
// pages).
type LRU2 struct {
	r    recencyList
	meta []lru2Entry // by page ID; meaningful only for pages in r
	seq  int64
}

type lru2Entry struct {
	last, prev int64 // prev = 0 means "no second access yet"
}

// NewLRU2 returns an empty LRU-2 policy.
func NewLRU2() *LRU2 { return &LRU2{r: newRecencyList()} }

// Name implements Policy.
func (l *LRU2) Name() string { return "LRU2" }

// Insert implements Policy.
func (l *LRU2) Insert(p core.PageID, _ Access) {
	l.r.insert(p) // panics on duplicate insert, like every domain
	l.seq++
	l.meta = growFor(l.meta, p)
	l.meta[p] = lru2Entry{last: l.seq}
}

// Touch implements Policy.
func (l *LRU2) Touch(p core.PageID, _ Access) {
	if !l.r.contains(p) {
		return
	}
	l.r.moveToBack(p)
	l.seq++
	e := &l.meta[p]
	e.prev, e.last = e.last, l.seq
}

// before reports whether a page with entry a is evicted before one with
// entry b that comes later in last-access order.
func (a lru2Entry) before(b lru2Entry) bool {
	if (a.prev == 0) != (b.prev == 0) {
		return a.prev == 0 // once-seen pages go first
	}
	return a.prev < b.prev
}

// Evict implements Policy.
func (l *LRU2) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	best := core.NoPage
	for p := l.r.front(); p != core.NoPage; p = l.r.nextOf(p) {
		if (evictable == nil || evictable(p)) && (best == core.NoPage || l.meta[p].before(l.meta[best])) {
			best = p
		}
	}
	if best == core.NoPage {
		return core.NoPage, false
	}
	l.r.remove(best)
	return best, true
}

// Remove implements Policy.
func (l *LRU2) Remove(p core.PageID) bool { return l.r.remove(p) }

// Contains implements Policy.
func (l *LRU2) Contains(p core.PageID) bool { return l.r.contains(p) }

// Len implements Policy.
func (l *LRU2) Len() int { return l.r.len() }

// Reset implements Policy.
func (l *LRU2) Reset() {
	l.r.reset()
	l.seq = 0
}

// Resize implements Policy: LRU-2's victim choice is capacity-independent.
func (l *LRU2) Resize(int) {}
