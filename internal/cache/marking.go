package cache

import (
	"mcpaging/internal/core"
)

// Marking implements a deterministic member of the marking family: pages
// are marked when inserted or hit; victims are chosen among unmarked
// pages in least-recently-used order; when every page is marked a new
// phase begins and all marks are cleared. On a single replacement domain
// this has the K-competitiveness guarantee of marking algorithms, so
// Lemma 1's upper bound applies to it.
//
// Marks are epoch-stamped: page p is marked iff epoch[p] equals the
// current phase counter, so a phase change is a counter increment rather
// than a map sweep, and the recency order reuses the intrusive
// array-backed list of the LRU family.
type Marking struct {
	r     recencyList
	epoch []uint64 // marks by page ID: epoch[p] == cur ⇒ marked
	cur   uint64   // current phase stamp, starts at 1
}

// NewMarking returns an empty marking policy.
func NewMarking() *Marking {
	return &Marking{r: newRecencyList(), cur: 1}
}

// Name implements Policy.
func (m *Marking) Name() string { return "MARK" }

func (m *Marking) marked(p core.PageID) bool {
	return uint(p) < uint(len(m.epoch)) && m.epoch[p] == m.cur
}

func (m *Marking) mark(p core.PageID) {
	if int(p) >= len(m.epoch) {
		epoch := make([]uint64, max(2*len(m.epoch), int(p)+1, 16))
		copy(epoch, m.epoch)
		m.epoch = epoch
	}
	m.epoch[p] = m.cur
}

// Insert implements Policy. Newly inserted pages are marked.
func (m *Marking) Insert(p core.PageID, _ Access) {
	m.r.insert(p) // panics on duplicate insert, like every domain
	m.mark(p)
}

// Touch implements Policy: hits mark the page and refresh recency.
func (m *Marking) Touch(p core.PageID, _ Access) {
	if !m.r.contains(p) {
		return
	}
	m.r.moveToBack(p)
	m.mark(p)
}

// Evict implements Policy. If no unmarked evictable page exists but some
// evictable page does, a new phase starts: all marks are cleared and the
// search repeats.
func (m *Marking) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	if v, ok := m.evictUnmarked(evictable); ok {
		return v, true
	}
	// Check that at least one page is evictable before opening a new
	// phase; otherwise report failure without disturbing marks.
	any := false
	for p := m.r.front(); p != core.NoPage; p = m.r.nextOf(p) {
		if evictable == nil || evictable(p) {
			any = true
			break
		}
	}
	if !any {
		return core.NoPage, false
	}
	m.cur++ // a new phase clears every mark
	return m.evictUnmarked(evictable)
}

func (m *Marking) evictUnmarked(evictable func(core.PageID) bool) (core.PageID, bool) {
	for p := m.r.front(); p != core.NoPage; {
		next := m.r.nextOf(p)
		if !m.marked(p) && (evictable == nil || evictable(p)) {
			m.r.remove(p)
			return p, true
		}
		p = next
	}
	return core.NoPage, false
}

// Remove implements Policy.
func (m *Marking) Remove(p core.PageID) bool { return m.r.remove(p) }

// Contains implements Policy.
func (m *Marking) Contains(p core.PageID) bool { return m.r.contains(p) }

// Len implements Policy.
func (m *Marking) Len() int { return m.r.len() }

// Reset implements Policy.
func (m *Marking) Reset() {
	m.r.reset()
	// Opening a fresh epoch invalidates every mark in place.
	m.cur++
}

// Resize implements Policy: MARK's victim choice is capacity-independent.
func (m *Marking) Resize(int) {}

// Surrender implements Policy: same victim as Evict (the least recent
// unmarked page, opening a new phase if all are marked).
func (m *Marking) Surrender(evictable func(core.PageID) bool) (core.PageID, bool) {
	return m.Evict(evictable)
}
