package cache

import (
	"math/rand"

	"mcpaging/internal/core"
)

// RMark is the classic randomized marking algorithm (Fiat et al. 1991):
// pages are marked on insertion and on hits; victims are drawn uniformly
// at random among the unmarked pages; when every page is marked a new
// phase begins. In sequential paging it is Θ(log k)-competitive — the
// randomized counterpart of MARK in the E13/E18 comparisons. Seeded and
// reproducible like RAND, and drawn the same way: from the candidates
// sorted by page ID. The recency list serves as the member set, and
// marks are epoch-stamped as MARK's are.
type RMark struct {
	r      recencyList
	marked marks
	buf    []core.PageID // candidate scratch, reused across evictions
	rng    *rand.Rand
	seed   int64
}

// NewRMark returns an empty randomized-marking policy.
func NewRMark(seed int64) *RMark {
	return &RMark{
		r:      newRecencyList(),
		marked: newMarks(),
		rng:    rand.New(rand.NewSource(seed)),
		seed:   seed,
	}
}

// Name implements Policy.
func (m *RMark) Name() string { return "RMARK" }

// Insert implements Policy.
func (m *RMark) Insert(p core.PageID, _ Access) {
	m.r.insert(p) // panics on duplicate insert, like every domain
	m.marked.set(p)
}

// Touch implements Policy.
func (m *RMark) Touch(p core.PageID, _ Access) {
	if m.r.contains(p) {
		m.marked.set(p)
	}
}

// Evict implements Policy: a uniformly random unmarked evictable page;
// if every evictable page is marked, a new phase begins.
func (m *RMark) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	if v, ok := m.evictUnmarked(evictable); ok {
		return v, true
	}
	// All unmarked pages are pinned, or all pages are marked: open a new
	// phase only if some evictable page exists at all.
	if _, ok := m.r.first(evictable); !ok {
		return core.NoPage, false
	}
	m.marked.clear()
	return m.evictUnmarked(evictable)
}

func (m *RMark) evictUnmarked(evictable func(core.PageID) bool) (core.PageID, bool) {
	cands := m.buf[:0]
	for p := m.r.front(); p != core.NoPage; p = m.r.nextOf(p) {
		if !m.marked.has(p) && (evictable == nil || evictable(p)) {
			cands = append(cands, p)
		}
	}
	m.buf = cands
	v, ok := draw(m.rng, cands)
	if ok {
		m.r.remove(v)
	}
	return v, ok
}

// Remove implements Policy.
func (m *RMark) Remove(p core.PageID) bool { return m.r.remove(p) }

// Contains implements Policy.
func (m *RMark) Contains(p core.PageID) bool { return m.r.contains(p) }

// Len implements Policy.
func (m *RMark) Len() int { return m.r.len() }

// Reset implements Policy; the seed replays.
func (m *RMark) Reset() {
	m.r.reset()
	m.marked.clear()
	m.rng = rand.New(rand.NewSource(m.seed))
}

// Resize implements Policy: RMARK's victim choice is capacity-independent.
func (m *RMark) Resize(int) {}
