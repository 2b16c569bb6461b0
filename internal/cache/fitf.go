package cache

import (
	"mcpaging/internal/core"
)

// FITF (Furthest-In-The-Future) is the offline eviction rule: evict the
// page whose next request is furthest in the future according to the
// attached Oracle, breaking ties by smallest page ID.
//
// In sequential paging FITF (Belady's algorithm) is optimal. One of the
// paper's observations (remark after Lemma 4) is that in the multicore
// model shared FITF is *not* optimal once τ > K/p, because eviction
// choices change the future alignment of the sequences; experiment E8
// demonstrates this with the Lemma 4 construction.
//
// Per-part FITF on a disjoint request set *is* optimal for that part,
// because a core's own requests are never reordered relative to each
// other; this is the sP_OPT per-part eviction rule used by Lemma 1's
// baseline.
//
// The domain is a flat slice with an array-backed position index, so the
// per-eviction scan touches contiguous memory and no map buckets. The
// victim choice (max NextUse, then min page ID) is order-independent, so
// the scan order does not affect behaviour.
type FITF struct {
	pages  []core.PageID
	pos    []int32 // index+1 into pages, by page ID; 0 = absent
	oracle Oracle
}

// NewFITF returns an empty FITF policy. An Oracle must be attached via
// SetOracle before the first eviction.
func NewFITF() *FITF { return &FITF{} }

// Name implements Policy.
func (f *FITF) Name() string { return "FITF" }

// SetOracle implements OracleUser.
func (f *FITF) SetOracle(o Oracle) { f.oracle = o }

// position returns the index+1 of p in pages, or 0 if absent.
func (f *FITF) position(p core.PageID) int32 {
	if uint(p) < uint(len(f.pos)) {
		return f.pos[p]
	}
	return 0
}

func (f *FITF) setPosition(p core.PageID, idx int32) {
	f.pos = growFor(f.pos, p)
	f.pos[p] = idx
}

// Insert implements Policy.
func (f *FITF) Insert(p core.PageID, _ Access) {
	if f.position(p) != 0 {
		panic("cache: duplicate insert of page in FITF domain")
	}
	f.pages = append(f.pages, p)
	f.setPosition(p, int32(len(f.pages)))
}

// Touch implements Policy. FITF keeps no recency state.
func (f *FITF) Touch(core.PageID, Access) {}

// removeAt swap-removes the page at slice index i.
func (f *FITF) removeAt(i int) {
	p := f.pages[i]
	last := len(f.pages) - 1
	if i != last {
		moved := f.pages[last]
		f.pages[i] = moved
		f.setPosition(moved, int32(i+1))
	}
	f.pages = f.pages[:last]
	f.setPosition(p, 0)
}

// Evict implements Policy.
func (f *FITF) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	if f.oracle == nil {
		panic("cache: FITF policy used without an oracle")
	}
	best := -1
	var bestPage core.PageID = core.NoPage
	var bestNext int64 = -1
	for i, p := range f.pages {
		if evictable != nil && !evictable(p) {
			continue
		}
		next := f.oracle.NextUse(p)
		if next > bestNext || (next == bestNext && (bestPage == core.NoPage || p < bestPage)) {
			best, bestPage, bestNext = i, p, next
		}
	}
	if best < 0 {
		return core.NoPage, false
	}
	f.removeAt(best)
	return bestPage, true
}

// Remove implements Policy.
func (f *FITF) Remove(p core.PageID) bool {
	idx := f.position(p)
	if idx == 0 {
		return false
	}
	f.removeAt(int(idx - 1))
	return true
}

// Contains implements Policy.
func (f *FITF) Contains(p core.PageID) bool { return f.position(p) != 0 }

// Len implements Policy.
func (f *FITF) Len() int { return len(f.pages) }

// Reset implements Policy. The oracle attachment is preserved.
func (f *FITF) Reset() {
	for _, p := range f.pages {
		f.setPosition(p, 0)
	}
	f.pages = f.pages[:0]
}

// Resize implements Policy: FITF's victim choice is capacity-independent.
func (f *FITF) Resize(int) {}
