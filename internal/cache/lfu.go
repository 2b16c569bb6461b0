package cache

import (
	"mcpaging/internal/core"
)

// LFU evicts the least frequently used page, breaking ties by least
// recent access, so victim selection is fully deterministic. Pages sit
// on the recency list in access order, so the victim is the first
// evictable page of minimum frequency in list order. Victim search scans
// the domain, which is at most K pages; for the cache sizes exercised in
// this library that is faster in practice than maintaining a heap under
// the evictable-predicate constraint.
type LFU struct {
	r    recencyList
	freq []int64 // by page ID; meaningful only for pages in r
}

// NewLFU returns an empty LFU policy.
func NewLFU() *LFU { return &LFU{r: newRecencyList()} }

// Name implements Policy.
func (l *LFU) Name() string { return "LFU" }

// Insert implements Policy. A newly inserted page starts with frequency 1
// (the faulting access counts).
func (l *LFU) Insert(p core.PageID, _ Access) {
	l.r.insert(p) // panics on duplicate insert, like every domain
	l.freq = growFor(l.freq, p)
	l.freq[p] = 1
}

// Touch implements Policy.
func (l *LFU) Touch(p core.PageID, _ Access) {
	if !l.r.contains(p) {
		return
	}
	l.r.moveToBack(p)
	l.freq[p]++
}

// Evict implements Policy.
func (l *LFU) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	best := core.NoPage
	for p := l.r.front(); p != core.NoPage; p = l.r.nextOf(p) {
		if (evictable == nil || evictable(p)) && (best == core.NoPage || l.freq[p] < l.freq[best]) {
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
func (l *LFU) Remove(p core.PageID) bool { return l.r.remove(p) }

// Contains implements Policy.
func (l *LFU) Contains(p core.PageID) bool { return l.r.contains(p) }

// Len implements Policy.
func (l *LFU) Len() int { return l.r.len() }

// Reset implements Policy.
func (l *LFU) Reset() { l.r.reset() }

// Resize implements Policy: LFU's victim choice is capacity-independent.
func (l *LFU) Resize(int) {}
