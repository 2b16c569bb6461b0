package cache

import (
	"mcpaging/internal/core"
)

// Clock implements the second-chance (CLOCK) approximation of LRU: pages
// sit on a circular list with a reference bit; the hand sweeps, clearing
// set bits, and evicts the first page whose bit is already clear.
//
// The circle is kept as a queue read from the hand: the front of the
// recency list is the page under the hand, advancing the hand moves
// that page to the back, a new page enters at the back, just behind the
// hand, and removing the page under the hand leaves the hand on the
// next page. Reference bits live in a slice indexed by page ID.
type Clock struct {
	r   recencyList
	ref []bool // by page ID; meaningful only for pages in r
}

// NewClock returns an empty CLOCK policy.
func NewClock() *Clock { return &Clock{r: newRecencyList()} }

// Name implements Policy.
func (c *Clock) Name() string { return "CLOCK" }

// Insert implements Policy. New pages enter behind the hand with their
// reference bit set.
func (c *Clock) Insert(p core.PageID, _ Access) {
	c.r.insert(p) // panics on duplicate insert, like every domain
	c.ref = growFor(c.ref, p)
	c.ref[p] = true
}

// Touch implements Policy: it sets the reference bit.
func (c *Clock) Touch(p core.PageID, _ Access) {
	if c.r.contains(p) {
		c.ref[p] = true
	}
}

// Evict implements Policy. The sweep clears reference bits of evictable
// pages it passes; non-evictable pages are skipped without clearing so an
// in-flight page is not penalised for being unremovable. The sweep is
// bounded by two full revolutions, which suffices because every evictable
// page's bit has been cleared after one revolution.
func (c *Clock) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	for sweep := 2 * c.r.len(); sweep > 0; sweep-- {
		p := c.r.front()
		switch {
		case evictable != nil && !evictable(p):
			// Pinned: the hand passes, the bit stays.
		case c.ref[p]:
			c.ref[p] = false
		default:
			c.r.remove(p)
			return p, true
		}
		c.r.moveToBack(p)
	}
	return core.NoPage, false
}

// Remove implements Policy.
func (c *Clock) Remove(p core.PageID) bool { return c.r.remove(p) }

// Contains implements Policy.
func (c *Clock) Contains(p core.PageID) bool { return c.r.contains(p) }

// Len implements Policy.
func (c *Clock) Len() int { return c.r.len() }

// Reset implements Policy.
func (c *Clock) Reset() { c.r.reset() }

// Resize implements Policy: CLOCK's victim choice is capacity-independent.
func (c *Clock) Resize(int) {}
