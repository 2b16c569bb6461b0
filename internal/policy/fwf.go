package policy

import (
	"slices"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// FWF is Flush-When-Full, the textbook conservative algorithm: when a
// fault finds the cache full, the entire cache is emptied and a new
// phase begins. It is the crudest member of the marking family the
// paper's Lemma 1 covers, and a useful worst-reasonable baseline in the
// policy matrix.
//
// Adaptation to the simulator's contract: a fault needs exactly one
// cell, so the faulting request evicts one page immediately and the
// remaining pages of the old phase are flushed as voluntary evictions at
// the next step boundary (sim.Ticker) — in-flight pages are flushed as
// soon as their fetches complete. Requests that land between the fault
// and the boundary may still hit the doomed pages; the flush semantics
// are otherwise exactly flush-when-full.
//
// Cached pages are a slice, and each page carries the phase it was
// fetched in: a page is doomed when it was fetched in an older phase, so
// a flush is a phase increment.
type FWF struct {
	pages  []core.PageID // cached pages, doomed or not
	phase  []uint64      // by page ID: the phase the page was fetched in
	cur    uint64        // current phase
	doomed int           // cached pages of older phases
}

// NewFWF returns the shared flush-when-full strategy.
func NewFWF() *FWF { return &FWF{} }

// Name implements sim.Strategy.
func (f *FWF) Name() string { return "S(FWF)" }

// Init implements sim.Strategy.
func (f *FWF) Init(core.Instance) error {
	f.pages = f.pages[:0]
	f.doomed = 0
	return nil
}

// OnTick implements sim.Ticker: flush the doomed pages that are
// evictable.
func (f *FWF) OnTick(_ int64, v sim.View) []core.PageID {
	if f.doomed == 0 {
		return nil
	}
	var out []core.PageID
	kept := f.pages[:0]
	for _, p := range f.pages {
		if f.phase[p] < f.cur && v.Resident(p) {
			out = append(out, p)
		} else {
			kept = append(kept, p)
		}
	}
	f.pages = kept
	f.doomed -= len(out)
	slices.Sort(out) // deterministic order for observers
	return out
}

// OnHit implements sim.Strategy.
func (f *FWF) OnHit(core.PageID, cache.Access) {}

// OnJoin implements sim.Strategy.
func (f *FWF) OnJoin(core.PageID, cache.Access) {}

// OnFault implements sim.Strategy.
func (f *FWF) OnFault(p core.PageID, _ cache.Access, v sim.View) core.PageID {
	victim := core.NoPage
	if v.Free() == 0 {
		// Cache full: flush. One page goes now (the fault needs its
		// cell) — the smallest doomed page, else the smallest page of
		// the current phase — and the rest are doomed, leaving at the
		// next boundary.
		at, fallback := -1, -1
		for i, q := range f.pages {
			switch {
			case !v.Resident(q):
				// In flight: not evictable yet.
			case f.phase[q] < f.cur:
				if at < 0 || q < f.pages[at] {
					at = i
				}
			case fallback < 0 || q < f.pages[fallback]:
				fallback = i
			}
		}
		if at < 0 {
			at = fallback
		}
		if at < 0 {
			return core.NoPage // nothing evictable; simulator reports it
		}
		victim = f.pages[at]
		f.pages = slices.Delete(f.pages, at, at+1)
		f.cur++
		f.doomed = len(f.pages)
	}
	// A fetched page belongs to the current phase.
	f.pages = append(f.pages, p)
	if int(p) >= len(f.phase) {
		f.phase = append(f.phase, make([]uint64, int(p)+1-len(f.phase))...)
	}
	f.phase[p] = f.cur
	return victim
}
