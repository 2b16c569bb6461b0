package cache

import (
	"math/rand"
	"slices"

	"mcpaging/internal/core"
)

// Random evicts a uniformly random evictable page. The generator is
// seeded explicitly so a simulation with a Random policy is reproducible;
// candidates are sorted by page ID before sampling, so the choice depends
// only on the candidate set. The recency list serves as the member set.
type Random struct {
	r    recencyList
	buf  []core.PageID // candidate scratch, reused across evictions
	rng  *rand.Rand
	seed int64
}

// NewRandom returns an empty Random policy driven by the given seed.
func NewRandom(seed int64) *Random {
	return &Random{
		r:    newRecencyList(),
		rng:  rand.New(rand.NewSource(seed)),
		seed: seed,
	}
}

// draw returns a uniformly random page of cands, which it sorts by page
// ID first; ok is false when cands is empty.
func draw(rng *rand.Rand, cands []core.PageID) (core.PageID, bool) {
	if len(cands) == 0 {
		return core.NoPage, false
	}
	slices.Sort(cands)
	return cands[rng.Intn(len(cands))], true
}

// Name implements Policy.
func (r *Random) Name() string { return "RAND" }

// Insert implements Policy.
func (r *Random) Insert(p core.PageID, _ Access) {
	r.r.insert(p) // panics on duplicate insert, like every domain
}

// Touch implements Policy. Random ignores hits.
func (r *Random) Touch(core.PageID, Access) {}

// Evict implements Policy.
func (r *Random) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	cands := r.buf[:0]
	for p := r.r.front(); p != core.NoPage; p = r.r.nextOf(p) {
		if evictable == nil || evictable(p) {
			cands = append(cands, p)
		}
	}
	r.buf = cands
	v, ok := draw(r.rng, cands)
	if ok {
		r.r.remove(v)
	}
	return v, ok
}

// Remove implements Policy.
func (r *Random) Remove(p core.PageID) bool { return r.r.remove(p) }

// Contains implements Policy.
func (r *Random) Contains(p core.PageID) bool { return r.r.contains(p) }

// Len implements Policy.
func (r *Random) Len() int { return r.r.len() }

// Reset implements Policy. The generator is re-seeded so a reset policy
// replays identically.
func (r *Random) Reset() {
	r.r.reset()
	r.rng = rand.New(rand.NewSource(r.seed))
}

// Resize implements Policy: RAND's victim choice is capacity-independent.
func (r *Random) Resize(int) {}
