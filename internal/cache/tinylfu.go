package cache

import (
	"mcpaging/internal/core"
)

// TinyLFU implements a W-TinyLFU-style policy (Einziger, Friedman &
// Manes 2017): a small admission window runs plain LRU; the main region
// runs SLRU; and a count-min sketch of recent access frequencies arbitrates
// admission — a page evicted from the window enters the main region only
// if the sketch says it is more popular than the main region's next
// victim. The sketch halves itself periodically so frequency estimates
// age. The admission filter makes the policy strongly scan-resistant,
// rounding out the modern end of the E13 policy matrix.
//
// Adaptation to this library's interface: the simulator owns residency,
// so "window" and "main" are logical segments of one domain. On Evict,
// the window's LRU page duels the main region's probationary LRU victim
// by sketch frequency; the loser leaves the domain.
//
// The sketch hashes each page's original ID, read through the oracle,
// so results do not depend on how the simulator numbers pages.
type TinyLFU struct {
	c         int
	windowCap int

	window *arcList // front = LRU
	main   *SLRU

	sketch  cmSketch
	touches int64  // accesses since the last sketch reset
	oracle  Oracle // names pages for the sketch; nil keys by the given ID
}

// NewTinyLFU returns an empty TinyLFU; Resize should be called before
// use.
func NewTinyLFU() *TinyLFU {
	t := &TinyLFU{window: newArcList(), main: NewSLRU()}
	t.sketch.init()
	return t
}

// Name implements Policy.
func (t *TinyLFU) Name() string { return "TINYLFU" }

// SetOracle implements OracleUser.
func (t *TinyLFU) SetOracle(o Oracle) { t.oracle = o }

// key is the sketch key of page p: its original ID.
func (t *TinyLFU) key(p core.PageID) uint64 {
	if t.oracle != nil {
		p = t.oracle.Original(p)
	}
	return uint64(p)
}

// Resize implements Policy: ~1/8 of the domain is admission window (at
// least 1 cell), the rest is the SLRU main region. Pages over the new
// window cap migrate into the main region on the next insert.
func (t *TinyLFU) Resize(c int) {
	t.c = c
	t.windowCap = c / 8
	if t.windowCap < 1 {
		t.windowCap = 1
	}
	t.main.Resize(c - t.windowCap)
}

// record updates the frequency sketch and ages it.
func (t *TinyLFU) record(p core.PageID) {
	t.sketch.add(t.key(p))
	t.touches++
	limit := int64(t.c) * 10
	if limit < 64 {
		limit = 64
	}
	if t.touches >= limit {
		t.sketch.halve()
		t.touches = 0
	}
}

// Insert implements Policy: new pages enter the admission window; if the
// window is over its capacity, its LRU page is promoted into the main
// region (the eviction duel happens in Evict, where capacity pressure
// actually exists).
func (t *TinyLFU) Insert(p core.PageID, at Access) {
	if t.window.has(p) || t.main.Contains(p) {
		panic("cache: duplicate insert of page in TINYLFU domain")
	}
	t.record(p)
	t.window.pushMRU(p)
	for t.window.len() > t.windowCap {
		v, ok := t.window.lru(nil)
		if !ok {
			break
		}
		t.window.remove(v)
		t.main.Insert(v, at)
	}
}

// Touch implements Policy.
func (t *TinyLFU) Touch(p core.PageID, at Access) {
	t.record(p)
	switch {
	case t.window.has(p):
		t.window.remove(p)
		t.window.pushMRU(p)
	case t.main.Contains(p):
		t.main.Touch(p, at)
	}
}

// Evict implements Policy: the duel. The window's LRU candidate and the
// main region's victim compare sketch frequencies; the less popular one
// is evicted.
func (t *TinyLFU) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	wv, wok := t.window.lru(evictable)
	// Peek the main region's victim by evicting and reinserting if the
	// duel goes the other way would be messy; instead duel on peeked
	// values.
	mv, mok := t.main.peekVictim(evictable)
	switch {
	case wok && mok:
		if t.sketch.estimate(t.key(wv)) > t.sketch.estimate(t.key(mv)) {
			// Window page is hotter: evict the main victim and promote
			// the window page into the main region.
			t.main.evictExact(mv)
			t.window.remove(wv)
			t.main.Insert(wv, Access{})
			return mv, true
		}
		t.window.remove(wv)
		return wv, true
	case wok:
		t.window.remove(wv)
		return wv, true
	case mok:
		t.main.evictExact(mv)
		return mv, true
	}
	return core.NoPage, false
}

// Remove implements Policy.
func (t *TinyLFU) Remove(p core.PageID) bool {
	return t.window.remove(p) || t.main.Remove(p)
}

// Contains implements Policy.
func (t *TinyLFU) Contains(p core.PageID) bool {
	return t.window.has(p) || t.main.Contains(p)
}

// Len implements Policy.
func (t *TinyLFU) Len() int { return t.window.len() + t.main.Len() }

// Reset implements Policy; capacity survives.
func (t *TinyLFU) Reset() {
	t.window.reset()
	t.main.Reset()
	t.sketch.init()
	t.touches = 0
}

// cmSketch is a 4-row count-min sketch with saturating byte counters
// and halving decay. Hashing is a salted splitmix64 finaliser, fixed and
// deterministic so simulations reproduce exactly.
type cmSketch struct {
	rows [4][]byte
}

const cmWidth = 512 // power of two

func (s *cmSketch) init() {
	for i := range s.rows {
		s.rows[i] = make([]byte, cmWidth)
	}
}

// cmHash mixes the key with a per-row salt (splitmix64 finaliser).
func cmHash(key, salt uint64) uint64 {
	x := key + salt*0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (s *cmSketch) add(key uint64) {
	for i := range s.rows {
		idx := cmHash(key, uint64(i+1)) & (cmWidth - 1)
		if s.rows[i][idx] < 15 {
			s.rows[i][idx]++
		}
	}
}

func (s *cmSketch) estimate(key uint64) byte {
	min := byte(255)
	for i := range s.rows {
		idx := cmHash(key, uint64(i+1)) & (cmWidth - 1)
		if s.rows[i][idx] < min {
			min = s.rows[i][idx]
		}
	}
	return min
}

func (s *cmSketch) halve() {
	for i := range s.rows {
		for j := range s.rows[i] {
			s.rows[i][j] >>= 1
		}
	}
}
