// Package cache implements eviction policies over a single replacement
// domain — either the whole shared cache or one part of a partitioned
// cache. A Policy tracks replacement metadata (recency, frequency, marks,
// future knowledge) for the pages currently resident in its domain and
// chooses eviction victims; residency itself, fetch-in-flight state and
// capacity enforcement belong to the simulator and the strategies built
// on top (package sim and package policy).
//
// All policies in this package are deterministic given their construction
// arguments (Random takes an explicit seed), which keeps every simulation
// in this library reproducible.
package cache

import (
	"fmt"
	"math"

	"mcpaging/internal/core"
)

// Access carries the context of a request: which core issued it, the
// simulation time at which it is served, and the request's index within
// the core's sequence. Policies may use any subset of these.
type Access struct {
	Core  int
	Time  int64
	Index int
}

// Policy is the replacement-policy interface. A policy tracks a set of
// pages (its domain) and selects eviction victims from it. Page IDs are
// the simulator's dense IDs (see sim.Strategy), so policies index
// arrays by them directly.
//
// The evictable predicate passed to Evict lets the caller exclude pages
// that are physically not evictable at this instant (pages whose fetch is
// still in flight, per the paper's convention that an evicted cell stays
// unused until the fetch finishes). Policies must honour it and must pick
// deterministically among the remaining candidates.
type Policy interface {
	// Name returns a short identifier such as "LRU" or "FIFO".
	Name() string
	// Insert adds a page to the domain. The page must not already be
	// present. It is called at fault time, when the fetched page's cell
	// is allocated.
	Insert(p core.PageID, at Access)
	// Touch records a hit on a page already in the domain.
	Touch(p core.PageID, at Access)
	// Evict selects a victim among the domain pages for which evictable
	// returns true, removes it from the domain, and returns it. It
	// returns ok=false if no page qualifies. A nil predicate means all
	// pages are evictable.
	Evict(evictable func(core.PageID) bool) (victim core.PageID, ok bool)
	// Remove forcibly removes a page from the domain (used when a
	// dynamic partition shrinks a part or a shared page migrates). It
	// reports whether the page was present.
	Remove(p core.PageID) bool
	// Contains reports whether the page is in the domain.
	Contains(p core.PageID) bool
	// Len returns the number of pages in the domain.
	Len() int
	// Reset clears all metadata, returning the policy to its initial
	// state.
	Reset()
	// Resize is the capacity half of the partition contract: it tells
	// the policy the current size of its replacement domain. Strategies
	// call it before the first insert (the shared strategy passes K,
	// partitioned strategies the part size) and again whenever a dynamic
	// partition controller regrants cells, so capacity-dependent
	// bookkeeping (ARC's ghost lists and adaptation target, SLRU's
	// segment split, TinyLFU's admission window) tracks the part it
	// serves. Policies whose victim choice is capacity-independent
	// (LRU, FIFO, ...) treat it as a no-op. Resize never evicts: when a
	// part shrinks, the strategy drains the overage by calling Evict, so
	// a shrink gives up exactly the pages the policy would evict.
	Resize(n int)
}

// Oracle is the simulator's knowledge of the instance, for policies that
// need more than the pages they are shown: future requests for offline
// policies such as FITF, and original page names for TinyLFU. The
// simulator implements it.
type Oracle interface {
	// NextUse returns a monotone priority for page p's next request: a
	// larger value means the next request is further in the future. The
	// simulator returns a lower bound on the absolute time of the next
	// request under the current alignment, or NeverUsed if the page is
	// never requested again.
	NextUse(p core.PageID) int64
	// Original returns the instance's own ID for page p. Policies see
	// the simulator's dense IDs, which keep every comparison between
	// IDs; a policy whose behaviour depends on the ID value itself, like
	// a hash, keys by the original.
	Original(p core.PageID) core.PageID
}

// NeverUsed is returned by Oracle.NextUse for pages with no future
// request.
const NeverUsed int64 = math.MaxInt64

// OracleUser is implemented by policies that need the oracle. Strategies
// call SetOracle before the policy's first insert; FITF used outside a
// simulation without an oracle panics on the first eviction, and
// TinyLFU without one keys by the IDs it is shown.
type OracleUser interface {
	SetOracle(Oracle)
}

// Factory constructs a fresh policy instance. Partitioned strategies call
// the factory once per part so that parts never share metadata.
type Factory func() Policy

// policies is the policy table behind NewFactory and PolicyNames, in
// PolicyNames order.
var policies = []struct {
	name string
	mk   func(seed int64) Policy
}{
	{"LRU", func(int64) Policy { return NewLRU() }},
	{"FIFO", func(int64) Policy { return NewFIFO() }},
	{"CLOCK", func(int64) Policy { return NewClock() }},
	{"LFU", func(int64) Policy { return NewLFU() }},
	{"MRU", func(int64) Policy { return NewMRU() }},
	{"MARK", func(int64) Policy { return NewMarking() }},
	{"RMARK", func(seed int64) Policy { return NewRMark(seed) }},
	{"RAND", func(seed int64) Policy { return NewRandom(seed) }},
	{"FITF", func(int64) Policy { return NewFITF() }},
	{"ARC", func(int64) Policy { return NewARC() }},
	{"SLRU", func(int64) Policy { return NewSLRU() }},
	{"LRU2", func(int64) Policy { return NewLRU2() }},
	{"TINYLFU", func(int64) Policy { return NewTinyLFU() }},
}

// NewFactory returns a factory for the named policy, one of
// PolicyNames: LRU, FIFO, CLOCK, LFU, MRU, MARK (marking with LRU
// preference among unmarked pages), RMARK (randomized marking), RAND
// (both take the seed), FITF (offline; needs an oracle), ARC, SLRU,
// LRU2 and TINYLFU. The name match is exact.
func NewFactory(name string, seed int64) (Factory, error) {
	for _, e := range policies {
		if e.name == name {
			mk := e.mk
			return func() Policy { return mk(seed) }, nil
		}
	}
	return nil, fmt.Errorf("cache: unknown policy %q", name)
}

// PolicyNames lists the policy names accepted by NewFactory, in a stable
// order suitable for CLI help strings and experiment sweeps.
func PolicyNames() []string {
	names := make([]string, len(policies))
	for i, e := range policies {
		names[i] = e.name
	}
	return names
}
