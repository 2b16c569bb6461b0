package policy

import (
	"mcpaging/internal/cache"
	"mcpaging/internal/core"
)

// PartView is the read-only view of a partitioned strategy's state that
// controllers may consult when choosing a donor part.
type PartView interface {
	// Parts returns the number of parts (one per core).
	Parts() int
	// Occ returns the number of cells part j currently owns.
	Occ(j int) int
	// Owner returns the part holding page p, if any.
	Owner(p core.PageID) (int, bool)
}

// Controller is the partition half of a composed strategy: it owns the
// per-core quota vector and decides which part donates a cell when the
// faulting core cannot grow. The eviction half is one cache.Policy
// instance per part; Partitioned wires the two together, so every
// partition discipline in this package composes with every eviction
// policy.
//
// Controllers observe the request stream through the Hit, Join,
// Inserted and Evicted hooks, which Partitioned calls after its own
// bookkeeping. They never touch pages or parts directly: cell movement
// is expressed entirely through Quota (capacity targets drained by the
// strategy at step boundaries) and Donor (which part loses a cell on a
// fault).
type Controller interface {
	// Name returns the partition-family label, e.g. "sP[2 2]" or
	// "dP[fair/64]". The composed strategy is named Name() + "(" +
	// policy + ")".
	Name() string
	// Init validates the controller against the instance and seeds the
	// quota vector. It is called once per run, before any hook.
	Init(inst core.Instance) error
	// Quota returns the live per-core cell targets, or nil for
	// occupancy-driven controllers without quotas (the global-LRU donor
	// rule of Lemma 3). Partitioned aliases the returned slice;
	// controllers repartition by mutating it in place during Tick.
	Quota() []int
	// Hit observes a hit by core at.Core on page p.
	Hit(p core.PageID, at cache.Access)
	// Join observes core at.Core joining the in-flight fetch of page p.
	Join(p core.PageID, at cache.Access)
	// Inserted observes page p entering part j on a fault.
	Inserted(j int, p core.PageID, at cache.Access)
	// Evicted observes page p leaving its part (fault-path eviction or
	// step-boundary shedding).
	Evicted(p core.PageID)
	// Donor picks the part that loses a cell when faulting core j cannot
	// grow. Returning j keeps the fault inside the core's own part
	// (static discipline); returning another part moves a cell to core
	// j. ok=false means no part can donate and the fault fails.
	Donor(j int, pv PartView, resident func(core.PageID) bool) (int, bool)
	// StealOnEmpty reports whether, when the donor part has no evictable
	// page, the strategy should fall back to stealing a cell from the
	// most over-quota part (the quota-partition rule of FairShare and
	// UCP, which can find their own part empty right after a quota cut).
	// A core below its quota steals regardless: after a capacity shrink
	// it is owed a cell that another part still holds.
	StealOnEmpty() bool
	// Tick advances the controller to time t and reports whether the
	// quota vector changed (the strategy then re-announces part sizes to
	// the policies via Resize). Only called when Ticks() is true.
	Tick(t int64) bool
	// Ticks reports whether the controller repartitions over time at
	// all. When false the strategy skips step-boundary work entirely and
	// its event stream is identical to a tickless strategy's.
	Ticks() bool
	// Capacity announces that the shared cache now holds k cells (an
	// elastic-capacity change of Params.Capacity taking effect at time
	// t) and reports whether the quota vector changed in response.
	// Controllers must re-derive quotas deterministically from k alone
	// plus their own state; occupancy-driven controllers return false.
	// The strategy sheds any resulting overage via surrenders — like
	// Resize, Capacity itself never evicts.
	Capacity(k int, t int64) bool
}

// reapportion writes into dst a split of total cells proportional to
// weights, using the largest-remainder method: each entry gets its
// floor share, and leftover cells go to the largest fractional
// remainders (ties to the lower index). Entries with positive weight
// are then guaranteed at least one cell while total allows, taking
// cells from the largest entries. The split is deterministic in
// (dst-independent) inputs, which elastic-capacity replay requires, and
// allocates nothing.
func reapportion(dst, weights []int, total int) {
	sum := 0
	for _, w := range weights {
		if w > 0 {
			sum += w
		}
	}
	if sum == 0 || total <= 0 {
		for j := range dst {
			dst[j] = 0
		}
		return
	}
	granted := 0
	for j, w := range weights {
		if w <= 0 {
			dst[j] = 0
			continue
		}
		dst[j] = w * total / sum
		granted += dst[j]
	}
	// Leftover cells go one each to the largest remainders w·total mod
	// sum, ties to the lower index: every pass grants the entry that
	// follows the previous pass's in that order, so no entry is granted
	// twice and nothing needs marking.
	lastRem, last := sum, -1 // remainders are below sum
	for ; granted < total; granted++ {
		best, bestRem := -1, -1
		for j, w := range weights {
			if w <= 0 {
				continue
			}
			r := w * total % sum
			if r > lastRem || (r == lastRem && j <= last) {
				continue // granted by an earlier pass
			}
			if r > bestRem {
				best, bestRem = j, r
			}
		}
		if best == -1 {
			break
		}
		dst[best]++
		lastRem, last = bestRem, best
	}
	// Every positive weight keeps at least one cell while total allows.
	for j, w := range weights {
		if w <= 0 || dst[j] > 0 {
			continue
		}
		big := -1
		for c := range dst {
			if dst[c] > 1 && (big == -1 || dst[c] > dst[big]) {
				big = c
			}
		}
		if big == -1 {
			break
		}
		dst[big]--
		dst[j]++
	}
}

// reuse returns s resliced to n zeroed elements, reallocating only when
// its capacity is short, so a controller reused across runs keeps its
// per-core arrays.
func reuse[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
