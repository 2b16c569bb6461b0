// Package core defines the vocabulary of the multicore paging model of
// López-Ortiz and Salinger (SPAA'11 / UW TR CS-2011-12): pages, per-core
// request sequences, multicore request sets, and the model parameters
// (shared cache size K and fetch delay τ).
//
// A multicore paging instance is a set of p request sequences, one per
// core, served against a single shared cache of K pages. Requests from
// different cores are served in parallel; a fault on core j delays the
// remainder of core j's sequence by an additive τ time units. The paging
// algorithm may not reorder or delay requests: its only freedom is the
// choice of eviction victim on a fault.
package core

import (
	"errors"
	"fmt"
	"sort"
)

// PageID identifies a page in the (virtual) page universe. IDs are dense
// small integers in generated workloads but any non-negative value is a
// valid page. The zero value is a valid page; NoPage is the only reserved
// sentinel.
type PageID int32

// NoPage is a sentinel meaning "no page". It is never a valid request and
// is used by strategies to signal "place the fetched page in a free cell"
// instead of naming an eviction victim.
const NoPage PageID = -1

// Sequence is the request sequence of one core, in program order. The
// paging model serves it strictly in order: element i+1 cannot be served
// before element i has completed.
type Sequence []PageID

// Clone returns a deep copy of the sequence.
func (s Sequence) Clone() Sequence {
	c := make(Sequence, len(s))
	copy(c, s)
	return c
}

// Pages returns the set of distinct pages referenced by the sequence, in
// ascending order.
func (s Sequence) Pages() []PageID {
	seen := make(map[PageID]struct{}, len(s))
	for _, p := range s {
		seen[p] = struct{}{}
	}
	out := make([]PageID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// RequestSet is a multicore paging input: one request sequence per core.
// Core identifiers are the slice indices 0..p-1. The paper's "logical
// order" convention for simultaneous requests is increasing core index.
type RequestSet []Sequence

// NumCores returns p, the number of cores (sequences).
func (r RequestSet) NumCores() int { return len(r) }

// TotalLen returns n, the total number of page requests across all cores.
func (r RequestSet) TotalLen() int {
	n := 0
	for _, s := range r {
		n += len(s)
	}
	return n
}

// MaxLen returns the length of the longest per-core sequence.
func (r RequestSet) MaxLen() int {
	m := 0
	for _, s := range r {
		if len(s) > m {
			m = len(s)
		}
	}
	return m
}

// Universe returns the distinct pages requested anywhere in the set, in
// ascending order. Its length is the paper's w (number of distinct pages).
func (r RequestSet) Universe() []PageID {
	seen := make(map[PageID]struct{})
	for _, s := range r {
		for _, p := range s {
			seen[p] = struct{}{}
		}
	}
	out := make([]PageID, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Disjoint reports whether no page appears in more than one core's
// sequence. Most of the paper's theorems are stated for disjoint request
// sets; several of our strategies and offline solvers require it.
func (r RequestSet) Disjoint() bool {
	owner := make(map[PageID]int)
	for j, s := range r {
		for _, p := range s {
			if o, ok := owner[p]; ok && o != j {
				return false
			}
			owner[p] = j
		}
	}
	return true
}

// Owner returns, for a disjoint request set, a map from page to the core
// whose sequence contains it. For non-disjoint sets the owner is the
// lowest core index that requests the page.
func (r RequestSet) Owner() map[PageID]int {
	owner := make(map[PageID]int)
	for j := len(r) - 1; j >= 0; j-- {
		for _, p := range r[j] {
			owner[p] = j
		}
	}
	return owner
}

// Clone returns a deep copy of the request set.
func (r RequestSet) Clone() RequestSet {
	c := make(RequestSet, len(r))
	for i, s := range r {
		c[i] = s.Clone()
	}
	return c
}

// Validate checks structural sanity: at least one core, no negative page
// IDs. Empty per-core sequences are allowed (an inactive core).
func (r RequestSet) Validate() error {
	if len(r) == 0 {
		return errors.New("core: request set has no cores")
	}
	for j, s := range r {
		// A negative page sets the sign bit of the OR of them all, so
		// only a set that fails searches for its first negative page.
		var or PageID
		for _, p := range s {
			or |= p
		}
		if or >= 0 {
			continue
		}
		for i, p := range s {
			if p < 0 {
				return fmt.Errorf("core: core %d request %d: invalid page %d", j, i, p)
			}
		}
	}
	return nil
}

// CapacitySchedule is the K(t) contract Params.Capacity carries: a
// deterministic, pre-bound capacity schedule (implemented by
// capacity.Schedule; core stays dependency-free by naming only the
// interface). At(0) must equal Params.K.
type CapacitySchedule interface {
	// At returns the capacity in force at time t.
	At(t int64) int
	// NextChange returns the smallest t' > t with At(t') != At(t), or
	// math.MaxInt64 if capacity never changes again.
	NextChange(t int64) int64
	// Constant reports whether the schedule never changes capacity.
	Constant() bool
	// Base returns At(0).
	Base() int
	// Min returns the minimum capacity the schedule ever reaches.
	Min() int
	// String returns the spec the schedule was parsed from.
	String() string
	// Canonical returns a canonical binary encoding of the resolved
	// K(t) — not the spec — suitable for content-addressed hashing:
	// two schedules with the same Canonical bytes behave identically.
	Canonical() []byte
}

// Params are the model parameters shared by every simulation and solver.
type Params struct {
	// K is the shared cache size in pages. The paper assumes K ≥ p²
	// (a multicore tall-cache assumption) for several bounds, but the
	// simulator only requires K ≥ 1.
	K int
	// Tau (τ) is the additive delay a fault imposes on the remainder of
	// the faulting core's sequence. A fault occupies τ+1 time steps end
	// to end; a hit occupies 1.
	Tau int
	// Capacity, when non-nil, makes the cache size time-varying: the
	// simulator serves against K(t) = Capacity.At(t) instead of the
	// fixed K. Capacity.Base() must equal K. Nil is the classic
	// fixed-capacity model.
	Capacity CapacitySchedule
}

// Validate checks that the parameters are usable.
func (p Params) Validate() error {
	if p.K < 1 {
		return fmt.Errorf("core: cache size K=%d, want >= 1", p.K)
	}
	if p.Tau < 0 {
		return fmt.Errorf("core: fetch delay tau=%d, want >= 0", p.Tau)
	}
	if p.Capacity != nil {
		if base := p.Capacity.Base(); base != p.K {
			return fmt.Errorf("core: capacity schedule starts at %d, want K=%d", base, p.K)
		}
		if min := p.Capacity.Min(); min < 1 {
			return fmt.Errorf("core: capacity schedule reaches %d, want >= 1", min)
		}
	}
	return nil
}

// ServiceSlots returns the number of time slots one request occupies:
// 1 for a hit, τ+1 for a fault.
func (p Params) ServiceSlots(fault bool) int64 {
	if fault {
		return int64(p.Tau) + 1
	}
	return 1
}

// Instance couples a request set with model parameters; it is the unit of
// input for simulators and offline solvers.
type Instance struct {
	R RequestSet
	P Params
}

// Validate checks both the request set and the parameters.
func (in Instance) Validate() error {
	if err := in.R.Validate(); err != nil {
		return err
	}
	return in.P.Validate()
}

// TallCache reports whether the instance satisfies the paper's multicore
// tall-cache assumption K ≥ p².
func (in Instance) TallCache() bool {
	p := in.R.NumCores()
	return in.P.K >= p*p
}

// Renumber maps the pages of r onto the dense range 0..w-1 (in order of
// first appearance across cores, then position) and returns the renamed
// set together with the mapping. Renumbering never changes hit/fault
// behaviour of any strategy in this library, since strategies treat pages
// as opaque identifiers.
func Renumber(r RequestSet) (RequestSet, map[PageID]PageID) {
	m := make(map[PageID]PageID)
	out := make(RequestSet, len(r))
	next := PageID(0)
	for j, s := range r {
		ns := make(Sequence, len(s))
		for i, p := range s {
			np, ok := m[p]
			if !ok {
				np = next
				m[p] = np
				next++
			}
			ns[i] = np
		}
		out[j] = ns
	}
	return out, m
}

// Concat builds a single interleaved reference string from a request set
// using round-robin order. It is used by sequential (p=1) baselines and by
// the multiapplication-caching comparisons where all algorithms see the
// same interleaving.
func Concat(r RequestSet) Sequence {
	out := make(Sequence, 0, r.TotalLen())
	idx := make([]int, len(r))
	for {
		progressed := false
		for j, s := range r {
			if idx[j] < len(s) {
				out = append(out, s[idx[j]])
				idx[j]++
				progressed = true
			}
		}
		if !progressed {
			return out
		}
	}
}

// WorkingSet returns Denning's working-set profile of a sequence: the
// average and maximum number of distinct pages in a sliding window of
// the given length. It is the standard coarse characterisation of a
// core's cache demand, used by cmd/mcstat.
func (s Sequence) WorkingSet(window int) (avg float64, max int) {
	if window <= 0 || len(s) == 0 {
		return 0, 0
	}
	if window > len(s) {
		window = len(s)
	}
	counts := make(map[PageID]int)
	distinct := 0
	var sum int64
	samples := 0
	for i, p := range s {
		if counts[p] == 0 {
			distinct++
		}
		counts[p]++
		if i >= window {
			q := s[i-window]
			counts[q]--
			if counts[q] == 0 {
				distinct--
			}
		}
		if i >= window-1 {
			sum += int64(distinct)
			samples++
			if distinct > max {
				max = distinct
			}
		}
	}
	if samples == 0 {
		return 0, 0
	}
	return float64(sum) / float64(samples), max
}
