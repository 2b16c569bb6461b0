// Package offline implements the paper's offline algorithms for multicore
// paging:
//
//   - Algorithm 1 (Theorem 6): a dynamic program computing the minimum
//     total number of faults (FINAL-TOTAL-FAULTS), polynomial in the
//     sequence lengths and exponential in p and K.
//   - Algorithm 2 (Theorem 7): a dynamic program deciding
//     PARTIAL-INDIVIDUAL-FAULTS — can the request set be served so that
//     at time T each sequence has faulted at most b_i times?
//   - Exhaustive reference solvers (honest eviction search and the
//     Theorem 5 FITF-per-sequence search) used to cross-validate the DPs
//     on small instances.
//
// # State encoding
//
// Following the paper, each page of sequence i owns τ+1 consecutive index
// slots: a request slot followed by τ fetch slots. Position x_i ∈
// [0, n_i(τ+1)] walks these slots; x_i at a multiple of τ+1 is "at a
// request boundary". A hit advances x_i by τ+1 in one transition (one
// timestep); a fault crawls one slot per timestep, taking τ+1 timesteps
// end to end — exactly the simulator's timing.
//
// One DP transition advances every unfinished sequence simultaneously and
// corresponds to one timestep. The successor configuration C′ must
// satisfy R(x) ⊆ C′ ⊆ C ∪ R(x): it keeps every page currently pointed at
// (requested or in flight — the paper's rule that fetching pages cannot
// be evicted) and may otherwise only evict. With AllowForcing, C′ may
// additionally drop non-pinned pages beyond what capacity requires,
// modelling the "forcing" algorithms of Theorem 4.
//
// All solvers in this package require disjoint request sets, matching the
// scope of the paper's offline theorems.
package offline

import (
	"encoding/binary"
	"fmt"
	"sort"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// Options tunes the DP solvers.
type Options struct {
	// AllowForcing lets the FTF dynamic program evict more pages than
	// capacity requires (voluntary evictions). Theorem 4 proves this
	// never helps for FTF; the flag exists so experiment E12 can verify
	// that empirically.
	AllowForcing bool
	// HonestPIF restricts the PIF dynamic program to honest schedules
	// (no voluntary evictions). By default PIF searches forcing
	// schedules too, which the paper's successor rule permits and which
	// can genuinely change the answer: a forced fault delays a sequence
	// past the checkpoint.
	HonestPIF bool
	// MaxStates aborts the solve when the number of distinct DP states
	// exceeds the limit (0 = default of 4,000,000). The DPs are
	// exponential in K and p; the limit turns an accidental large
	// instance into an error instead of an OOM.
	MaxStates int
}

const defaultMaxStates = 4_000_000

func (o Options) maxStates() int {
	if o.MaxStates > 0 {
		return o.MaxStates
	}
	return defaultMaxStates
}

// prep holds the per-instance precomputation shared by the solvers.
type prep struct {
	inst core.Instance
	p    int
	tau  int
	step int   // τ+1
	ends []int // ends[i] = n_i * (τ+1): the finished position
}

func newPrep(inst core.Instance) (*prep, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if !inst.R.Disjoint() {
		return nil, sim.ErrNotDisjoint
	}
	pr := &prep{
		inst: inst,
		p:    inst.R.NumCores(),
		tau:  inst.P.Tau,
		step: inst.P.Tau + 1,
		ends: make([]int, inst.R.NumCores()),
	}
	for i, s := range inst.R {
		pr.ends[i] = len(s) * pr.step
	}
	return pr, nil
}

// atBoundary reports whether position x is at a request slot.
func (pr *prep) atBoundary(x int) bool { return x%pr.step == 0 }

// pageAt returns the page sequence i points at from position x (the
// requested page at a boundary, or the page being fetched inside a fetch
// slot). x must be < ends[i].
func (pr *prep) pageAt(i, x int) core.PageID {
	return pr.inst.R[i][x/pr.step]
}

// done reports whether all positions are final.
func (pr *prep) done(x []int) bool {
	for i, xi := range x {
		if xi < pr.ends[i] {
			return false
		}
	}
	return true
}

// posSum is the DP's topological rank: transitions strictly increase it.
func posSum(x []int) int {
	s := 0
	for _, xi := range x {
		s += xi
	}
	return s
}

// maxPosSum returns the largest possible rank.
func (pr *prep) maxPosSum() int {
	s := 0
	for _, e := range pr.ends {
		s += e
	}
	return s
}

// stateKey serialises (config, positions) into a map key. The config must
// be sorted.
func stateKey(config []core.PageID, x []int) string {
	buf := make([]byte, 0, 4*len(config)+4*len(x)+1)
	var tmp [4]byte
	for _, p := range config {
		binary.LittleEndian.PutUint32(tmp[:], uint32(p))
		buf = append(buf, tmp[:]...)
	}
	buf = append(buf, 0xFF) // separator
	for _, xi := range x {
		binary.LittleEndian.PutUint32(tmp[:], uint32(xi))
		buf = append(buf, tmp[:]...)
	}
	return string(buf)
}

// contains reports whether sorted config holds page q.
func contains(config []core.PageID, q core.PageID) bool {
	lo, hi := 0, len(config)
	for lo < hi {
		mid := (lo + hi) / 2
		if config[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(config) && config[lo] == q
}

// insertSorted returns config with q inserted in order (no-op if present).
func insertSorted(config []core.PageID, q core.PageID) []core.PageID {
	lo, hi := 0, len(config)
	for lo < hi {
		mid := (lo + hi) / 2
		if config[mid] < q {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(config) && config[lo] == q {
		return config
	}
	out := make([]core.PageID, 0, len(config)+1)
	out = append(out, config[:lo]...)
	out = append(out, q)
	out = append(out, config[lo:]...)
	return out
}

// removeIdx returns config minus the pages at the given indices.
func removeIdx(config []core.PageID, drop []int) []core.PageID {
	if len(drop) == 0 {
		return config
	}
	mark := make(map[int]bool, len(drop))
	for _, d := range drop {
		mark[d] = true
	}
	out := make([]core.PageID, 0, len(config)-len(drop))
	for i, p := range config {
		if !mark[i] {
			out = append(out, p)
		}
	}
	return out
}

// transition describes one DP step from a state: successor positions, the
// cores and pages that fault in this step, and the pinned set R(x).
type transition struct {
	nx         []int
	faults     []int         // cores that fault in this transition
	faultPages []core.PageID // pages fetched in this transition
	pinned     map[core.PageID]bool
}

// advance computes the (unique) position successor and fault set from a
// state: hits jump a full page, everything else crawls one slot.
func (pr *prep) advance(config []core.PageID, x []int) transition {
	tr := transition{
		nx:     make([]int, pr.p),
		pinned: make(map[core.PageID]bool, pr.p),
	}
	for i := 0; i < pr.p; i++ {
		xi := x[i]
		if xi >= pr.ends[i] {
			tr.nx[i] = xi
			continue
		}
		pg := pr.pageAt(i, xi)
		tr.pinned[pg] = true
		if pr.atBoundary(xi) {
			if contains(config, pg) {
				tr.nx[i] = xi + pr.step // hit
			} else {
				tr.nx[i] = xi + 1 // fault begins
				tr.faults = append(tr.faults, i)
				tr.faultPages = append(tr.faultPages, pg)
			}
		} else {
			tr.nx[i] = xi + 1 // fetch in progress
		}
	}
	return tr
}

// successors enumerates the legal successor configurations for a
// transition: C ∪ faultPages minus evictions chosen among non-pinned
// pages. In honest mode exactly the capacity shortfall is evicted; with
// forcing any superset of that may go. Each successor configuration is
// passed to emit (ownership of the slice transfers to emit).
func (pr *prep) successors(config []core.PageID, tr transition, k int, forcing bool, emit func([]core.PageID)) {
	base := config
	for _, pg := range tr.faultPages {
		// Fault pages are absent from config (they missed) and distinct
		// from each other (disjoint sequences).
		base = insertSorted(base, pg)
	}
	emitSuccessors(base, tr, k, forcing, emit)
}

func emitSuccessors(base []core.PageID, tr transition, k int, forcing bool, emit func([]core.PageID)) {
	// Removable pages: in base but not pinned.
	var removable []int
	for idx, p := range base {
		if !tr.pinned[p] {
			removable = append(removable, idx)
		}
	}
	need := len(base) - k
	if need < 0 {
		need = 0
	}
	if need > len(removable) {
		return // cannot satisfy capacity without evicting pinned pages
	}
	// Enumerate eviction subsets of size exactly `need` (honest) or of
	// any size ≥ need (forcing).
	maxDrop := need
	if forcing {
		maxDrop = len(removable)
	}
	drop := make([]int, 0, maxDrop)
	var rec func(start, size int)
	rec = func(start, size int) {
		if size >= need && size <= maxDrop {
			emit(removeIdx(base, drop))
		}
		if size == maxDrop {
			return
		}
		for i := start; i < len(removable); i++ {
			drop = append(drop, removable[i])
			rec(i+1, size+1)
			drop = drop[:len(drop)-1]
		}
	}
	rec(0, 0)
}

// ErrStateLimit is wrapped by solver errors when MaxStates is exceeded.
var ErrStateLimit = fmt.Errorf("offline: state limit exceeded")

// errNoSchedule reports that no feasible schedule exists (every branch
// required evicting a pinned or in-flight page).
var errNoSchedule = fmt.Errorf("offline: no feasible schedule")

// errNotDisjointSentinel mirrors sim.ErrNotDisjoint for the brute
// searchers (newPrep returns the sim sentinel itself).
var errNotDisjointSentinel = fmt.Errorf("offline: request set is not disjoint")

// sortedStateKeys returns a DP bucket's keys in sorted order. The
// solvers iterate buckets through this helper so that exploration
// order — and with it branch pruning, state-limit accounting and
// tie-breaking among equally good states — is deterministic instead of
// at the mercy of map iteration order. Two runs of a solver on the
// same instance therefore visit identical state sequences and return
// identical schedules.
func sortedStateKeys[T any](bucket map[string]T) []string {
	keys := make([]string, 0, len(bucket))
	for k := range bucket {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
