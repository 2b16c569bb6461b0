// Package sim implements the multicore shared-cache paging model of
// Section 3 of López-Ortiz & Salinger as a deterministic discrete-time
// simulator.
//
// Timing model (normative):
//
//   - Time is discrete, starting at 0.
//   - Each core j has a clock next[j]: the earliest time its next request
//     may be served. Requests of a core are served strictly in order.
//   - Requests whose core clocks coincide are served "logically in a
//     fixed order": increasing core index. Each request observes the
//     cache effects of lower-numbered cores in the same step.
//   - A hit is served instantly: next[j] becomes t+1.
//   - A fault evicts its victim at time t; the cell then holds the
//     incoming page in a fetching state during [t, t+τ] and the page is
//     usable from t+τ+1. The faulting core's clock becomes t+τ+1 — the
//     paper's additive-τ delay on the remainder of the sequence.
//   - Pages being fetched cannot be evicted (the paper's convention that
//     the evicted cell stays unused until the fetch completes).
//   - If a core requests a page that is currently being fetched for
//     another core (possible only for non-disjoint request sets), the
//     request counts as a fault, the core is delayed the full τ, and the
//     in-flight cell is shared — no second cell is allocated. This case
//     is outside the paper's disjoint-sequence theorems and the choice is
//     documented in DESIGN.md.
//
// The only degree of freedom a paging strategy has is victim choice on a
// fault, plus (for strategies modelling the paper's "forcing" and
// repartitioning behaviours) voluntary evictions at step boundaries.
//
// # Implementation: the dense-ID fast path
//
// The engine keeps all ground truth in flat arrays indexed by page ID:
// residency is a single []int64 of fetch-completion times and the FITF
// oracle reads a flat occurrence table built in one pass over the input.
// Inputs whose page IDs are already dense (max ID below 1024 or below
// twice the distinct-page count — renumbered traces, the adversarial
// and offline constructions) are used as-is. Sparser inputs, such as
// generated workloads with per-core namespaces, are renamed once on
// bind: each page becomes its rank among the instance's distinct IDs.
// The rename numbers pages by first appearance through an
// open-addressing table, not a map, then sorts the distinct IDs.
//
// # The serve loop: due masks
//
// A step serves, in core order, the cores whose clock is the step's
// time t. Under the timing model only a few of the p cores are due at
// a step: a fault or a join stalls its core for τ+1 steps, and a
// finished core is never due again. For request sets of at most 64
// cores (maskCores), the loop keeps the due cores as uint64 masks, so a
// step costs the cores it serves, not p:
//
//   - due holds the cores whose clock is t, served lowest bit first;
//   - the cores that hit at t are due at t+1;
//   - the cores that faulted or joined at t are due at t+τ+1. Each such
//     step appends one (time, mask) segment to a runner-owned FIFO
//     ring. Segment times rise with t, so the ring is in time order,
//     and it holds at most min(p, τ+1) segments: their masks are
//     disjoint and their times lie in (t, t+τ+1].
//
// The next step is at t+1 when any core hit, joined by the oldest
// segment if it is due then too, and otherwise at the oldest segment's
// time. With τ = 0 a fault's core is due at t+1 and joins the hit mask.
//
// Wider request sets keep the scan: one pass over all p cores per
// step serves the cores whose clock is t and folds every unfinished
// core's clock, read after it is served, into the next step's time.
// No benchmark workload and no committed spec has more than 64 cores,
// so the scan is the only path such sets run on; a multiword mask
// scheduler would be more code for no measured gain. Both loops call
// one serve step, engine.serve, which serves a mask of due cores: the
// mask loop passes a step's whole due mask, the scan one core at a
// time. So the hit, join and fault rules live in one place, and a step
// of the mask loop costs one call, not one per core. Both loops find
// the steps of RunReference's min-scan: capacity changes and OnTick
// never move a clock or a position, and a served core's clock only
// rises.
//
// Strategies see the engine's dense IDs everywhere: the instance Init
// receives, the pages of OnHit, OnJoin and OnFault, the victims they
// return, and every View call. Rank order keeps every comparison
// between page IDs, so tie-breaks on IDs behave exactly as on the
// original instance; a policy whose behaviour depends on the ID value
// itself reads it through View.Original. Events, observers and error
// messages carry the instance's original IDs. RunReference retains the
// original map-based engine as an executable specification for
// differential tests.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
)

// Strategy is a cache-management strategy in the paper's sense: a
// combination of a (possibly trivial) partition policy and an eviction
// policy. The simulator owns ground truth (residency, fetch state, free
// cells); the strategy owns replacement metadata and decides victims.
//
// Every page ID a strategy sees or returns is the engine's dense ID:
// the rank of the page among the instance's distinct IDs, or the
// original ID when the input is already dense (see the package
// comment). A strategy that derives its page knowledge from the
// instance passed to Init is correct either way. One that carries page
// IDs from outside the run — offline.Replayer's schedule,
// npc.Constructive's partition — relies on its instances taking the
// direct path, which every instance small enough for those solvers
// does.
type Strategy interface {
	// Name identifies the strategy in tables, e.g. "S(LRU)" or
	// "sP[4 4](LRU)".
	Name() string
	// Init prepares the strategy for a fresh run of the given instance.
	// Strategies that need future knowledge receive the full instance.
	// The instance may be the runner's own renamed copy, which a later
	// bind rewrites in place: it is valid only until the run returns.
	Init(inst core.Instance) error
	// OnHit reports that page p hit at the given access.
	OnHit(p core.PageID, at cache.Access)
	// OnFault reports a miss that needs a cell and returns the eviction
	// victim, or core.NoPage to place the fetched page in a free cell.
	// The returned victim must be resident and evictable (not in
	// flight); violations abort the run with an error.
	OnFault(p core.PageID, at cache.Access, v View) core.PageID
	// OnJoin reports a miss on a page already in flight (shared cell,
	// no victim needed).
	OnJoin(p core.PageID, at cache.Access)
}

// Ticker is an optional Strategy extension for voluntary evictions: pages
// evicted without a fault, before any request of the current step is
// served. This models the paper's "forcing" algorithms (Theorem 4) and
// dynamic partitions that shrink a part on a schedule (Theorem 1(3)).
// The strategy must have already dropped the returned pages from its own
// metadata; the simulator removes them from the cache ground truth.
type Ticker interface {
	OnTick(t int64, v View) []core.PageID
}

// Repartitioner is an optional Strategy marker: implementing it declares
// that the strategy's voluntary evictions are donor evictions — cells
// moving between parts of a dynamic partition — rather than plain
// flushes (FWF). The engines set Event.Donor on Tick events of such
// strategies, so observers can count partition changes uniformly across
// controllers.
type Repartitioner interface {
	Repartitions()
}

// CapacityAware is the optional Strategy extension elastic-capacity
// runs require: when Params.Capacity is a non-constant schedule, the
// engine announces every capacity change and, on shrinks, asks the
// strategy to surrender cells one at a time. Strategies that do not
// implement it are rejected for such runs (the engine cannot shed
// cells it has no victim for); with a nil or constant schedule every
// strategy runs unchanged.
type CapacityAware interface {
	// OnCapacity announces that the cache capacity is k from time t
	// on. The strategy must resize its internal structures without
	// evicting (the PR-5 partition contract: Resize never evicts);
	// eviction happens through the SurrenderOne calls that follow a
	// shrink. Grow announcements (k above the previous capacity) simply
	// open free cells.
	OnCapacity(k int, t int64)
	// SurrenderOne yields one evictable resident page toward a shrink,
	// or ok=false when every candidate is still in flight — the engine
	// then retries at the next service step, mirroring the OnTick shed
	// contract. The strategy must have already dropped the returned
	// page from its own metadata.
	SurrenderOne(v View) (core.PageID, bool)
}

// View is the read-only window a strategy gets on simulator ground truth.
// Page IDs cross this interface in the engine's dense ID space, like
// every other strategy call; pages outside the instance are never
// resident and never used.
type View interface {
	// Resident reports whether p is in cache with its fetch complete.
	Resident(p core.PageID) bool
	// InFlight reports whether p occupies a cell but is still fetching.
	InFlight(p core.PageID) bool
	// Cached reports Resident or InFlight.
	Cached(p core.PageID) bool
	// Free returns the number of unoccupied cells.
	Free() int
	// K returns the cache size.
	K() int
	// Tau returns the fetch delay τ.
	Tau() int
	// Now returns the current simulation time.
	Now() int64
	// NextUse returns a lower bound on the absolute time at which page p
	// is next requested under the current alignment, or cache.NeverUsed
	// if p has no future request. This is the oracle used by FITF.
	NextUse(p core.PageID) int64
	// Original returns the instance's own ID for dense page p (p itself
	// when the input took the direct path). Strategies compare and
	// index by dense IDs; only behaviour that depends on the ID value,
	// such as TinyLFU's sketch hash, needs the original.
	Original(p core.PageID) core.PageID
}

// Event describes one served request — or, when Tick is set, one
// voluntary eviction — for observers and tests. Page and Victim are
// always in the instance's original ID space: the engine translates
// its dense IDs back, and only when an observer is attached.
//
// Tick events are emitted for pages evicted via Ticker.OnTick, before
// any request of the same step is served. They carry Core = -1 and
// Index = -1 (no request is being served), Page = Victim = the evicted
// page, and Fault/Join false. Observers that only care about served
// requests can filter on !Tick (or, equivalently for historical
// observers, on Fault/Join, which ticks never set).
//
// Elastic-capacity runs add two event shapes, both with Core = -1 and
// Index = -1. A capacity announcement (Capacity set, Tick clear)
// carries the new capacity in K and no pages. A capacity-pressure
// eviction (Capacity and Tick both set) is a cell shed via
// CapacityAware.SurrenderOne after a shrink: Page = Victim = the
// evicted page, exactly like a Ticker eviction, so occupancy
// bookkeeping composes; observers can separate the two shed causes on
// the Capacity flag. Fixed-capacity runs never set Capacity.
type Event struct {
	Time     int64
	Core     int
	Index    int
	Page     core.PageID
	Fault    bool
	Join     bool        // fault that joined an in-flight fetch
	Tick     bool        // voluntary eviction, not a served request
	Donor    bool        // Tick eviction donating a cell between parts
	Capacity bool        // capacity announcement or capacity-pressure eviction
	K        int         // new capacity (announcements only)
	Victim   core.PageID // NoPage if none (hit, join, or free cell)
}

// Observer receives every service event in order. Passing a nil observer
// to Run disables event delivery.
type Observer func(Event)

// MultiObserver fans one event stream out to several observers, calling
// them in argument order for every event. Nil observers are skipped; if
// none remain the result is nil, so the simulator's nil-observer fast
// path is preserved. A single live observer is returned as-is.
func MultiObserver(obs ...Observer) Observer {
	var live []Observer
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return func(e Event) {
		for _, o := range live {
			o(e) //mcvet:ignore obsguard live is filtered to non-nil observers at construction
		}
	}
}

// Result summarises one simulation run.
type Result struct {
	// Faults[j] counts core j's misses (including in-flight joins).
	Faults []int64
	// Hits[j] counts core j's cache hits.
	Hits []int64
	// Finish[j] is the completion time of core j's last request (0 for
	// an empty sequence): the time at which the core could issue a
	// further request.
	Finish []int64
	// Makespan is the maximum finish time across cores.
	Makespan int64
	// VoluntaryEvictions counts pages evicted via OnTick.
	VoluntaryEvictions int64
	// CapacityEvictions counts pages shed via SurrenderOne after
	// capacity shrinks; always zero for fixed-capacity runs.
	CapacityEvictions int64
}

// TotalFaults returns the sum of per-core fault counts — the paper's FTF
// objective.
func (r Result) TotalFaults() int64 {
	var s int64
	for _, f := range r.Faults {
		s += f
	}
	return s
}

// TotalHits returns the sum of per-core hit counts.
func (r Result) TotalHits() int64 {
	var s int64
	for _, h := range r.Hits {
		s += h
	}
	return s
}

// maskCores is the widest request set the serve loop schedules
// through due masks, one bit per core; wider sets take the scan.
const maskCores = 64

// dueSegment is one entry of the due-mask loop's FIFO: the cores that
// faulted or joined at one step, all due again at time t.
type dueSegment struct {
	t    int64
	mask uint64
}

// notCached is the readyAt sentinel for an absent page. Real
// fetch-completion times are t+τ+1 ≥ 1, so zero is never ambiguous and
// the array can be cleared with a memclr.
const notCached int64 = 0

// engine is the dense-ID simulator state for one run. Ground truth is
// indexed by dense page IDs 0..w-1; inv translates them back to the
// instance's original IDs when the input was renamed (nil on the direct
// path, where dense IDs are the original IDs).
type engine struct {
	k    int
	tau  int64
	now  int64
	used int
	w    int // dense universe size

	// Elastic capacity: sched is the run's non-constant schedule (nil
	// for the classic fixed-K model, including constant schedules, so
	// the serve loop pays one nil check per step); nextChange caches
	// sched.NextChange of the last applied boundary. k above is then
	// K(t), updated by applyCapacity.
	sched      core.CapacitySchedule
	nextChange int64

	seqs []core.Sequence // dense sequences (alias the input when direct)
	next []int64         // per-core clock
	idx  []int           // per-core next request index

	// ring is the due-mask loop's FIFO of fault segments (see the
	// package comment), indexed modulo maskCores from a head the run
	// keeps.
	ring [maskCores]dueSegment

	readyAt []int64 // per dense page: fetch completion time, notCached if absent

	inv []core.PageID // dense → original (nil when direct)

	// Flat occurrence table for the oracle. The pairs of page pg occupy
	// slotStart[pg]..slotStart[pg+1]-1, one per core that requests pg, in
	// core order; pair s owns the contiguous range pos[pairStart[s]:
	// pairEnd[s]] of ascending within-sequence indices. pairPtr is the
	// per-pair cursor advanced lazily past served occurrences.
	//
	// The table is built lazily on the first NextUse of a bind (occBuilt),
	// so strategies that never consult the oracle skip the build entirely.
	// Laziness is safe mid-run: pairPtr only ever catches up to idx, so a
	// cursor starting from pairStart gives the same answers as one that
	// tracked the run from the beginning.
	occBuilt  bool
	occN      int // total request count, for the lazy build
	slotStart []int32
	pairCore  []int32
	pairStart []int32
	pairEnd   []int32
	pairPtr   []int32
	pos       []int32

	// scratch for table builds, reused across binds
	cnt      []int32
	pairCnt  []int32
	lastCore []int32
	slotCur  []int32
	posCur   []int32
	bits     []uint64 // distinct-page bitset of the direct-path check

	// The renamed tables: names maps rank → original ID and denseSeqs
	// holds the renamed sequences. Both are runner-owned and outlive
	// Release and direct binds, so a rebind to the set they hold reuses
	// them. first (the open-addressing first-appearance table, see
	// rename), keys and rank are scratch for building them. Release
	// drops keys and rank, and drops first only when it is larger than
	// the renamed sequences.
	names     []core.PageID
	denseSeqs []core.Sequence
	first     []uint64
	keys      []uint64
	rank      []core.PageID
}

var _ View = (*engine)(nil)
var _ cache.Oracle = (*engine)(nil)

// known reports whether p is a dense page of the bound instance.
//
//mcpaging:hotpath
func (e *engine) known(p core.PageID) bool { return uint(p) < uint(len(e.readyAt)) }

//mcpaging:hotpath
func (e *engine) Resident(p core.PageID) bool {
	if !e.known(p) {
		return false
	}
	r := e.readyAt[p]
	return r != notCached && r <= e.now
}

//mcpaging:hotpath
func (e *engine) InFlight(p core.PageID) bool {
	// notCached is 0 and now ≥ 0, so absent pages never satisfy this.
	return e.known(p) && e.readyAt[p] > e.now
}

//mcpaging:hotpath
func (e *engine) Cached(p core.PageID) bool {
	return e.known(p) && e.readyAt[p] != notCached
}

// Free reports unoccupied cells, clamped at zero: after a capacity
// shrink whose shed is blocked on in-flight pages, used may briefly
// exceed K(t), and strategies must still see "no free cell".
func (e *engine) Free() int {
	if e.used >= e.k {
		return 0
	}
	return e.k - e.used
}
func (e *engine) K() int     { return e.k }
func (e *engine) Tau() int   { return int(e.tau) }
func (e *engine) Now() int64 { return e.now }

// Original maps a dense ID back to the instance's ID. IDs outside the
// dense universe (NoPage, or a bad victim named in an error) are
// returned unchanged.
func (e *engine) Original(p core.PageID) core.PageID {
	if e.inv != nil && uint(p) < uint(len(e.inv)) {
		return e.inv[p]
	}
	return p
}

// NextUse implements the FITF oracle: a lower bound on the absolute time
// of p's next request. For core c whose next unserved request has index
// idx[c], the occurrence of p at index i ≥ idx[c] can be served no
// earlier than next[c] + (i - idx[c]), since each intervening request
// takes at least one step.
//
//mcpaging:hotpath
func (e *engine) NextUse(p core.PageID) int64 {
	if !e.known(p) {
		return cache.NeverUsed
	}
	if !e.occBuilt {
		e.buildOcc(e.occN)
		e.occBuilt = true
	}
	best := cache.NeverUsed
	for s := e.slotStart[p]; s < e.slotStart[p+1]; s++ {
		c := e.pairCore[s]
		idx := int32(e.idx[c])
		// Advance this pair's cursor past already-served occurrences.
		j, end := e.pairPtr[s], e.pairEnd[s]
		for j < end && e.pos[j] < idx {
			j++
		}
		e.pairPtr[s] = j
		if j == end {
			continue
		}
		t := e.next[c] + int64(e.pos[j]-idx)
		if t < best {
			best = t
		}
	}
	return best
}

// evict removes a resident page (named by its dense ID) from ground
// truth, validating the paper's eviction rules. Errors name the page by
// its original ID.
//
//mcpaging:hotpath
func (e *engine) evict(v core.PageID, t int64) error {
	if !e.known(v) || e.readyAt[v] == notCached {
		return fmt.Errorf("evict of non-cached page %d at t=%d", e.Original(v), t)
	}
	if r := e.readyAt[v]; r > t {
		return fmt.Errorf("evict of in-flight page %d at t=%d (ready at %d)", e.Original(v), t, r)
	}
	e.readyAt[v] = notCached
	e.used--
	return nil
}

// reset prepares the engine for one run with the given parameters. All
// run state is length-preserving, so a Runner's arrays are recycled.
func (e *engine) reset(p core.Params) {
	e.k = p.K
	e.tau = int64(p.Tau)
	e.now = 0
	e.used = 0
	e.sched = nil
	e.nextChange = math.MaxInt64
	if p.Capacity != nil && !p.Capacity.Constant() {
		// Constant schedules are exactly the fixed-K model; keeping
		// sched nil for them makes that equivalence structural.
		e.sched = p.Capacity
		e.nextChange = p.Capacity.NextChange(0)
	}
	for i := range e.next {
		e.next[i] = 0
	}
	for i := range e.idx {
		e.idx[i] = 0
	}
	clear(e.readyAt)
	if e.occBuilt {
		copy(e.pairPtr, e.pairStart)
	}
}

// smallIDs bounds the page IDs an input may use without renaming
// whatever its distinct-page count.
const smallIDs = 1024

// directIDs reports whether an input with the given max page ID and
// distinct-page count is used without renaming: its IDs are small, or
// dense enough that arrays indexed by them stay proportional to the
// instance. RunReference applies the same rule, so strategies see the
// same IDs from both engines.
func directIDs(maxID core.PageID, distinct int) bool {
	return maxID < smallIDs || int(maxID) < 2*distinct
}

// Runner owns reusable simulation state for one request set: the dense
// page numbering, the occurrence table for the oracle, and every per-run
// array. Building a Runner costs one pass over the request set; each
// subsequent Run only resets O(w + pairs + p) state, so sweeping a K × τ
// × strategy grid over one workload amortizes all table building. A
// Runner is not safe for concurrent use — give each worker its own. The
// request set must not be mutated while the Runner is in use.
type Runner struct {
	e engine
	// ca is the current run's CapacityAware view of the strategy (nil
	// for fixed-capacity runs), held here so the capacity cold path
	// reaches it without widening its signature.
	ca CapacityAware
}

// NewRunner validates the request set and builds the reusable engine
// state for it.
func NewRunner(rs core.RequestSet) (*Runner, error) {
	r := &Runner{}
	if err := r.bind(rs); err != nil {
		return nil, err
	}
	return r, nil
}

// bind points the runner at a request set, rebuilding the dense tables
// while reusing array capacity from previous binds. A set equal to the
// one the renamed tables hold is not renamed again.
func (r *Runner) bind(rs core.RequestSet) error {
	e := &r.e
	if e.holds(rs) {
		e.use(e.denseSeqs, e.names, len(e.names), rs.TotalLen())
		return nil
	}
	maxID, ok := maxPage(rs)
	if !ok {
		return rs.Validate()
	}
	n := rs.TotalLen()
	// Below 2n the distinct count decides; at or above it, the input is
	// sparse whatever the count, since n bounds it.
	distinct := n
	if maxID >= smallIDs && int(maxID) < 2*n {
		distinct = e.countDistinct(rs, maxID)
	}
	if directIDs(maxID, distinct) {
		e.use(rs, nil, int(maxID)+1, n)
	} else {
		e.rename(rs)
		e.use(e.denseSeqs, e.names, len(e.names), n)
	}
	return nil
}

// maxPage returns the largest page ID of rs; ok is false when rs fails
// Validate (no cores, or a negative page).
func maxPage(rs core.RequestSet) (maxID core.PageID, ok bool) {
	maxID = -1
	minID := core.PageID(0)
	for _, seq := range rs {
		for _, pg := range seq {
			maxID = max(maxID, pg)
			minID = min(minID, pg)
		}
	}
	return maxID, len(rs) > 0 && minID >= 0
}

// countDistinct counts the distinct pages of rs, all in [0, maxID], in
// a bitset reused across binds.
func (e *engine) countDistinct(rs core.RequestSet, maxID core.PageID) int {
	e.bits = growSlice(e.bits, int(maxID)/64+1)
	set := e.bits
	clear(set)
	distinct := 0
	for _, seq := range rs {
		for _, pg := range seq {
			w, b := uint32(pg)/64, uint64(1)<<(uint32(pg)%64)
			if set[w]&b == 0 {
				set[w] |= b
				distinct++
			}
		}
	}
	return distinct
}

// The rename's first-appearance table is open-addressing: Fibonacci
// hashing, linear probing, at most a quarter full. A slot holds
// ID<<32 | first+1, so 0 marks an empty slot even for page 0.
const (
	fibMul         = 0x9E3779B97F4A7C15 // 2^64 / golden ratio
	minFirstSlots  = 64
	firstLoadShift = 2 // load ≤ 1/4
)

// firstSlot returns the home slot of page pg in a table of 2^(64-shift)
// slots.
func firstSlot(pg core.PageID, shift uint) uint64 {
	return uint64(uint32(pg)) * fibMul >> shift
}

// growFirst returns a table of twice tab's slots holding tab's entries.
func growFirst(tab []uint64) []uint64 {
	grown := make([]uint64, 2*len(tab))
	shift, mask := 64-uint(bits.TrailingZeros(uint(len(grown)))), uint64(len(grown)-1)
	for _, slot := range tab {
		if slot == 0 {
			continue
		}
		h := firstSlot(core.PageID(slot>>32), shift)
		for grown[h] != 0 {
			h = (h + 1) & mask
		}
		grown[h] = slot
	}
	return grown
}

// rename builds the renamed tables for rs: each page becomes its rank
// among the distinct IDs. One pass through the open-addressing table
// numbers pages by first appearance; sorting the distinct IDs then
// turns first-appearance numbers into ranks with array lookups only.
func (e *engine) rename(rs core.RequestSet) {
	// names still holds the previous rename's distinct pages, even after
	// Release, so sizing from its length keeps steady-state binds from
	// growing the table.
	slots := minFirstSlots
	for slots < len(e.names)<<firstLoadShift {
		slots *= 2
	}
	e.first = growSlice(e.first, slots)
	clear(e.first)
	tab := e.first
	shift, mask := 64-uint(bits.TrailingZeros(uint(len(tab)))), uint64(len(tab)-1)
	names := e.names[:0]
	if cap(e.denseSeqs) < len(rs) {
		e.denseSeqs = make([]core.Sequence, len(rs))
	}
	e.denseSeqs = e.denseSeqs[:len(rs)]
	for j, seq := range rs {
		ds := e.denseSeqs[j]
		if cap(ds) < len(seq) {
			ds = make(core.Sequence, len(seq))
		}
		ds = ds[:len(seq)]
		for i, pg := range seq {
			h := firstSlot(pg, shift)
			for {
				slot := tab[h]
				if slot == 0 {
					f := len(names)
					names = append(names, pg)
					tab[h] = uint64(pg)<<32 | uint64(f+1)
					ds[i] = core.PageID(f)
					if len(names)<<firstLoadShift > len(tab) {
						tab = growFirst(tab)
						shift, mask = shift-1, uint64(len(tab)-1)
					}
					break
				}
				if uint32(slot>>32) == uint32(pg) {
					ds[i] = core.PageID(uint32(slot) - 1)
					break
				}
				h = (h + 1) & mask
			}
		}
		e.denseSeqs[j] = ds
	}
	e.first = tab
	// Page IDs are non-negative int32s: (ID << 32 | first) sorts by ID.
	e.keys = growSlice(e.keys, len(names))
	for f, pg := range names {
		e.keys[f] = uint64(pg)<<32 | uint64(f)
	}
	slices.Sort(e.keys)
	e.rank = growSlice(e.rank, len(names))
	for r, key := range e.keys {
		e.rank[uint32(key)] = core.PageID(r)
		names[r] = core.PageID(key >> 32)
	}
	for _, ds := range e.denseSeqs {
		for i, f := range ds {
			ds[i] = e.rank[f]
		}
	}
	e.names = names
}

// holds reports whether the renamed tables were built from a set equal
// to rs. It reads only the runner's own tables, so it works after
// Release dropped the caller's set.
func (e *engine) holds(rs core.RequestSet) bool {
	if len(e.names) == 0 || len(rs) != len(e.denseSeqs) {
		return false
	}
	for j, seq := range rs {
		ds := e.denseSeqs[j]
		if len(ds) != len(seq) {
			return false
		}
		for i, pg := range seq {
			if e.names[ds[i]] != pg {
				return false
			}
		}
	}
	return true
}

// use binds the engine to dense sequences over w pages with n requests
// in total, and their inverse table (nil when they are the input
// itself), sizing the per-run arrays.
func (e *engine) use(seqs []core.Sequence, inv []core.PageID, w, n int) {
	e.seqs, e.inv, e.w = seqs, inv, w
	p := len(seqs)
	e.next = growSlice(e.next, p)
	e.idx = growSlice(e.idx, p)
	e.readyAt = growSlice(e.readyAt, e.w)
	e.occBuilt = false
	e.occN = n
}

// buildOcc builds the flat occurrence table in two O(n) passes (counting
// sort by page, then by (page, core) pair).
func (e *engine) buildOcc(n int) {
	w := e.w
	e.cnt = growSlice(e.cnt, w)
	e.pairCnt = growSlice(e.pairCnt, w)
	clear(e.cnt)
	clear(e.pairCnt)
	e.lastCore = growSlice(e.lastCore, w)
	for i := range e.lastCore {
		e.lastCore[i] = -1
	}
	for c, seq := range e.seqs {
		cc := int32(c)
		for _, pg := range seq {
			e.cnt[pg]++
			if e.lastCore[pg] != cc {
				e.lastCore[pg] = cc
				e.pairCnt[pg]++
			}
		}
	}
	e.slotStart = growSlice(e.slotStart, w+1)
	e.posCur = growSlice(e.posCur, w)
	var slots, positions int32
	for pg := 0; pg < w; pg++ {
		e.slotStart[pg] = slots
		slots += e.pairCnt[pg]
		e.posCur[pg] = positions
		positions += e.cnt[pg]
	}
	e.slotStart[w] = slots
	pairs := int(slots)
	e.pairCore = growSlice(e.pairCore, pairs)
	e.pairStart = growSlice(e.pairStart, pairs)
	e.pairEnd = growSlice(e.pairEnd, pairs)
	e.pairPtr = growSlice(e.pairPtr, pairs)
	e.pos = growSlice(e.pos, n)
	e.slotCur = growSlice(e.slotCur, w)
	copy(e.slotCur, e.slotStart[:w])
	for i := range e.lastCore {
		e.lastCore[i] = -1
	}
	for c, seq := range e.seqs {
		cc := int32(c)
		for i, pg := range seq {
			if e.lastCore[pg] != cc {
				// First occurrence of pg in core c: open its pair. Cores
				// are scanned in order, so the pair's positions fill a
				// contiguous range of pos.
				e.lastCore[pg] = cc
				s := e.slotCur[pg]
				e.slotCur[pg] = s + 1
				e.pairCore[s] = cc
				e.pairStart[s] = e.posCur[pg]
			}
			s := e.slotCur[pg] - 1
			e.pos[e.posCur[pg]] = int32(i)
			e.posCur[pg]++
			e.pairEnd[s] = e.posCur[pg]
		}
	}
	copy(e.pairPtr, e.pairStart)
}

// growSlice reslices s to length n, reallocating only when the capacity
// is insufficient. Contents are unspecified; callers reset what they use.
func growSlice[T ~int32 | ~int64 | ~int | ~uint64](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Bind points the runner at a different request set, rebuilding the
// dense tables while reusing array capacity from previous binds. It is
// the rebind half of the Runner-per-worker pattern: a long-lived worker
// keeps one Runner and Binds it to each incoming workload, so table and
// per-run allocations amortize across jobs that share nothing but the
// worker. Binding a set equal to the last one the runner renamed reuses
// the renamed tables, so a worker running the cells of one sweep
// renames its request set once.
func (r *Runner) Bind(rs core.RequestSet) error { return r.bind(rs) }

// Release drops the runner's references to the bound request set while
// keeping array capacity for the next Bind. Call it when a worker parks
// the runner between jobs so the workload's memory can be reclaimed. A
// renamed set's runner-owned copy stays, so rebinding to an equal set
// (the next cell of a sweep) skips the rename.
func (r *Runner) Release() { r.release() }

// cancelCheckEvery is how many served requests pass between context
// cancellation checks in RunContext: frequent enough that a cancelled
// run aborts in well under a millisecond, rare enough that the check is
// invisible in the serve-loop profile.
const cancelCheckEvery = 1024

// Run simulates strategy s with the given parameters on the runner's
// request set. The strategy is Init-ed first, so a single strategy value
// can be reused across runs. obs may be nil.
func (r *Runner) Run(params core.Params, s Strategy, obs Observer) (Result, error) {
	//mcvet:ignore ctxflow Run is the documented synchronous wrapper: a caller without a ctx is its own cancellation root
	return r.RunContext(context.Background(), params, s, obs)
}

// RunContext is Run with cooperative cancellation: the serve loop polls
// ctx every cancelCheckEvery served requests and aborts with an error
// wrapping ctx.Err() when the context is cancelled or its deadline
// passes. The partial Result accumulated so far is returned alongside
// the error. A nil ctx behaves like context.Background().
//
//mcpaging:hotpath
func (r *Runner) RunContext(ctx context.Context, params core.Params, s Strategy, obs Observer) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := params.Validate(); err != nil {
		return Result{}, err
	}
	e := &r.e
	if err := s.Init(core.Instance{R: e.seqs, P: params}); err != nil {
		return Result{}, fmt.Errorf("sim: strategy %s init: %w", s.Name(), err)
	}
	e.reset(params)
	p := len(e.seqs)
	res := Result{
		Faults: make([]int64, p),
		Hits:   make([]int64, p),
		Finish: make([]int64, p),
	}
	ticker, _ := s.(Ticker)
	_, repart := s.(Repartitioner)
	ca, err := checkSchedule(e.seqs, s, e.sched)
	if err != nil {
		return res, err
	}
	r.ca = ca
	seqs := e.seqs
	wide := p > maskCores
	var served, nextCheck int64 = 0, cancelCheckEvery

	// t is the service time of the current step, MaxInt64 once every
	// core has finished. Every clock starts at 0. Below maskCores, due
	// holds the cores served at t, and head and n delimit the fault
	// segments in e.ring.
	t := int64(math.MaxInt64)
	var due uint64
	for c, seq := range seqs {
		if len(seq) > 0 {
			t = 0
			due |= 1 << c // 0 past maskCores, where the scan ignores due
		}
	}
	var head, n int
	for t != math.MaxInt64 {
		// Cooperative cancellation: one poll per cancelCheckEvery served
		// requests (each step serves at least one request, so the gap
		// between polls is bounded).
		if served >= nextCheck {
			nextCheck = served + cancelCheckEvery
			if err := ctx.Err(); err != nil {
				return res, fmt.Errorf("sim: strategy %s run aborted after %d requests: %w", s.Name(), served, err)
			}
		}
		e.now = t

		if e.sched != nil && (t >= e.nextChange || e.used > e.k) {
			if err := r.applyCapacity(t, s, obs, &res); err != nil {
				return res, err
			}
		}

		if ticker != nil {
			for _, v := range ticker.OnTick(t, e) {
				if err := e.evict(v, t); err != nil {
					return res, fmt.Errorf("sim: strategy %s voluntary eviction: %w", s.Name(), err)
				}
				res.VoluntaryEvictions++
				if obs != nil {
					ov := e.Original(v)
					obs(Event{Time: t, Core: -1, Index: -1, Page: ov, Tick: true, Donor: repart, Victim: ov})
				}
			}
		}

		if wide {
			// The scan: serve the cores whose clock is t, each as a
			// one-core mask, and fold every unfinished core's clock, read
			// after it is served, into the next step's time.
			tNext := int64(math.MaxInt64)
			for c, seq := range seqs {
				if e.idx[c] == len(seq) {
					continue
				}
				if e.next[c] == t {
					served++
					if _, _, err := e.serve(c, 1, t, s, obs, &res); err != nil {
						return res, err
					}
					if e.idx[c] == len(seq) {
						continue
					}
				}
				tNext = min(tNext, e.next[c])
			}
			t = tNext
			continue
		}

		// The due masks: serve the step's mask in one call. A core that
		// hit is due at t+1; the cores that faulted or joined form this
		// step's segment, due at t+τ+1; a finished core is in neither.
		served += int64(bits.OnesCount64(due))
		hits, faults, err := e.serve(0, due, t, s, obs, &res)
		if err != nil {
			return res, err
		}
		if faults != 0 {
			e.ring[(head+n)&(maskCores-1)] = dueSegment{t + e.tau + 1, faults}
			n++
		}
		// Every unfinished core is in hits or in one segment, and the
		// oldest segment is the earliest, so the next step is at t+1 if
		// any core hit, else at the oldest segment's time.
		switch {
		case hits != 0:
			t, due = t+1, hits
			if n > 0 && e.ring[head].t == t {
				due |= e.ring[head].mask
				head, n = (head+1)&(maskCores-1), n-1
			}
		case n > 0:
			t, due = e.ring[head].t, e.ring[head].mask
			head, n = (head+1)&(maskCores-1), n-1
		default:
			t = math.MaxInt64
		}
	}

	for c := 0; c < p; c++ {
		if res.Finish[c] > res.Makespan {
			res.Makespan = res.Finish[c]
		}
	}
	return res, nil
}

// serve serves the next request of core base+b for each bit b of due,
// in core order, all at time t. It is the one place the model's service
// rules live, whichever loop schedules the cores: a hit takes one step;
// a fault, or a join of a page already in flight, takes τ+1; a fault's
// victim leaves the cache at t and the fetched page fills the cell
// until t+τ+1. It returns, as bits of the same word, the served cores
// due again at t+1 (those that hit, and with τ = 0 all of them) and at
// t+τ+1 (those that faulted or joined); a core whose last request this
// was is in neither. The due-mask loop serves a step's whole mask in
// one call; the scan passes one core at a time.
//
//mcpaging:hotpath
func (e *engine) serve(base int, due uint64, t int64, s Strategy, obs Observer, res *Result) (hits, faults uint64, err error) {
	for m := due; m != 0; m &= m - 1 {
		b := bits.TrailingZeros64(m)
		c := base + b
		seq := e.seqs[c]
		i := e.idx[c]
		pg := seq[i]
		at := cache.Access{Core: c, Time: t, Index: i}
		victim := core.NoPage
		// Advance this core's position and clock before consulting the
		// strategy so the oracle sees the post-service state.
		e.idx[c] = i + 1
		ready := e.readyAt[pg]
		hit := ready != notCached && ready <= t
		next := t + 1
		if !hit {
			next += e.tau
		}
		e.next[c] = next
		switch {
		case hit:
			res.Hits[c]++
			s.OnHit(pg, at)
		case ready != notCached: // in-flight join
			res.Faults[c]++
			s.OnJoin(pg, at)
		default: // fault
			res.Faults[c]++
			victim = s.OnFault(pg, at, e)
			if victim == core.NoPage {
				if e.used >= e.k {
					return 0, 0, fmt.Errorf("sim: strategy %s requested a free cell but cache is full (t=%d core=%d page=%d)", s.Name(), t, c, e.Original(pg))
				}
			} else if err := e.evict(victim, t); err != nil {
				return 0, 0, fmt.Errorf("sim: strategy %s: %w", s.Name(), err)
			}
			e.readyAt[pg] = next
			e.used++
		}
		if obs != nil {
			obs(Event{Time: t, Core: c, Index: i, Page: e.Original(pg), Fault: !hit, Join: !hit && ready != notCached, Victim: e.Original(victim)})
		}
		switch {
		case i+1 == len(seq):
			res.Finish[c] = next
		case next == t+1:
			hits |= 1 << b
		default:
			faults |= 1 << b
		}
	}
	return hits, faults, nil
}

// checkSchedule validates a run's capacity schedule before the serve
// loop starts and returns s's CapacityAware view (nil if s has none).
// sched is nil for fixed-K runs, which need no check. Otherwise the
// strategy must be CapacityAware, and the model needs K(t) >= active
// cores throughout: with fewer cells than faulting cores, every cell
// can be pinned by an in-flight fetch and a fault has nothing to evict.
func checkSchedule(rs core.RequestSet, s Strategy, sched core.CapacitySchedule) (CapacityAware, error) {
	ca, _ := s.(CapacityAware)
	if sched == nil {
		return ca, nil
	}
	if ca == nil {
		return nil, fmt.Errorf("sim: strategy %s does not support time-varying capacity (schedule %s)", s.Name(), sched)
	}
	active := 0
	for _, seq := range rs {
		if len(seq) > 0 {
			active++
		}
	}
	if sched.Min() < active {
		return nil, fmt.Errorf("sim: capacity schedule %s reaches %d cells, below %d active cores", sched, sched.Min(), active)
	}
	return ca, nil
}

// applyCapacity is the elastic-capacity cold path, called at service
// time t when a schedule boundary has been reached (t >= nextChange)
// or a previous shrink is still shedding (used > k): it announces the
// net capacity At(t) —
// several breakpoints between two service steps collapse into one
// announcement, deterministically in t — and then reclaims
// over-capacity cells one SurrenderOne victim at a time. In-flight
// pages cannot be evicted (the paper's rule); when only those remain
// the shed stops and is retried at every subsequent service step.
//
//mcpaging:coldpath capacity boundaries are rare relative to served requests
func (r *Runner) applyCapacity(t int64, s Strategy, obs Observer, res *Result) error {
	e := &r.e
	if t >= e.nextChange {
		if k := e.sched.At(t); k != e.k {
			e.k = k
			r.ca.OnCapacity(k, t)
			if obs != nil {
				obs(Event{Time: t, Core: -1, Index: -1, Page: core.NoPage, Victim: core.NoPage, Capacity: true, K: k})
			}
		}
		e.nextChange = e.sched.NextChange(t)
	}
	for e.used > e.k {
		v, ok := r.ca.SurrenderOne(e)
		if !ok {
			break
		}
		if err := e.evict(v, t); err != nil {
			return fmt.Errorf("sim: strategy %s capacity shed: %w", s.Name(), err)
		}
		res.CapacityEvictions++
		if obs != nil {
			ov := e.Original(v)
			obs(Event{Time: t, Core: -1, Index: -1, Page: ov, Victim: ov, Tick: true, Capacity: true})
		}
	}
	return nil
}

// release drops references to the caller's request set and the
// rename's sort arrays while keeping array capacity, and the renamed
// tables, for the next bind. The first-appearance table stays too when
// it takes no more bytes (8 a slot) than the renamed sequences the
// runner parks anyway (4 a request), so a worker renaming job after job
// stops reallocating it; a table grown by a set of few requests over
// many pages is dropped.
func (r *Runner) release() {
	r.e.seqs = nil
	r.e.sched = nil
	n := 0
	for _, ds := range r.e.denseSeqs {
		n += len(ds)
	}
	if 8*cap(r.e.first) > 4*n {
		r.e.first = nil
	}
	r.e.keys, r.e.rank = nil, nil
	r.ca = nil
}

// runnerPool recycles Runner state across Run calls so one-shot runs
// (experiments, tests, solvers) also amortize table allocations.
var runnerPool = sync.Pool{New: func() interface{} { return new(Runner) }}

// Run simulates strategy s on the instance and returns the result. The
// strategy is Init-ed first, so a single strategy value can be reused
// across runs. obs may be nil.
//
// Run binds a pooled Runner to inst.R on every call (into pooled
// arrays, so steady-state allocation is near zero). A pooled runner
// already holding a renamed set equal to inst.R skips the rename, but
// the bind still reads the whole set. Callers that sweep many parameter
// or strategy combinations over one request set should hold a Runner
// instead.
func Run(inst core.Instance, s Strategy, obs Observer) (Result, error) {
	//mcvet:ignore ctxflow Run is the documented synchronous wrapper: a caller without a ctx is its own cancellation root
	return RunContext(context.Background(), inst, s, obs)
}

// RunContext is Run with cooperative cancellation; see
// Runner.RunContext for the abort semantics.
func RunContext(ctx context.Context, inst core.Instance, s Strategy, obs Observer) (Result, error) {
	if err := inst.Validate(); err != nil {
		return Result{}, err
	}
	r := runnerPool.Get().(*Runner)
	defer func() {
		r.release()
		runnerPool.Put(r)
	}()
	if err := r.bind(inst.R); err != nil {
		return Result{}, err
	}
	return r.RunContext(ctx, inst.P, s, obs)
}

// ErrNotDisjoint is returned by strategies that require disjoint request
// sets when given overlapping sequences.
var ErrNotDisjoint = errors.New("sim: request set is not disjoint")
