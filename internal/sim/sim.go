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
// Inputs whose page IDs are already dense (bounded by a small multiple of
// the total request count — every generated workload and every renumbered
// trace) are used as-is. Sparser inputs are transparently renumbered on
// entry; the engine then translates IDs at the strategy and observer
// boundary, so strategies and observers always see the instance's
// original page IDs and behave identically either way. RunReference
// retains the original map-based engine as an executable specification
// for differential tests.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
)

// Strategy is a cache-management strategy in the paper's sense: a
// combination of a (possibly trivial) partition policy and an eviction
// policy. The simulator owns ground truth (residency, fetch state, free
// cells); the strategy owns replacement metadata and decides victims.
type Strategy interface {
	// Name identifies the strategy in tables, e.g. "S(LRU)" or
	// "sP[4 4](LRU)".
	Name() string
	// Init prepares the strategy for a fresh run of the given instance.
	// Strategies that need future knowledge receive the full instance.
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
// All page IDs cross this interface in the instance's original ID space,
// even when the engine has renumbered internally.
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
}

// Event describes one served request — or, when Tick is set, one
// voluntary eviction — for observers and tests. Page and Victim are
// always in the instance's original ID space.
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

// notCached is the readyAt sentinel for an absent page. Real
// fetch-completion times are t+τ+1 ≥ 1, so zero is never ambiguous and
// the array can be cleared with a memclr.
const notCached int64 = 0

// engine is the dense-ID simulator state for one run. Ground truth is
// indexed by dense page IDs 0..w-1; fwd/inv translate to and from the
// instance's original IDs when the input needed renumbering (both are nil
// on the direct path, where dense IDs are the original IDs).
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

	readyAt []int64 // per dense page: fetch completion time, notCached if absent

	fwd map[core.PageID]core.PageID // original → dense (nil when direct)
	inv []core.PageID               // dense → original (nil when direct)

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

	denseSeqs []core.Sequence // backing store for renumbered sequences
}

var _ View = (*engine)(nil)
var _ cache.Oracle = (*engine)(nil)

// denseID maps an original page ID to the engine's dense ID space. ok is
// false for pages outside the instance's universe.
//
//mcpaging:hotpath
func (e *engine) denseID(p core.PageID) (core.PageID, bool) {
	if e.fwd != nil {
		dp, ok := e.fwd[p]
		return dp, ok
	}
	if p < 0 || int(p) >= e.w {
		return 0, false
	}
	return p, true
}

//mcpaging:hotpath
func (e *engine) Resident(p core.PageID) bool {
	dp, ok := e.denseID(p)
	if !ok {
		return false
	}
	r := e.readyAt[dp]
	return r != notCached && r <= e.now
}

//mcpaging:hotpath
func (e *engine) InFlight(p core.PageID) bool {
	dp, ok := e.denseID(p)
	if !ok {
		return false
	}
	// notCached is 0 and now ≥ 0, so absent pages never satisfy this.
	return e.readyAt[dp] > e.now
}

//mcpaging:hotpath
func (e *engine) Cached(p core.PageID) bool {
	dp, ok := e.denseID(p)
	return ok && e.readyAt[dp] != notCached
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

// NextUse implements the FITF oracle: a lower bound on the absolute time
// of p's next request. For core c whose next unserved request has index
// idx[c], the occurrence of p at index i ≥ idx[c] can be served no
// earlier than next[c] + (i - idx[c]), since each intervening request
// takes at least one step.
//
//mcpaging:hotpath
func (e *engine) NextUse(p core.PageID) int64 {
	dp, ok := e.denseID(p)
	if !ok {
		return cache.NeverUsed
	}
	if !e.occBuilt {
		e.buildOcc(e.occN)
		e.occBuilt = true
	}
	best := cache.NeverUsed
	for s := e.slotStart[dp]; s < e.slotStart[dp+1]; s++ {
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

// evictOriginal removes a resident page (named by its original ID) from
// ground truth, validating the paper's eviction rules.
//
//mcpaging:hotpath
func (e *engine) evictOriginal(v core.PageID, t int64) error {
	dv, ok := e.denseID(v)
	if ok && e.readyAt[dv] == notCached {
		ok = false
	}
	if !ok {
		return fmt.Errorf("evict of non-cached page %d at t=%d", v, t)
	}
	if r := e.readyAt[dv]; r > t {
		return fmt.Errorf("evict of in-flight page %d at t=%d (ready at %d)", v, t, r)
	}
	e.readyAt[dv] = notCached
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

// densePageLimit is the bound on max page ID below which an input is used
// without renumbering: a small multiple of the request count so that the
// flat arrays stay proportional to the input size.
func densePageLimit(n int) int {
	limit := 2 * n
	if limit < 1024 {
		limit = 1024
	}
	return limit
}

// Runner owns reusable simulation state for one request set: the dense
// page numbering, the occurrence table for the oracle, and every per-run
// array. Building a Runner costs one pass over the request set; each
// subsequent Run only resets O(w + pairs + p) state, so sweeping a K × τ
// × strategy grid over one workload amortizes all table building. A
// Runner is not safe for concurrent use — give each worker its own. The
// request set must not be mutated while the Runner is in use.
type Runner struct {
	rs core.RequestSet
	e  engine
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
// while reusing array capacity from previous binds.
func (r *Runner) bind(rs core.RequestSet) error {
	if err := rs.Validate(); err != nil {
		return err
	}
	r.rs = rs
	e := &r.e
	n := rs.TotalLen()
	maxID := core.PageID(-1)
	for _, seq := range rs {
		for _, pg := range seq {
			if pg > maxID {
				maxID = pg
			}
		}
	}
	if int(maxID) < densePageLimit(n) {
		// Direct path: the input's own IDs index the flat arrays.
		e.fwd, e.inv = nil, nil
		e.seqs = rs
		e.w = int(maxID) + 1
	} else {
		// Renumber on entry: first appearance order, like core.Renumber.
		e.fwd = make(map[core.PageID]core.PageID, 64)
		inv := e.inv[:0]
		e.denseSeqs = e.denseSeqs[:0]
		for _, seq := range rs {
			ds := make(core.Sequence, len(seq))
			for i, pg := range seq {
				dp, ok := e.fwd[pg]
				if !ok {
					dp = core.PageID(len(inv))
					inv = append(inv, pg)
					e.fwd[pg] = dp
				}
				ds[i] = dp
			}
			e.denseSeqs = append(e.denseSeqs, ds)
		}
		e.inv = inv
		e.seqs = e.denseSeqs
		e.w = len(inv)
	}
	p := len(rs)
	e.next = growSlice(e.next, p)
	e.idx = growSlice(e.idx, p)
	e.readyAt = growSlice(e.readyAt, e.w)
	e.occBuilt = false
	e.occN = n
	return nil
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
func growSlice[T int32 | int64 | int](s []T, n int) []T {
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
// worker.
func (r *Runner) Bind(rs core.RequestSet) error { return r.bind(rs) }

// Release drops the runner's references to the bound request set (and
// any renumbered copy of it) while keeping array capacity for the next
// Bind. Call it when a worker parks the runner between jobs so the
// workload's memory can be reclaimed.
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
	if err := s.Init(core.Instance{R: r.rs, P: params}); err != nil {
		return Result{}, fmt.Errorf("sim: strategy %s init: %w", s.Name(), err)
	}
	e := &r.e
	e.reset(params)
	p := len(r.rs)
	res := Result{
		Faults: make([]int64, p),
		Hits:   make([]int64, p),
		Finish: make([]int64, p),
	}
	ticker, _ := s.(Ticker)
	_, repart := s.(Repartitioner)
	ca, err := checkSchedule(r.rs, s, e.sched)
	if err != nil {
		return res, err
	}
	r.ca = ca
	seqs := e.seqs
	var served, nextCheck int64 = 0, cancelCheckEvery

	for {
		// Cooperative cancellation: one poll per cancelCheckEvery served
		// requests (each outer iteration serves at least one request, so
		// the gap between polls is bounded).
		if served >= nextCheck {
			nextCheck = served + cancelCheckEvery
			if err := ctx.Err(); err != nil {
				return res, fmt.Errorf("sim: strategy %s run aborted after %d requests: %w", s.Name(), served, err)
			}
		}
		// Next service time: min clock over unfinished cores.
		t := int64(math.MaxInt64)
		for c := 0; c < p; c++ {
			if e.idx[c] < len(seqs[c]) && e.next[c] < t {
				t = e.next[c]
			}
		}
		if t == int64(math.MaxInt64) {
			break
		}
		e.now = t

		if e.sched != nil && (t >= e.nextChange || e.used > e.k) {
			if err := r.applyCapacity(t, s, obs, &res); err != nil {
				return res, err
			}
		}

		if ticker != nil {
			for _, v := range ticker.OnTick(t, e) {
				if err := e.evictOriginal(v, t); err != nil {
					return res, fmt.Errorf("sim: strategy %s voluntary eviction: %w", s.Name(), err)
				}
				res.VoluntaryEvictions++
				if obs != nil {
					obs(Event{Time: t, Core: -1, Index: -1, Page: v, Tick: true, Donor: repart, Victim: v})
				}
			}
		}

		for c := 0; c < p; c++ {
			if e.idx[c] >= len(seqs[c]) || e.next[c] != t {
				continue
			}
			i := e.idx[c]
			served++
			pg := seqs[c][i]
			op := pg // original ID for strategies and observers
			if e.inv != nil {
				op = e.inv[pg]
			}
			at := cache.Access{Core: c, Time: t, Index: i}
			ev := Event{Time: t, Core: c, Index: i, Page: op, Victim: core.NoPage}

			ready := e.readyAt[pg]
			switch {
			case ready != notCached && ready <= t: // hit
				res.Hits[c]++
				e.idx[c] = i + 1
				e.next[c] = t + 1
				s.OnHit(op, at)
			case ready != notCached: // in-flight join
				res.Faults[c]++
				ev.Fault, ev.Join = true, true
				e.idx[c] = i + 1
				e.next[c] = t + e.tau + 1
				s.OnJoin(op, at)
			default: // fault
				res.Faults[c]++
				ev.Fault = true
				// Advance this core's position before consulting the
				// strategy so the oracle sees the post-service state.
				e.idx[c] = i + 1
				e.next[c] = t + e.tau + 1
				victim := s.OnFault(op, at, e)
				if victim == core.NoPage {
					if e.used >= e.k {
						return res, fmt.Errorf("sim: strategy %s requested a free cell but cache is full (t=%d core=%d page=%d)", s.Name(), t, c, op)
					}
				} else {
					if err := e.evictOriginal(victim, t); err != nil {
						return res, fmt.Errorf("sim: strategy %s: %w", s.Name(), err)
					}
					ev.Victim = victim
				}
				e.readyAt[pg] = t + e.tau + 1
				e.used++
			}
			if e.idx[c] == len(seqs[c]) {
				res.Finish[c] = e.next[c]
			}
			if obs != nil {
				obs(ev)
			}
		}
	}

	for c := 0; c < p; c++ {
		if res.Finish[c] > res.Makespan {
			res.Makespan = res.Finish[c]
		}
	}
	return res, nil
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
		if err := e.evictOriginal(v, t); err != nil {
			return fmt.Errorf("sim: strategy %s capacity shed: %w", s.Name(), err)
		}
		res.CapacityEvictions++
		if obs != nil {
			obs(Event{Time: t, Core: -1, Index: -1, Page: v, Victim: v, Tick: true, Capacity: true})
		}
	}
	return nil
}

// release drops references to the caller's request set (and renumbered
// copies of it) while keeping array capacity for the next bind.
func (r *Runner) release() {
	r.rs = nil
	r.e.seqs = nil
	r.e.fwd = nil
	r.e.sched = nil
	r.ca = nil
	for i := range r.e.denseSeqs {
		r.e.denseSeqs[i] = nil
	}
}

// runnerPool recycles Runner state across Run calls so one-shot runs
// (experiments, tests, solvers) also amortize table allocations.
var runnerPool = sync.Pool{New: func() interface{} { return new(Runner) }}

// Run simulates strategy s on the instance and returns the result. The
// strategy is Init-ed first, so a single strategy value can be reused
// across runs. obs may be nil.
//
// Run rebuilds the dense tables for inst.R on every call (into pooled
// arrays, so steady-state allocation is near zero). Callers that sweep
// many parameter or strategy combinations over one request set should
// hold a Runner instead.
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
