package offline

import (
	"fmt"
	"maps"
	"math"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// Decision is one eviction decision of an offline schedule: when the
// given core faults on Page, evict Victim (core.NoPage = use a free
// cell). Decisions are ordered by (timestep, core) — exactly the order
// in which the simulator consults a strategy, so a schedule can be
// replayed verbatim.
type Decision struct {
	Core   int
	Page   core.PageID
	Victim core.PageID
}

// SolveFTFSeqSchedule computes the exact minimum total faults (like
// SolveFTFSeq) and additionally returns one optimal schedule as a
// decision list. Replaying the schedule through the simulator
// (ReplaySchedule) reproduces the optimum fault for fault — the
// end-to-end consistency proof between the dynamic program and the
// engine.
func SolveFTFSeqSchedule(inst core.Instance, opts Options) (FTFSolution, []Decision, error) {
	pr, err := newPrep(inst)
	if err != nil {
		return FTFSolution{}, nil, err
	}
	type node struct {
		config []core.PageID
		x      []int
		faults int64
		parent string
		psum   int
		step   []Decision // decisions of the transition that reached this node
	}
	maxSum := pr.maxPosSum()
	buckets := make([]map[string]*node, maxSum+1)
	add := func(sum int, n *node) {
		if buckets[sum] == nil {
			buckets[sum] = make(map[string]*node)
		}
		key := stateKey(n.config, n.x)
		if old, ok := buckets[sum][key]; ok {
			if n.faults < old.faults {
				*old = *n
			}
			return
		}
		buckets[sum][key] = n
	}
	add(0, &node{x: make([]int, pr.p), psum: -1})

	best := int64(math.MaxInt64)
	var bestNode *node
	states := 0
	limit := opts.maxStates()

	for sum := 0; sum <= maxSum; sum++ {
		for _, key := range sortedStateKeys(buckets[sum]) {
			st := buckets[sum][key]
			states++
			if states > limit {
				return FTFSolution{}, nil, fmt.Errorf("solve FTF seq schedule: %w (limit %d)", ErrStateLimit, limit)
			}
			if pr.done(st.x) {
				if st.faults < best {
					best = st.faults
					bestNode = st
				}
				continue
			}
			if st.faults >= best {
				continue
			}
			fst := &ftfSeqState{config: st.config, x: st.x, faults: st.faults}
			pr.seqTransitionTrace(fst, inst.P.K, func(nc []core.PageID, nx []int, nf int64, decs []Decision) {
				add(posSum(nx), &node{
					config: nc, x: nx, faults: nf,
					parent: key, psum: sum, step: decs,
				})
			})
		}
		// Unlike the plain solver, buckets must be kept for backtracking.
	}
	if bestNode == nil {
		return FTFSolution{}, nil, fmt.Errorf("solve FTF seq schedule: no feasible schedule")
	}
	// Walk parents back to the root, collecting decisions.
	var rev [][]Decision
	cur := bestNode
	for cur.psum >= 0 {
		rev = append(rev, cur.step)
		cur = buckets[cur.psum][cur.parent]
		if cur == nil {
			return FTFSolution{}, nil, fmt.Errorf("solve FTF seq schedule: broken parent chain")
		}
	}
	var sched []Decision
	for i := len(rev) - 1; i >= 0; i-- {
		sched = append(sched, rev[i]...)
	}
	return FTFSolution{Faults: best, States: states}, sched, nil
}

// seqTransitionTrace is seqTransition extended to report the decisions
// taken in the transition.
func (pr *prep) seqTransitionTrace(st *ftfSeqState, k int, emit func([]core.PageID, []int, int64, []Decision)) {
	carriedInflight := make(map[core.PageID]bool, pr.p)
	for i := 0; i < pr.p; i++ {
		if st.x[i] < pr.ends[i] && !pr.atBoundary(st.x[i]) {
			carriedInflight[pr.pageAt(i, st.x[i])] = true
		}
	}
	nx := make([]int, pr.p)
	copy(nx, st.x)

	type frame struct {
		config   []core.PageID
		inflight map[core.PageID]bool
		faults   int64
		decs     []Decision
	}
	var rec func(i int, f frame)
	rec = func(i int, f frame) {
		if i == pr.p {
			nxCopy := make([]int, pr.p)
			copy(nxCopy, nx)
			emit(f.config, nxCopy, f.faults, f.decs)
			return
		}
		xi := st.x[i]
		if xi >= pr.ends[i] {
			nx[i] = xi
			rec(i+1, f)
			return
		}
		pg := pr.pageAt(i, xi)
		if !pr.atBoundary(xi) {
			nx[i] = xi + 1
			rec(i+1, f)
			return
		}
		if contains(f.config, pg) {
			nx[i] = xi + pr.step
			rec(i+1, f)
			nx[i] = xi
			return
		}
		nx[i] = xi + 1
		base := insertSorted(f.config, pg)
		nf := f.faults + 1
		mkInflight := func() map[core.PageID]bool {
			m := make(map[core.PageID]bool, len(f.inflight)+1)
			maps.Copy(m, f.inflight)
			m[pg] = true
			return m
		}
		appendDec := func(v core.PageID) []Decision {
			nd := make([]Decision, len(f.decs), len(f.decs)+1)
			copy(nd, f.decs)
			return append(nd, Decision{Core: i, Page: pg, Victim: v})
		}
		if len(base) <= k {
			rec(i+1, frame{config: base, inflight: mkInflight(), faults: nf, decs: appendDec(core.NoPage)})
		} else {
			for vi, v := range base {
				if v == pg || f.inflight[v] {
					continue
				}
				rec(i+1, frame{config: removeIdx(base, []int{vi}), inflight: mkInflight(), faults: nf, decs: appendDec(v)})
			}
		}
		nx[i] = xi
	}
	rec(0, frame{config: st.config, inflight: carriedInflight, faults: st.faults})
}

// Replayer is a sim.Strategy that executes a precomputed decision list.
// It errors (through Err) if the run's fault pattern diverges from the
// schedule. Once the schedule is exhausted — which is expected for PIF
// witnesses, whose decisions only cover the prefix up to the checkpoint
// — the replayer falls back to LRU over the cached pages, whose recency
// it tracked during the replay, so the run completes cleanly.
type Replayer struct {
	sched []Decision
	pos   int
	err   error

	lru *cache.LRU // cached pages in recency order
}

// NewReplayer wraps a schedule produced by SolveFTFSeqSchedule or
// WitnessPIF.
func NewReplayer(sched []Decision) *Replayer { return &Replayer{sched: sched} }

// Name implements sim.Strategy.
func (r *Replayer) Name() string { return "replay" }

// Init implements sim.Strategy.
func (r *Replayer) Init(core.Instance) error {
	r.pos = 0
	r.err = nil
	r.lru = cache.NewLRU()
	return nil
}

// Err reports a divergence between the schedule and the observed run.
func (r *Replayer) Err() error { return r.err }

// Consumed reports how many decisions were used.
func (r *Replayer) Consumed() int { return r.pos }

// OnHit implements sim.Strategy.
func (r *Replayer) OnHit(p core.PageID, at cache.Access) { r.lru.Touch(p, at) }

// OnJoin implements sim.Strategy.
func (r *Replayer) OnJoin(p core.PageID, at cache.Access) { r.lru.Touch(p, at) }

// OnFault implements sim.Strategy.
func (r *Replayer) OnFault(p core.PageID, at cache.Access, v sim.View) core.PageID {
	var victim core.PageID = core.NoPage
	switch {
	case r.pos < len(r.sched):
		d := r.sched[r.pos]
		r.pos++
		if d.Core != at.Core || d.Page != p {
			r.err = fmt.Errorf("offline: replay divergence: schedule expects core %d page %d, run faulted core %d page %d",
				d.Core, d.Page, at.Core, p)
		}
		victim = d.Victim
		r.lru.Remove(victim)
	case v.Free() > 0:
		// Tail: free cell available.
	default:
		// Tail: evict the least recently used resident page.
		w, ok := r.lru.Evict(v.Resident)
		if !ok {
			r.err = fmt.Errorf("offline: replay tail found no evictable page at t=%d", at.Time)
		}
		victim = w
	}
	r.lru.Insert(p, at)
	return victim
}
