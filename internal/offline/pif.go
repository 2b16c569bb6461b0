package offline

import (
	"fmt"
	"slices"
	"sort"

	"mcpaging/internal/core"
)

// PIFInstance is an input to the PARTIAL-INDIVIDUAL-FAULTS decision
// problem: can Inst be served so that at time T every sequence i has
// faulted at most Bounds[i] times?
type PIFInstance struct {
	Inst core.Instance
	// T is the checkpoint time (the paper's t).
	T int64
	// Bounds is the per-sequence fault budget b.
	Bounds []int64
}

// Validate checks structural sanity of the PIF instance.
func (pi PIFInstance) Validate() error {
	if err := pi.Inst.Validate(); err != nil {
		return err
	}
	if pi.T < 0 {
		return fmt.Errorf("offline: negative checkpoint time %d", pi.T)
	}
	if len(pi.Bounds) != pi.Inst.R.NumCores() {
		return fmt.Errorf("offline: %d bounds for %d cores", len(pi.Bounds), pi.Inst.R.NumCores())
	}
	for i, b := range pi.Bounds {
		if b < 0 {
			return fmt.Errorf("offline: negative bound %d for core %d", b, i)
		}
	}
	return nil
}

// PIFStats reports the work done by the PIF dynamic program.
type PIFStats struct {
	States int // distinct (configuration, position) states touched
	Pairs  int // (fault-vector, time) pairs stored across all states
}

// pifPair is one feasible serving prefix: per-core fault counts and the
// elapsed time at which the owning state was reached.
type pifPair struct {
	f []int32
	t int32
}

// pifState is a DP node holding its distinct pairs.
type pifState struct {
	config []core.PageID
	x      []int
	pairs  []pifPair
}

// addPair inserts a pair unless the state already holds it. A pair with
// componentwise more faults than another of the same time could be
// dropped too without changing the answer, but on the instances of
// experiment E11 no pair is so dominated, so the scan for it would only
// cost time.
func (st *pifState) addPair(np pifPair) bool {
	for _, q := range st.pairs {
		if q.t == np.t && slices.Equal(q.f, np.f) {
			return false
		}
	}
	st.pairs = append(st.pairs, np)
	return true
}

// MinUniformBound returns the smallest uniform fault budget b such that
// the instance can be served with every sequence at most b faults at
// time T (binary search over DecidePIF). It is the offline "fairest
// possible" benchmark the FairShare strategy is measured against in
// experiment E16.
func MinUniformBound(inst core.Instance, t int64, opts Options) (int64, error) {
	if err := inst.Validate(); err != nil {
		return 0, err
	}
	p := inst.R.NumCores()
	mk := func(b int64) PIFInstance {
		bounds := make([]int64, p)
		for i := range bounds {
			bounds[i] = b
		}
		return PIFInstance{Inst: inst, T: t, Bounds: bounds}
	}
	hi := int64(inst.R.MaxLen())
	if t < hi {
		hi = t
	}
	ok, _, err := DecidePIF(mk(hi), opts)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("offline: no uniform bound feasible up to %d", hi)
	}
	lo := int64(0)
	for lo < hi {
		mid := (lo + hi) / 2
		ok, _, err := DecidePIF(mk(mid), opts)
		if err != nil {
			return 0, err
		}
		if ok {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo, nil
}

// ParetoFrontier computes, for a two-core instance, every
// Pareto-minimal feasible fault-budget pair (b0, b1) at time T: the
// exact trade-off curve between the cores' fault counts that Algorithm 2
// certifies. Points are returned in increasing b0. The frontier is the
// offline ground truth the fairness strategies of experiment E21 are
// plotted against.
func ParetoFrontier(inst core.Instance, t int64, opts Options) ([][2]int64, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if inst.R.NumCores() != 2 {
		return nil, fmt.Errorf("offline: ParetoFrontier supports exactly 2 cores, got %d", inst.R.NumCores())
	}
	maxB := int64(inst.R.MaxLen())
	if t < maxB {
		maxB = t
	}
	feasible := func(b0, b1 int64) (bool, error) {
		ok, _, err := DecidePIF(PIFInstance{Inst: inst, T: t, Bounds: []int64{b0, b1}}, opts)
		return ok, err
	}
	// minB1(b0) is non-increasing in b0; walk b0 upward, shrinking b1.
	var frontier [][2]int64
	b1 := maxB
	for b0 := int64(0); b0 <= maxB; b0++ {
		ok, err := feasible(b0, b1)
		if err != nil {
			return nil, err
		}
		if !ok {
			continue // even (b0, maxB) infeasible; larger b0 needed
		}
		for b1 > 0 {
			ok, err := feasible(b0, b1-1)
			if err != nil {
				return nil, err
			}
			if !ok {
				break
			}
			b1--
		}
		if len(frontier) == 0 || frontier[len(frontier)-1][1] > b1 {
			frontier = append(frontier, [2]int64{b0, b1})
		}
		if b1 == 0 {
			break // cannot improve core 1 further; all larger b0 dominated
		}
	}
	if len(frontier) == 0 {
		return nil, fmt.Errorf("offline: no feasible budget pair up to (%d,%d)", maxB, maxB)
	}
	return frontier, nil
}

// DecidePIF runs the paper's Algorithm 2 (Theorem 7): it returns true iff
// the instance can be served so that at time T every sequence is within
// its fault bound. The request set must be disjoint.
//
// Voluntary evictions ("forcing") are allowed by default, matching the
// paper's successor rule — for PIF, unlike FTF, forcing can genuinely
// help, because a forced fault slows a sequence down and pushes its
// remaining requests past the checkpoint. Set Options.HonestPIF to
// restrict the search to honest schedules.
func DecidePIF(pi PIFInstance, opts Options) (bool, PIFStats, error) {
	var stats PIFStats
	if err := pi.Validate(); err != nil {
		return false, stats, err
	}
	pr, err := newPrep(pi.Inst)
	if err != nil {
		return false, stats, err
	}
	if pi.T == 0 {
		return true, stats, nil // no time has passed; zero faults everywhere
	}
	maxSum := pr.maxPosSum()
	buckets := make([]map[string]*pifState, maxSum+1)
	add := func(sum int, config []core.PageID, x []int, p pifPair) {
		if buckets[sum] == nil {
			buckets[sum] = make(map[string]*pifState)
		}
		key := stateKey(config, x)
		st, ok := buckets[sum][key]
		if !ok {
			st = &pifState{config: config, x: x}
			buckets[sum][key] = st
		}
		if st.addPair(p) {
			stats.Pairs++
		}
	}

	add(0, nil, make([]int, pr.p), pifPair{f: make([]int32, pr.p), t: 0})
	limit := opts.maxStates()
	forcing := !opts.HonestPIF

	for sum := 0; sum <= maxSum; sum++ {
		// Iterate states in sorted key order so the search (and its
		// reported effort) is deterministic: the early accept below can
		// fire mid-bucket.
		keys := make([]string, 0, len(buckets[sum]))
		for k := range buckets[sum] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			st := buckets[sum][key]
			stats.States++
			if stats.States > limit {
				return false, stats, fmt.Errorf("decide PIF: %w (limit %d)", ErrStateLimit, limit)
			}
			if pr.done(st.x) {
				// All sequences finished within their bounds before the
				// checkpoint: no further faults can accrue.
				if len(st.pairs) > 0 {
					return true, stats, nil
				}
				continue
			}
			tr := pr.advance(st.config, st.x)
			// Update every surviving pair.
			var nps []pifPair
			for _, pair := range st.pairs {
				nf := make([]int32, pr.p)
				copy(nf, pair.f)
				ok := true
				for _, c := range tr.faults {
					nf[c]++
					if int64(nf[c]) > pi.Bounds[c] {
						ok = false
						break
					}
				}
				if !ok {
					continue
				}
				nt := pair.t + 1
				if int64(nt) >= pi.T {
					// Reached the checkpoint within bounds.
					return true, stats, nil
				}
				nps = append(nps, pifPair{f: nf, t: nt})
			}
			if len(nps) == 0 {
				continue
			}
			if pr.done(tr.nx) {
				// The successor finishes all sequences within bounds.
				return true, stats, nil
			}
			nsum := posSum(tr.nx)
			pr.successors(st.config, tr, pi.Inst.P.K, forcing, func(nc []core.PageID) {
				for _, np := range nps {
					add(nsum, nc, tr.nx, np)
				}
			})
		}
		buckets[sum] = nil
	}
	return false, stats, nil
}
