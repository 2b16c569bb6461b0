package offline

import (
	"fmt"
	"math"

	"mcpaging/internal/core"
)

// FTFSolution is the result of the FINAL-TOTAL-FAULTS dynamic program.
type FTFSolution struct {
	// Faults is the minimum total number of faults over all honest (or,
	// with AllowForcing, all) offline eviction schedules.
	Faults int64
	// States is the number of distinct DP states explored — the
	// empirical counterpart of the O(n^{K+p}(τ+1)^p) bound of Theorem 6.
	States int
}

// ftfState is one DP node: a cache configuration, position vector, and
// the minimum faults to reach it.
type ftfState struct {
	config []core.PageID
	x      []int
	faults int64
}

// SolveFTF computes the minimum total number of faults for serving the
// instance (the paper's Algorithm 1, Theorem 6). The request set must be
// disjoint. Running time is polynomial in the sequence lengths but
// exponential in p and K, so this is only usable on small instances; the
// Options state limit guards against blow-ups.
func SolveFTF(inst core.Instance, opts Options) (FTFSolution, error) {
	pr, err := newPrep(inst)
	if err != nil {
		return FTFSolution{}, err
	}
	maxSum := pr.maxPosSum()
	buckets := make([]map[string]*ftfState, maxSum+1)
	add := func(sum int, st *ftfState) {
		if buckets[sum] == nil {
			buckets[sum] = make(map[string]*ftfState)
		}
		key := stateKey(st.config, st.x)
		if old, ok := buckets[sum][key]; ok {
			if st.faults < old.faults {
				old.faults = st.faults
			}
			return
		}
		buckets[sum][key] = st
	}

	start := &ftfState{config: nil, x: make([]int, pr.p)}
	add(0, start)

	best := int64(math.MaxInt64)
	states := 0
	limit := opts.maxStates()

	for sum := 0; sum <= maxSum; sum++ {
		for _, skey := range sortedStateKeys(buckets[sum]) {
			st := buckets[sum][skey]
			states++
			if states > limit {
				return FTFSolution{}, fmt.Errorf("solve FTF: %w (limit %d)", ErrStateLimit, limit)
			}
			if pr.done(st.x) {
				if st.faults < best {
					best = st.faults
				}
				continue
			}
			tr := pr.advance(st.config, st.x)
			nf := st.faults + int64(len(tr.faults))
			nsum := posSum(tr.nx)
			pr.successors(st.config, tr, inst.P.K, opts.AllowForcing, func(nc []core.PageID) {
				add(nsum, &ftfState{config: nc, x: tr.nx, faults: nf})
			})
		}
		buckets[sum] = nil // release as we go
	}
	if best == int64(math.MaxInt64) {
		return FTFSolution{}, fmt.Errorf("solve FTF: no feasible schedule (K too small for pinned pages)")
	}
	return FTFSolution{Faults: best, States: states}, nil
}
