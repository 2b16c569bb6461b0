// Package mattson computes per-core miss curves and optimal static cache
// partitions.
//
// Both miss curves of a sequence come from one pass of a stack algorithm
// (Mattson et al., IBM Systems Journal 1970). After each access the top
// k pages of the stack are what a cache of k pages holds, for every k at
// once, so an access misses in a cache of size k exactly when its depth
// in the stack (its stack distance) exceeds k. LRU's stack is the
// recency stack: the accessed page moves to the top. Belady's OPT is a
// stack algorithm too, with priority = next use: the accessed page moves
// to the top and carries the pages it displaces down, each depth keeping
// whichever of its own page and the carried one is used again sooner.
// Both passes run over the sequence renamed to dense IDs, on a stack cut
// at the largest cache size asked for.
//
// Because a fault only delays the faulting core's own sequence, the
// per-core fault count of a *static partition* strategy is independent of
// τ and of the other cores. Summing per-core curve points therefore
// predicts the exact fault count of sP^B_A for the corresponding per-part
// policy, and the best static partition (the paper's sP^OPT baselines in
// Lemma 2 and Theorem 1) is found by dynamic programming over the curves.
package mattson

import (
	"context"
	"fmt"
	"math"
	"slices"

	"mcpaging/internal/core"
)

// dense is one sequence with its pages renamed 0..distinct-1 in order of
// first appearance.
type dense struct {
	ids      []int32
	distinct int
}

func renumber(seq core.Sequence) dense {
	ids := make([]int32, len(seq))
	name := make(map[core.PageID]int32)
	for i, p := range seq {
		id, ok := name[p]
		if !ok {
			id = int32(len(name))
			name[p] = id
		}
		ids[i] = id
	}
	return dense{ids: ids, distinct: len(name)}
}

// nextRequests returns, for each request, the index of the next
// request for the same page, or len(d.ids) if there is none.
func (d dense) nextRequests() []int {
	n := len(d.ids)
	next, after := make([]int, n), make([]int, d.distinct)
	for p := range after {
		after[p] = n
	}
	for i := n - 1; i >= 0; i-- {
		p := d.ids[i]
		next[i], after[p] = after[p], i
	}
	return next
}

// checkSteps bounds the stack steps a curve pass takes between checks
// of its context. A request walks at most kmax steps, so a pass checks
// once every max(checkSteps/kmax, 1) requests.
const checkSteps = 1 << 16

// curveFrom turns a stack-distance histogram into a miss curve:
// depth[d] counts the accesses found at depth d (1-based, depth[0]
// unused) and deeper those found below the cut or not at all, which
// miss at every size.
func curveFrom(depth []int64, deeper int64) []int64 {
	curve := make([]int64, len(depth))
	for k := len(depth) - 1; k >= 0; k-- {
		curve[k] = deeper
		deeper += depth[k]
	}
	return curve
}

// lruCurve is LRUCurve's pass: a recency stack of the top kmax pages,
// with in marking the pages it holds.
func (d dense) lruCurve(ctx context.Context, kmax int) ([]int64, error) {
	if kmax < 0 {
		return nil, nil
	}
	every := max(checkSteps/max(kmax, 1), 1)
	depth := make([]int64, kmax+1)
	var deeper int64
	stack := make([]int32, 0, kmax)
	in := make([]bool, d.distinct)
	for i, p := range d.ids {
		if i%every == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		at := len(stack) // p's depth - 1, or the stack's length if absent
		if in[p] {
			at = slices.Index(stack, p)
			depth[at+1]++
		} else {
			deeper++
			if kmax == 0 {
				continue
			}
			if at < kmax {
				stack = append(stack, p)
			} else {
				at--
				in[stack[at]] = false
			}
			in[p] = true
		}
		copy(stack[1:at+1], stack[:at])
		stack[0] = p
	}
	return curveFrom(depth, deeper), nil
}

// optCurve is OPTCurve's pass: Belady's stack of the top kmax pages,
// ordered at each depth by next use.
func (d dense) optCurve(ctx context.Context, kmax int) ([]int64, error) {
	if kmax < 0 {
		return nil, nil
	}
	every := max(checkSteps/max(kmax, 1), 1)
	// nextUse[p] is the index of p's next request, as of its latest.
	next, nextUse := d.nextRequests(), make([]int, d.distinct)
	depth := make([]int64, kmax+1)
	var deeper int64
	stack := make([]int32, 0, kmax)
	for i, p := range d.ids {
		if i%every == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		nextUse[p] = next[i]
		// p takes the top. Below it, the carried page is the one a cache
		// of the depths above evicts; each depth keeps the sooner used of
		// its own page and the carried one, and carries the other down.
		carry, at := p, 0
		for ; at < len(stack); at++ {
			q := stack[at]
			if q == p {
				break
			}
			if at == 0 || nextUse[q] > nextUse[carry] {
				stack[at], carry = carry, q
			}
		}
		switch {
		case at < len(stack): // a hit at depth at+1: p's old slot takes the carried page
			stack[at] = carry
			depth[at+1]++
		case len(stack) < kmax: // a miss everywhere, and the stack grows
			stack = append(stack, carry)
			deeper++
		default: // a miss everywhere; the carried page falls past the cut
			deeper++
		}
	}
	return curveFrom(depth, deeper), nil
}

// LRUCurve returns the LRU miss counts for cache sizes 0..kmax for one
// sequence: curve[k] is the number of misses with a dedicated LRU cache
// of k pages. curve[0] is len(seq). It takes one pass over seq, with a
// stack search of at most kmax steps per request.
func LRUCurve(seq core.Sequence, kmax int) []int64 {
	curve, _ := renumber(seq).lruCurve(context.TODO(), kmax)
	return curve
}

// OPTCurve returns Belady miss counts for sizes 0..kmax: curve[k] is
// OPTMisses(seq, k). It takes one pass of Belady's stack algorithm over
// seq, with at most kmax stack steps per request.
func OPTCurve(seq core.Sequence, kmax int) []int64 {
	curve, _ := renumber(seq).optCurve(context.TODO(), kmax)
	return curve
}

// OPTMisses returns the number of misses of Belady's optimal algorithm on
// one sequence with a dedicated cache of k pages. For a single sequence
// (no cross-core alignment effects) Belady is optimal for any τ. It is
// the textbook simulation, O(len(seq)·k): on a miss with a full cache it
// evicts the cached page whose next use is furthest ahead. The curve
// tests check OPTCurve against it at every size.
func OPTMisses(seq core.Sequence, k int) int64 {
	if k <= 0 {
		return int64(len(seq))
	}
	d := renumber(seq)
	next := d.nextRequests()
	cached := make([]int32, 0, k)
	due := make([]int, 0, k) // due[c] is cached[c]'s next request
	var misses int64
	for i, p := range d.ids {
		if c := slices.Index(cached, p); c >= 0 {
			due[c] = next[i]
			continue
		}
		misses++
		if len(cached) < k {
			cached, due = append(cached, p), append(due, next[i])
			continue
		}
		far := 0
		for c := range due {
			if due[c] > due[far] {
				far = c
			}
		}
		cached[far], due[far] = p, next[i]
	}
	return misses
}

// Partition is a static split of K cells over the cores, with the total
// fault count the per-core curves predict for it.
type Partition struct {
	Sizes  []int
	Faults int64
}

// Optimal finds the static partition minimizing the summed curve values:
// sizes[j] ∈ [min_j, K], Σ sizes[j] ≤ K, minimizing Σ curves[j][sizes[j]].
// active[j] forces size ≥ 1 for cores with requests (the paper's rule
// that every active core gets at least one cell). Curves shorter than K+1
// are treated as flat beyond their last point.
//
// Among the partitions of fewest faults it returns one of fewest cells,
// so no core gets more cells than its curve's flat point, where the
// curve stops changing. The search gives each core at most that many
// cells and spends at most min(K, Σ flat points) in all, so its work
// follows the curves' lengths, not K.
func Optimal(curves [][]int64, k int, active []bool) (Partition, error) {
	p := len(curves)
	if p == 0 {
		return Partition{}, fmt.Errorf("mattson: no cores")
	}
	if len(active) != p {
		return Partition{}, fmt.Errorf("mattson: active mask has %d entries for %d cores", len(active), p)
	}
	// flat[j] is the size past which core j's curve no longer changes
	// (at least 1 for an active core): more cells save it no fault.
	flat := make([]int, p)
	total := 0
	for j, c := range curves {
		if len(c) == 0 {
			return Partition{}, fmt.Errorf("mattson: core %d has an empty curve", j)
		}
		f := len(c) - 1
		for f > 0 && c[f-1] == c[f] {
			f--
		}
		if active[j] {
			f = max(f, 1)
		}
		flat[j] = f
		total += f
	}
	u := min(k, total)
	at := func(j, s int) int64 {
		c := curves[j]
		if s >= len(c) {
			s = len(c) - 1
		}
		return c[s]
	}
	const inf = int64(math.MaxInt64) / 4
	// dp[t] after processing j cores; choice[j][t] = size given to core j.
	dp := make([]int64, u+1)
	ndp := make([]int64, u+1)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	choice := make([][]int, p)
	for j := 0; j < p; j++ {
		for i := range ndp {
			ndp[i] = inf
		}
		choice[j] = make([]int, u+1)
		minS := 0
		if active[j] {
			minS = 1
		}
		for used := 0; used <= u; used++ {
			if dp[used] >= inf {
				continue
			}
			for s := minS; s <= flat[j] && used+s <= u; s++ {
				v := dp[used] + at(j, s)
				if v < ndp[used+s] {
					ndp[used+s] = v
					choice[j][used+s] = s
				}
			}
		}
		dp, ndp = ndp, dp
	}
	// Best over any total ≤ K; the first of equal fault counts has the
	// fewest cells.
	bestK, best := -1, inf
	for used := 0; used <= u; used++ {
		if dp[used] < best {
			best, bestK = dp[used], used
		}
	}
	if bestK < 0 {
		return Partition{}, fmt.Errorf("mattson: no feasible partition of K=%d over %d cores", k, p)
	}
	sizes := make([]int, p)
	for j := p - 1; j >= 0; j-- {
		s := choice[j][bestK]
		sizes[j] = s
		bestK -= s
	}
	return Partition{Sizes: sizes, Faults: best}, nil
}

// ActiveMask returns the per-core activity mask of a request set.
func ActiveMask(r core.RequestSet) []bool {
	m := make([]bool, len(r))
	for j, s := range r {
		m[j] = len(s) > 0
	}
	return m
}

// OptimalLRU computes the best static partition for per-part LRU on the
// request set — the paper's sP^OPT_LRU baseline (Lemma 2) — together with
// its predicted fault count (exact for disjoint request sets). Its curve
// passes stop with ctx's error once ctx is done.
func OptimalLRU(ctx context.Context, r core.RequestSet, k int) (Partition, error) {
	return optimal(ctx, r, k, dense.lruCurve)
}

// OptimalOPT computes the best static partition for per-part Belady
// eviction — the paper's sP^OPT_OPT baseline (Theorem 1) — with its
// predicted fault count (exact for disjoint request sets). Its curve
// passes stop with ctx's error once ctx is done.
func OptimalOPT(ctx context.Context, r core.RequestSet, k int) (Partition, error) {
	return optimal(ctx, r, k, dense.optCurve)
}

// optimal cuts each core's curve at min(k, its distinct pages). A cache
// that holds every distinct page misses only on first references, under
// LRU and under Belady alike, so the curves are flat past that size and
// Optimal reads a curve cut there as it reads the whole one.
func optimal(ctx context.Context, r core.RequestSet, k int, pass func(dense, context.Context, int) ([]int64, error)) (Partition, error) {
	curves := make([][]int64, len(r))
	for j, s := range r {
		d := renumber(s)
		c, err := pass(d, ctx, min(k, d.distinct))
		if err != nil {
			return Partition{}, err
		}
		curves[j] = c
	}
	return Optimal(curves, k, ActiveMask(r))
}
