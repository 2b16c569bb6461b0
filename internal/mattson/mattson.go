// Package mattson computes per-core miss curves and optimal static cache
// partitions.
//
// For a single core, the number of LRU misses as a function of cache size
// is obtained in one pass with Mattson's stack algorithm (Mattson et al.,
// IBM Systems Journal 1970): the LRU stack distance of each access is the
// depth of the page in the recency stack, and an access misses in a cache
// of size k exactly when its stack distance exceeds k. The OPT (Belady)
// miss curve is obtained by direct simulation per size.
//
// Because a fault only delays the faulting core's own sequence, the
// per-core fault count of a *static partition* strategy is independent of
// τ and of the other cores. Summing per-core curve points therefore
// predicts the exact fault count of sP^B_A for the corresponding per-part
// policy, and the best static partition (the paper's sP^OPT baselines in
// Lemma 2 and Theorem 1) is found by dynamic programming over the curves.
package mattson

import (
	"container/heap"
	"fmt"
	"math"

	"mcpaging/internal/core"
	"mcpaging/internal/par"
)

// LRUCurve returns the LRU miss counts for cache sizes 0..kmax for one
// sequence: curve[k] is the number of misses with a dedicated LRU cache
// of k pages. curve[0] is defined as len(seq).
func LRUCurve(seq core.Sequence, kmax int) []int64 {
	curve := make([]int64, kmax+1)
	if kmax < 0 {
		return nil
	}
	// Recency stack, most recent first. Depth search is O(depth), giving
	// O(n·w) worst case, which is fine at library scales; distances
	// beyond kmax can stop early since all such accesses miss at every
	// size ≤ kmax anyway — but we still need exact distances ≤ kmax.
	stack := make([]core.PageID, 0, kmax+1)
	histo := make([]int64, kmax+2) // histo[d] = accesses at distance d (1-based); [kmax+1] = deeper or cold
	pos := make(map[core.PageID]int)
	for _, p := range seq {
		if i, ok := pos[p]; ok {
			d := i + 1
			if d > kmax {
				histo[kmax+1]++
			} else {
				histo[d]++
			}
			// Move to front.
			copy(stack[1:i+1], stack[:i])
			stack[0] = p
			for j := 0; j <= i; j++ {
				pos[stack[j]] = j
			}
		} else {
			histo[kmax+1]++ // cold miss at every size
			stack = append(stack, core.NoPage)
			copy(stack[1:], stack[:len(stack)-1])
			stack[0] = p
			for j := range stack {
				pos[stack[j]] = j
			}
		}
	}
	// misses(k) = # accesses with distance > k.
	var beyond int64 = histo[kmax+1]
	for k := kmax; k >= 0; k-- {
		curve[k] = beyond
		if k >= 1 {
			beyond += histo[k]
		}
	}
	curve[0] = int64(len(seq))
	return curve
}

// optHeapItem is a lazy max-heap entry for the Belady simulation.
type optHeapItem struct {
	next int64 // next-use index (math.MaxInt64 = never)
	page core.PageID
}

type optHeap []optHeapItem

func (h optHeap) Len() int { return len(h) }
func (h optHeap) Less(i, j int) bool {
	if h[i].next != h[j].next {
		return h[i].next > h[j].next // max-heap on next use
	}
	return h[i].page < h[j].page
}
func (h optHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *optHeap) Push(x interface{}) { *h = append(*h, x.(optHeapItem)) }
func (h *optHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// OPTMisses returns the number of misses of Belady's optimal algorithm on
// one sequence with a dedicated cache of k pages. For a single sequence
// (no cross-core alignment effects) Belady is optimal for any τ.
func OPTMisses(seq core.Sequence, k int) int64 {
	if k <= 0 {
		return int64(len(seq))
	}
	n := len(seq)
	// next[i] = next index of the same page after i, or MaxInt64.
	next := make([]int64, n)
	last := make(map[core.PageID]int)
	for i := n - 1; i >= 0; i-- {
		if j, ok := last[seq[i]]; ok {
			next[i] = int64(j)
		} else {
			next[i] = math.MaxInt64
		}
		last[seq[i]] = i
	}
	inCache := make(map[core.PageID]bool)
	curNext := make(map[core.PageID]int64)
	h := &optHeap{}
	var misses int64
	for i, p := range seq {
		if inCache[p] {
			curNext[p] = next[i]
			heap.Push(h, optHeapItem{next: next[i], page: p})
			continue
		}
		misses++
		if len(inCache) >= k {
			// Pop lazily until a live entry surfaces.
			for {
				it := heap.Pop(h).(optHeapItem)
				if inCache[it.page] && curNext[it.page] == it.next {
					delete(inCache, it.page)
					delete(curNext, it.page)
					break
				}
			}
		}
		inCache[p] = true
		curNext[p] = next[i]
		heap.Push(h, optHeapItem{next: next[i], page: p})
	}
	return misses
}

// OPTCurve returns Belady miss counts for sizes 0..kmax. Each size is an
// independent simulation, so the sizes run on up to GOMAXPROCS
// goroutines: the OPT curve is the most expensive step of sP^OPT_OPT
// baselines on long traces. BenchmarkAblationOPTCurve (bench_test.go at
// the module root) compares it with a serial loop over OPTMisses.
func OPTCurve(seq core.Sequence, kmax int) []int64 {
	curve := make([]int64, kmax+1)
	par.For(len(curve), 0, func() func(int) {
		return func(k int) { curve[k] = OPTMisses(seq, k) }
	})
	return curve
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
func Optimal(curves [][]int64, k int, active []bool) (Partition, error) {
	p := len(curves)
	if p == 0 {
		return Partition{}, fmt.Errorf("mattson: no cores")
	}
	if len(active) != p {
		return Partition{}, fmt.Errorf("mattson: active mask has %d entries for %d cores", len(active), p)
	}
	at := func(j, s int) int64 {
		c := curves[j]
		if s >= len(c) {
			s = len(c) - 1
		}
		return c[s]
	}
	const inf = int64(math.MaxInt64) / 4
	// dp[k'] after processing j cores; choice[j][k'] = size given to core j.
	dp := make([]int64, k+1)
	for i := range dp {
		dp[i] = inf
	}
	dp[0] = 0
	choice := make([][]int16, p)
	for j := 0; j < p; j++ {
		ndp := make([]int64, k+1)
		for i := range ndp {
			ndp[i] = inf
		}
		choice[j] = make([]int16, k+1)
		minS := 0
		if active[j] {
			minS = 1
		}
		for used := 0; used <= k; used++ {
			if dp[used] >= inf {
				continue
			}
			for s := minS; used+s <= k; s++ {
				v := dp[used] + at(j, s)
				if v < ndp[used+s] {
					ndp[used+s] = v
					choice[j][used+s] = int16(s)
				}
			}
		}
		dp = ndp
	}
	// Best over any total ≤ K (extra cells never hurt but curves are
	// non-increasing, so the optimum uses them; still, scan all).
	bestK, best := -1, inf
	for used := 0; used <= k; used++ {
		if dp[used] < best {
			best, bestK = dp[used], used
		}
	}
	if bestK < 0 {
		return Partition{}, fmt.Errorf("mattson: no feasible partition of K=%d over %d cores", k, p)
	}
	sizes := make([]int, p)
	for j := p - 1; j >= 0; j-- {
		s := int(choice[j][bestK])
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
// its predicted fault count (exact for disjoint request sets).
func OptimalLRU(r core.RequestSet, k int) (Partition, error) {
	curves := make([][]int64, len(r))
	for j, s := range r {
		curves[j] = LRUCurve(s, k)
	}
	return Optimal(curves, k, ActiveMask(r))
}

// OptimalOPT computes the best static partition for per-part Belady
// eviction — the paper's sP^OPT_OPT baseline (Theorem 1) — with its
// predicted fault count (exact for disjoint request sets).
func OptimalOPT(r core.RequestSet, k int) (Partition, error) {
	curves := make([][]int64, len(r))
	for j, s := range r {
		curves[j] = OPTCurve(s, k)
	}
	return Optimal(curves, k, ActiveMask(r))
}
