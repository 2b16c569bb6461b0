package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"
)

// zipfSampler draws exactly the values rand.Zipf draws, from the same
// rng.Float64 calls, but pays rand.Zipf's one or two exp/log pairs per
// draw only on the few draws that land near a rank boundary.
//
// rand.Zipf is rejection-inversion (Hörmann and Derflinger): an attempt
// draws r, sets ur = hxm + r·hx0minusHxm and x = hinv(ur), rounds to the
// rank k = ⌊x + ½⌋, and accepts k outright when x ≥ k − s, otherwise
// only when ur ≥ T[k] = h(k + ½) − (k + v)^−q; a rejected attempt draws
// again. x falls as r rises, so the attempt's outcome is a step function
// of r that changes only where x crosses some k − ½ or k − s. The
// sampler cuts [0, 1) into intervals of r, found through a guide table,
// each with one of three labels:
//
//   - accept k: return k. A guide bucket that lies wholly inside one
//     accept interval is marked with its rank, so most draws end at the
//     guide entry without reading an interval's edges;
//   - conditional k: accept k iff hxm + r·hx0minusHxm ≥ T[k], with T[k]
//     cached from rand.Zipf's own expression;
//   - exact: run rand.Zipf's own arithmetic on this r (see exact).
//
// The exact intervals are a band of ±1e-6 in x around every threshold
// (merged where two bands overlap), the ranks beyond the tabulated
// prefix, and all of [0, 1) for a spec outside the well-conditioned
// region 1.01 ≤ s ≤ 64, v ≤ 1024. Inside that region, with imax < 65535
// and ε = 2^-53, hinv's float error is at most
//
//	ε·(3/|1−s| + 2·ln(v+imax+1) + 1)·(v+imax+1) ≤ 5e-9,
//
// 200× below the band, so outside the bands the computed x lies on the
// same side of every threshold as the exact x and an interval's label
// is the decision rand.Zipf takes. The upper bound on s keeps every h
// value a normal float, which the error bound assumes.
//
// The intervals and the guide depend only on the shape, not on the rng:
// they live in a zipfTable, built once per shape and shared read-only
// by every sampler of that shape (see zipfLast).
type zipfSampler struct {
	rng *rand.Rand
	zipfTable
}

// zipfTable is the read-only part of a sampler: rand.Zipf's fields and
// the interval and guide tables, which depend only on the shape.
type zipfTable struct {
	shape zipfShape

	// rand.Zipf's fields, computed by rand.NewZipf's expressions.
	imax         float64
	v            float64
	q            float64
	s            float64
	oneminusQ    float64
	oneminusQinv float64
	hxm          float64
	hx0minusHxm  float64

	// edge[i] ≤ r < edge[i+1] selects interval i; edge[len-1] is 1.
	// Interval 0 is exact: the ranks past the prefix. Rank k = top−m of
	// the prefix owns intervals 4m+1 … 4m+4, in order: accept k, the
	// band around k − s, conditional k, the band around k − ½.
	edge []float64
	t    []float64 // t[k] is T[k], the conditional intervals' bound
	top  int       // the prefix's last rank
	// guide[b] covers the draws b/len(guide) ≤ r < (b+1)/len(guide). A
	// bucket that lies wholly inside one rank's accept interval is
	// marked: zipfMarked | k, and a draw that lands there is rank k
	// without a look at edge. Any other bucket holds the last interval
	// starting at or before b/len(guide), where the walk along edge
	// starts.
	guide  []uint16
	gscale float64
}

// zipfShape is what a zipfTable depends on: the parameters
// newZipfSampler passes to init and the ranks it tabulates.
type zipfShape struct {
	q, v  float64
	imax  uint64
	ranks int
}

// zipfLast is the table of the last shape newZipfSampler built, so a
// run of Generate calls over one shape, such as a server's jobs over
// one workload shape with fresh seeds, builds the table once. A table
// is never written after it is stored, so concurrent calls share it
// without a lock; what a sampler draws never depends on whether its
// table came from here.
var zipfLast atomic.Pointer[zipfTable]

const (
	// zipfBand is the half-width, in x, of each exact band.
	zipfBand = 1e-6
	// zipfMaxRanks caps the tabulated prefix: its size is bounded by
	// 4·zipfMaxRanks+1 intervals, which a uint16 guide entry can index
	// below zipfMarked.
	zipfMaxRanks = 1024
	// zipfMarked flags a guide entry that holds a rank, not an interval.
	zipfMarked = 1 << 15
	// zipfGuidePer is the guide's size in buckets per interval, before
	// rounding up to a power of two. For 512 ranks at s 1.2 (a 32 KB
	// guide) 4 marks 95% of the buckets, against 87% for 1, 92% for 2
	// and 97% for 8; Generate timed alike from 2 to 8.
	zipfGuidePer = 4
)

// newZipfSampler returns a sampler that draws what rand.NewZipf(rng, q,
// v, imax) draws, tabulating at most ranks ranks. It fails when every
// attempt would compute the same rejected or out-of-range rank, where
// rand.Zipf would never return or would return a rank past imax. A call
// of the last shape built reuses its table; a call of another shape
// builds one and keeps it in its place.
func newZipfSampler(rng *rand.Rand, q, v float64, imax uint64, ranks int) (*zipfSampler, error) {
	if !(q >= 1.01 && q <= 64 && v <= 1024) {
		ranks = 0
	}
	shape := zipfShape{q: q, v: v, imax: imax, ranks: max(0, min(ranks, zipfMaxRanks, int(imax)+1))}
	if t := zipfLast.Load(); t != nil && t.shape == shape {
		return &zipfSampler{rng: rng, zipfTable: *t}, nil
	}
	t := &zipfTable{shape: shape}
	t.init(q, v, imax)
	if t.stuck() {
		return nil, t.unusable()
	}
	t.build(shape.ranks)
	zipfLast.Store(t)
	return &zipfSampler{rng: rng, zipfTable: *t}, nil
}

func (z *zipfTable) unusable() error {
	return fmt.Errorf("workload: zipf s=%v, v=%v is numerically unusable over %v pages", z.q, z.v, z.imax+1)
}

// init sets rand.Zipf's fields as rand.NewZipf does.
func (z *zipfTable) init(q, v float64, imax uint64) {
	z.imax = float64(imax)
	z.v = v
	z.q = q
	z.oneminusQ = 1.0 - z.q
	z.oneminusQinv = 1.0 / z.oneminusQ
	z.hxm = z.h(z.imax + 0.5)
	z.hx0minusHxm = z.h(0.5) - math.Exp(math.Log(z.v)*(-z.q)) - z.hxm
	z.s = 1 - z.hinv(z.h(1.5)-math.Exp(-z.q*math.Log(z.v+1.0)))
}

// stuck reports whether every attempt computes the same ur, because
// hx0minusHxm is 0 or one of the two is NaN, and so ends with the same
// rejection or the same out-of-range rank.
func (z *zipfTable) stuck() bool {
	if z.hx0minusHxm != 0 && !math.IsNaN(z.hx0minusHxm) && !math.IsNaN(z.hxm) {
		return false
	}
	k, ok := z.exact(0)
	return !ok || !z.inRange(k)
}

func (z *zipfTable) h(x float64) float64 {
	return math.Exp(z.oneminusQ*math.Log(z.v+x)) * z.oneminusQinv
}

func (z *zipfTable) hinv(x float64) float64 {
	return math.Exp(z.oneminusQinv*math.Log(z.oneminusQ*x)) - z.v
}

// exact runs one attempt of rand.Zipf.Uint64's loop, in its own
// arithmetic, on an r already drawn: the rank x rounds to, and whether
// the attempt accepts it.
func (z *zipfTable) exact(r float64) (k float64, accept bool) {
	ur := z.hxm + r*z.hx0minusHxm
	x := z.hinv(ur)
	k = math.Floor(x + 0.5)
	if k-x <= z.s {
		return k, true
	}
	if ur >= z.h(k+0.5)-math.Exp(-math.Log(k+z.v)*z.q) {
		return k, true
	}
	return k, false
}

// inRange reports whether an accepted rank is one rand.Zipf may return;
// NaN is not.
func (z *zipfTable) inRange(k float64) bool { return k >= 0 && k <= z.imax }

// next draws one rank. It returns false when the attempt accepts a rank
// outside [0, imax]: rand.Zipf would return it, and the caller would
// index past its permutation.
//
//mcpaging:hotpath
func (z *zipfSampler) next() (int, bool) {
	for {
		r := z.rng.Float64()
		g := z.guide[int(r*z.gscale)]
		if g&zipfMarked != 0 {
			return int(g &^ zipfMarked), true
		}
		i := int(g)
		for r >= z.edge[i+1] {
			i++
		}
		if m := i - 1; m >= 0 && m&1 == 0 {
			k := z.top - m>>2
			if m&2 == 0 || z.hxm+r*z.hx0minusHxm >= z.t[k] {
				return k, true
			}
			continue
		}
		k, ok := z.exact(r)
		if !ok {
			continue
		}
		if !z.inRange(k) {
			return 0, false
		}
		return int(k), true
	}
}

// build tabulates ranks 0 … ranks−1; with ranks 0 every draw is exact.
func (z *zipfTable) build(ranks int) {
	n := 4*ranks + 1
	z.top = ranks - 1
	z.edge = make([]float64, n+1)
	z.t = make([]float64, ranks)
	_, z.edge[1] = z.band(float64(ranks) - 0.5)
	for m := 0; m < ranks; m++ {
		k := float64(z.top - m)
		z.t[z.top-m] = z.h(k+0.5) - math.Exp(-math.Log(k+z.v)*z.q)
		// k − s, moved into the rank's own interval [k − ½, k + ½]: when
		// it falls outside, one label covers the whole rank.
		cut := math.Min(math.Max(k-z.s, k-0.5), k+0.5)
		z.edge[4*m+2], z.edge[4*m+3] = z.band(cut)
		z.edge[4*m+4], z.edge[4*m+5] = z.band(k - 0.5)
	}
	z.edge[n] = 1
	// Make the edges ascend within [0, 1]. Where two bands overlap, the
	// labeled interval between them shrinks to nothing, which merges
	// them; a band reaching past r = 1 ends there.
	for i := 1; i < n; i++ {
		if !(z.edge[i] >= z.edge[i-1]) {
			z.edge[i] = z.edge[i-1]
		}
		if !(z.edge[i] <= 1) {
			z.edge[i] = 1
		}
	}

	size := 1
	for size < zipfGuidePer*n {
		size *= 2
	}
	z.guide = make([]uint16, size)
	z.gscale = float64(size)
	i := 0
	for b := range z.guide {
		// The bucket's ends are exact: size is a power of two.
		lo, hi := float64(b)/z.gscale, float64(b+1)/z.gscale
		for i+1 < n && z.edge[i+1] <= lo {
			i++
		}
		if m := i - 1; m >= 0 && m&3 == 0 && hi <= z.edge[i+1] {
			z.guide[b] = zipfMarked | uint16(z.top-m>>2)
		} else {
			z.guide[b] = uint16(i)
		}
	}
}

// band returns the interval of r whose x lies within zipfBand of the
// threshold t, widened by 1% for the curvature of r(x) over the band.
// r(x) = (h(x) − hxm)/hx0minusHxm falls with slope (v + x)^−q/
// |hx0minusHxm|, and h(t)·(1 − q) is (v + t)^(1−q).
func (z *zipfTable) band(t float64) (lo, hi float64) {
	ht := z.h(t)
	mid := (ht - z.hxm) / z.hx0minusHxm
	w := 1.01 * zipfBand * ht * z.oneminusQ / ((z.v + t) * -z.hx0minusHxm)
	return mid - w, mid + w
}
