package mattson_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/mattson"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
)

func lru() cache.Factory { return func() cache.Policy { return cache.NewLRU() } }

func randSeq(rng *rand.Rand, n, w int) core.Sequence {
	s := make(core.Sequence, n)
	for i := range s {
		s[i] = core.PageID(rng.Intn(w))
	}
	return s
}

// simLRUMisses counts misses of a plain sequential LRU of size k via the
// multicore simulator with p=1.
func simLRUMisses(t *testing.T, seq core.Sequence, k int) int64 {
	t.Helper()
	in := core.Instance{R: core.RequestSet{seq}, P: core.Params{K: k, Tau: 0}}
	res, err := sim.Run(in, policy.NewShared(lru()), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.Faults[0]
}

func TestLRUCurveMatchesSimulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		seq := randSeq(rng, 100+rng.Intn(100), 2+rng.Intn(10))
		kmax := 8
		curve := mattson.LRUCurve(seq, kmax)
		for k := 1; k <= kmax; k++ {
			if got := simLRUMisses(t, seq, k); got != curve[k] {
				t.Fatalf("trial %d k=%d: curve %d, simulation %d", trial, k, curve[k], got)
			}
		}
	}
}

func TestLRUCurveBasics(t *testing.T) {
	seq := core.Sequence{1, 2, 3, 1, 2, 3}
	curve := mattson.LRUCurve(seq, 4)
	if curve[0] != 6 {
		t.Errorf("curve[0] = %d, want 6", curve[0])
	}
	// K=3: only 3 cold misses. K=2: LRU thrashes, 6 misses.
	if curve[3] != 3 || curve[4] != 3 {
		t.Errorf("curve[3,4] = %d,%d, want 3,3", curve[3], curve[4])
	}
	if curve[2] != 6 {
		t.Errorf("curve[2] = %d, want 6 (cyclic thrash)", curve[2])
	}
}

func TestLRUCurveMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randSeq(rng, 150, 12)
		curve := mattson.LRUCurve(seq, 10)
		for k := 1; k < len(curve); k++ {
			if curve[k] > curve[k-1] {
				return false // LRU is a stack algorithm: no Belady anomaly
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestLRUCurveEmpty(t *testing.T) {
	curve := mattson.LRUCurve(core.Sequence{}, 3)
	for k, v := range curve {
		if v != 0 {
			t.Fatalf("curve[%d] = %d for empty sequence", k, v)
		}
	}
}

// bruteOPT computes the true minimum misses for a single sequence and
// cache size k by exhaustive search over eviction choices.
func bruteOPT(seq core.Sequence, k int) int64 {
	var rec func(i int, cache []core.PageID) int64
	rec = func(i int, cc []core.PageID) int64 {
		if i == len(seq) {
			return 0
		}
		p := seq[i]
		for _, q := range cc {
			if q == p {
				return rec(i+1, cc)
			}
		}
		if len(cc) < k {
			nc := append(append([]core.PageID{}, cc...), p)
			return 1 + rec(i+1, nc)
		}
		best := int64(1 << 60)
		for vi := range cc {
			nc := append([]core.PageID{}, cc...)
			nc[vi] = p
			if v := 1 + rec(i+1, nc); v < best {
				best = v
			}
		}
		return best
	}
	return rec(0, nil)
}

func TestOPTMissesMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		seq := randSeq(rng, 8+rng.Intn(5), 4)
		k := 2 + rng.Intn(2)
		got := mattson.OPTMisses(seq, k)
		want := bruteOPT(seq, k)
		if got != want {
			t.Fatalf("trial %d seq=%v k=%d: OPTMisses=%d brute=%d", trial, seq, k, got, want)
		}
	}
}

func TestOPTNeverWorseThanLRU(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randSeq(rng, 200, 10)
		for k := 1; k <= 6; k++ {
			if mattson.OPTMisses(seq, k) > mattson.LRUCurve(seq, k)[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOPTCurveMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	seq := randSeq(rng, 300, 15)
	curve := mattson.OPTCurve(seq, 12)
	for k := 1; k < len(curve); k++ {
		if curve[k] > curve[k-1] {
			t.Fatalf("OPT curve not monotone at k=%d: %v", k, curve)
		}
	}
	if curve[0] != 300 {
		t.Fatalf("curve[0] = %d, want n", curve[0])
	}
}

// exhaustivePartition enumerates every partition to verify the DP.
func exhaustivePartition(curves [][]int64, k int, active []bool) int64 {
	p := len(curves)
	at := func(j, s int) int64 {
		c := curves[j]
		if s >= len(c) {
			s = len(c) - 1
		}
		return c[s]
	}
	best := int64(1 << 60)
	var rec func(j, left int, sum int64)
	rec = func(j, left int, sum int64) {
		if j == p {
			if sum < best {
				best = sum
			}
			return
		}
		minS := 0
		if active[j] {
			minS = 1
		}
		for s := minS; s <= left; s++ {
			rec(j+1, left-s, sum+at(j, s))
		}
	}
	rec(0, k, 0)
	return best
}

func TestOptimalMatchesExhaustive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(3)
		k := p + rng.Intn(5)
		curves := make([][]int64, p)
		active := make([]bool, p)
		for j := range curves {
			c := make([]int64, k+1)
			c[0] = int64(50 + rng.Intn(50))
			for s := 1; s <= k; s++ {
				c[s] = c[s-1] - int64(rng.Intn(10))
				if c[s] < 0 {
					c[s] = 0
				}
			}
			curves[j] = c
			active[j] = true
		}
		part, err := mattson.Optimal(curves, k, active)
		if err != nil {
			return false
		}
		// Feasibility.
		total := 0
		for j, s := range part.Sizes {
			if active[j] && s < 1 {
				return false
			}
			total += s
		}
		if total > k {
			return false
		}
		// Optimality and self-consistency.
		var sum int64
		for j, s := range part.Sizes {
			sum += curves[j][s]
		}
		return sum == part.Faults && part.Faults == exhaustivePartition(curves, k, active)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// referenceOptimal is Optimal before its search was bounded by the
// curves' flat points: every total up to K, and every size up to K for
// each core, with sizes kept in int16, which wraps past 32 767 cells.
func referenceOptimal(curves [][]int64, k int, active []bool) (mattson.Partition, error) {
	p := len(curves)
	if p == 0 {
		return mattson.Partition{}, fmt.Errorf("mattson: no cores")
	}
	if len(active) != p {
		return mattson.Partition{}, fmt.Errorf("mattson: active mask has %d entries for %d cores", len(active), p)
	}
	at := func(j, s int) int64 {
		c := curves[j]
		if s >= len(c) {
			s = len(c) - 1
		}
		return c[s]
	}
	const inf = int64(math.MaxInt64) / 4
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
	bestK, best := -1, inf
	for used := 0; used <= k; used++ {
		if dp[used] < best {
			best, bestK = dp[used], used
		}
	}
	if bestK < 0 {
		return mattson.Partition{}, fmt.Errorf("mattson: no feasible partition of K=%d over %d cores", k, p)
	}
	sizes := make([]int, p)
	for j := p - 1; j >= 0; j-- {
		s := int(choice[j][bestK])
		sizes[j] = s
		bestK -= s
	}
	return mattson.Partition{Sizes: sizes, Faults: best}, nil
}

// randCurve returns a curve of 1 to 12 points, mostly falling, with
// plateaus, a flat tail at times and, now and then, a rise.
func randCurve(rng *rand.Rand) []int64 {
	c := make([]int64, 1+rng.Intn(12))
	v := int64(rng.Intn(40))
	for i := range c {
		c[i] = v
		switch rng.Intn(4) {
		case 0, 1:
			v = max(0, v-int64(rng.Intn(6)))
		case 2:
			if rng.Intn(3) == 0 {
				v += int64(rng.Intn(3))
			}
		}
	}
	return c
}

// TestOptimalMatchesUnboundedReference: on random small instances, K
// below and above the curves' lengths, infeasible ones included, the
// bounded search returns the reference's partition, ties broken alike.
func TestOptimalMatchesUnboundedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 4000; trial++ {
		p := 1 + rng.Intn(4)
		curves := make([][]int64, p)
		active := make([]bool, p)
		for j := range curves {
			curves[j] = randCurve(rng)
			active[j] = rng.Intn(4) != 0
		}
		k := rng.Intn(40)
		want, werr := referenceOptimal(curves, k, active)
		got, gerr := mattson.Optimal(curves, k, active)
		if (werr != nil) != (gerr != nil) || (werr != nil && werr.Error() != gerr.Error()) {
			t.Fatalf("trial %d %v K=%d active=%v: error %v, reference %v", trial, curves, k, active, gerr, werr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d %v K=%d active=%v: %+v, reference %+v", trial, curves, k, active, got, want)
		}
	}
}

// TestOptimalFromCurvesCutAtDistinctPages: OptimalLRU and OptimalOPT
// cut each core's curve at its distinct-page count and return the
// partition the reference finds over the whole curves to K.
func TestOptimalFromCurvesCutAtDistinctPages(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 200; trial++ {
		rs := make(core.RequestSet, 1+rng.Intn(3))
		for j := range rs {
			rs[j] = randSeq(rng, rng.Intn(25), 1+rng.Intn(8))
		}
		k := len(rs) + rng.Intn(20)
		for _, c := range []struct {
			name    string
			curve   func(core.Sequence, int) []int64
			optimal func(context.Context, core.RequestSet, int) (mattson.Partition, error)
		}{
			{"LRU", mattson.LRUCurve, mattson.OptimalLRU},
			{"OPT", mattson.OPTCurve, mattson.OptimalOPT},
		} {
			curves := make([][]int64, len(rs))
			for j, seq := range rs {
				curves[j] = c.curve(seq, k)
			}
			want, werr := referenceOptimal(curves, k, mattson.ActiveMask(rs))
			got, gerr := c.optimal(context.Background(), rs, k)
			if werr != nil || gerr != nil {
				t.Fatalf("trial %d %s: %v, reference %v", trial, c.name, gerr, werr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %s %v K=%d: %+v, reference %+v", trial, c.name, rs, k, got, want)
			}
		}
	}
}

// TestOptimalSizesPastInt16: a part above 32 767 cells. Sizes were kept
// in int16, so this partition came back as [-25536 1] with no error.
func TestOptimalSizesPastInt16(t *testing.T) {
	const flatFrom = 40000
	big := make([]int64, flatFrom+2)
	for s := range big {
		big[s] = int64(max(flatFrom-s, 0))
	}
	part, err := mattson.Optimal([][]int64{big, {2, 1}}, flatFrom+1, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{flatFrom, 1}; !reflect.DeepEqual(part.Sizes, want) || part.Faults != 1 {
		t.Fatalf("partition %+v, want sizes %v with 1 fault", part, want)
	}
}

// TestOptimalWorkFollowsTheTrace: over a 2-core, 11-request trace the
// search's work and memory follow the trace's distinct pages, so K of
// 2^23 (mcservd's default request ceiling) gives K 2 000's partition
// at once. The search to K took O(p·K²) time and O(p·K) memory.
func TestOptimalWorkFollowsTheTrace(t *testing.T) {
	rs := core.RequestSet{{1, 2, 3, 1, 2, 4}, {10, 11, 10, 12, 11}}
	for _, optimal := range []func(context.Context, core.RequestSet, int) (mattson.Partition, error){mattson.OptimalLRU, mattson.OptimalOPT} {
		small, err := optimal(context.Background(), rs, 2000)
		if err != nil {
			t.Fatal(err)
		}
		huge, err := optimal(context.Background(), rs, 1<<23)
		if err != nil {
			t.Fatal(err)
		}
		// 7 faults: the trace's distinct pages, each missed once.
		if !reflect.DeepEqual(small, huge) || small.Faults != 7 {
			t.Fatalf("K 2000: %+v; K 2^23: %+v; want the same partition, with 7 faults", small, huge)
		}
	}
}

func TestOptimalInfeasible(t *testing.T) {
	// 3 active cores but only 2 cells: no valid partition.
	curves := [][]int64{{5, 1}, {5, 1}, {5, 1}}
	if _, err := mattson.Optimal(curves, 2, []bool{true, true, true}); err == nil {
		t.Fatal("expected infeasibility error")
	}
}

// TestOptimalLRUPredictionExact: the DP's predicted fault count equals
// the simulated fault count of the corresponding static partition
// strategy on disjoint request sets, for any τ.
func TestOptimalLRUPredictionExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 2 + rng.Intn(2)
		rs := make(core.RequestSet, p)
		for j := range rs {
			rs[j] = core.Sequence{}
			for i := 0; i < 30+rng.Intn(40); i++ {
				rs[j] = append(rs[j], core.PageID(j*100+rng.Intn(6)))
			}
		}
		k := p + rng.Intn(6)
		part, err := mattson.OptimalLRU(context.Background(), rs, k)
		if err != nil {
			return false
		}
		in := core.Instance{R: rs, P: core.Params{K: k, Tau: rng.Intn(3)}}
		res, err := sim.Run(in, policy.NewStatic(part.Sizes, lru()), nil)
		if err != nil {
			return false
		}
		return res.TotalFaults() == part.Faults
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimalOPTBeatsOptimalLRU: per-part Belady can only improve on
// per-part LRU at the optimal partition of either.
func TestOptimalOPTBeatsOptimalLRU(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	rs := core.RequestSet{
		randSeq(rng, 200, 8),
		func() core.Sequence {
			s := randSeq(rng, 200, 8)
			for i := range s {
				s[i] += 100
			}
			return s
		}(),
	}
	lruPart, err := mattson.OptimalLRU(context.Background(), rs, 8)
	if err != nil {
		t.Fatal(err)
	}
	optPart, err := mattson.OptimalOPT(context.Background(), rs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if optPart.Faults > lruPart.Faults {
		t.Fatalf("sP_OPT(OPT) = %d > sP_OPT(LRU) = %d", optPart.Faults, lruPart.Faults)
	}
}

// TestOPTCurveMatchesOPTMisses checks the one-pass curve against one
// OPTMisses simulation per size.
func TestOPTCurveMatchesOPTMisses(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	seq := randSeq(rng, 500, 20)
	curve := mattson.OPTCurve(seq, 16)
	if len(curve) != 17 {
		t.Fatalf("curve has %d points, want 17", len(curve))
	}
	for k, got := range curve {
		if want := mattson.OPTMisses(seq, k); got != want {
			t.Errorf("k=%d: OPTCurve %d, OPTMisses %d", k, got, want)
		}
	}
}

// TestOptimalStopsWithTheContext: a cancelled context stops both curve
// passes with its error, before any partition is found.
func TestOptimalStopsWithTheContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rs := core.RequestSet{{1, 2, 3, 1, 2}, {4, 5, 4}}
	for _, optimal := range []func(context.Context, core.RequestSet, int) (mattson.Partition, error){mattson.OptimalLRU, mattson.OptimalOPT} {
		if _, err := optimal(ctx, rs, 4); !errors.Is(err, context.Canceled) {
			t.Fatalf("error %v, want context.Canceled", err)
		}
	}
}

// FuzzMissCurves checks both one-pass curves at every size up to kmax:
// the OPT curve against one OPTMisses simulation per size, and the LRU
// curve against the engine's sequential LRU.
func FuzzMissCurves(f *testing.F) {
	f.Add([]byte{1, 2, 3, 1, 2, 3, 4, 1, 2}, uint8(5))
	f.Add([]byte{0, 0, 1, 0, 2, 9, 1}, uint8(0))
	f.Add([]byte{5, 4, 3, 2, 1, 5, 4, 3, 2, 1, 6}, uint8(12))
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 0, 2, 4, 6, 1, 3, 5, 0, 6, 5, 4}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, kb uint8) {
		if len(raw) > 64 {
			raw = raw[:64]
		}
		seq := make(core.Sequence, len(raw))
		for i, b := range raw {
			seq[i] = core.PageID(b % 16)
		}
		kmax := int(kb % 20)
		opt, lru := mattson.OPTCurve(seq, kmax), mattson.LRUCurve(seq, kmax)
		if len(opt) != kmax+1 || len(lru) != kmax+1 {
			t.Fatalf("kmax %d: curves of %d and %d points", kmax, len(opt), len(lru))
		}
		for k := 0; k <= kmax; k++ {
			if want := mattson.OPTMisses(seq, k); opt[k] != want {
				t.Fatalf("%v k=%d: OPTCurve %d, OPTMisses %d", seq, k, opt[k], want)
			}
			want := int64(len(seq))
			if k > 0 {
				want = simLRUMisses(t, seq, k)
			}
			if lru[k] != want {
				t.Fatalf("%v k=%d: LRUCurve %d, simulated LRU %d", seq, k, lru[k], want)
			}
		}
	})
}
