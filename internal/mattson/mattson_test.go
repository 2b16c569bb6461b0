package mattson_test

import (
	"math/rand"
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
		part, err := mattson.OptimalLRU(rs, k)
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
	lruPart, err := mattson.OptimalLRU(rs, 8)
	if err != nil {
		t.Fatal(err)
	}
	optPart, err := mattson.OptimalOPT(rs, 8)
	if err != nil {
		t.Fatal(err)
	}
	if optPart.Faults > lruPart.Faults {
		t.Fatalf("sP_OPT(OPT) = %d > sP_OPT(LRU) = %d", optPart.Faults, lruPart.Faults)
	}
}

// TestOPTCurveParallelMatchesSerial checks the fanned-out curve against
// one OPTMisses call per size.
func TestOPTCurveParallelMatchesSerial(t *testing.T) {
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
