package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// matchRand draws n values from a sampler and from rand.NewZipf, each on
// its own rng seeded alike, and fails on the first difference. Both
// sides must also leave their rng in the same state. rand.Zipf returns
// ranks past imax for some inputs; the sampler must report exactly
// those as out of range, and the comparison stops there, as Generate
// does.
func matchRand(t testing.TB, q, v float64, imax uint64, ranks int, seed int64, n int) {
	t.Helper()
	ours := rand.New(rand.NewSource(seed))
	ref := rand.New(rand.NewSource(seed))
	want := rand.NewZipf(ref, q, v, imax)
	z, err := newZipfSampler(ours, q, v, imax, ranks)
	if err != nil {
		// Every attempt computes the same ur. If that attempt rejects,
		// rand.Zipf never returns and cannot be run; if it accepts, the
		// rank must be past imax.
		var c zipfSampler
		c.init(q, v, imax)
		if c.hx0minusHxm != 0 && !math.IsNaN(c.hx0minusHxm) && !math.IsNaN(c.hxm) {
			t.Fatalf("s=%v v=%v imax=%d: sampler refused a spec whose ur varies", q, v, imax)
		}
		if _, accept := c.exact(0); accept {
			if w := want.Uint64(); w <= imax {
				t.Fatalf("s=%v v=%v imax=%d: sampler refused, rand.Zipf drew %d", q, v, imax, w)
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		w := want.Uint64()
		got, ok := z.next()
		if !ok {
			if w <= imax {
				t.Fatalf("s=%v v=%v imax=%d seed=%d draw %d: sampler says out of range, rand.Zipf drew %d", q, v, imax, seed, i, w)
			}
			return
		}
		if uint64(got) != w {
			t.Fatalf("s=%v v=%v imax=%d seed=%d draw %d: got %d, rand.Zipf drew %d", q, v, imax, seed, i, got, w)
		}
	}
	if a, b := ours.Int63(), ref.Int63(); a != b {
		t.Fatalf("s=%v v=%v imax=%d seed=%d: rng states differ after %d draws", q, v, imax, seed, n)
	}
}

// TestZipfSamplerMatchesRand pins the sampler to rand.Zipf draw for draw
// over the well-conditioned region's corners and interior, the repo's
// own parameters, and specs outside the region, which run exact.
func TestZipfSamplerMatchesRand(t *testing.T) {
	const seeds, perSeed = 5, 200_000 // 10^6 draws per combination
	for _, imax := range []uint64{0, 1, 511, 65534} {
		for _, q := range []float64{1.01, 1.2, 1.3, 2.5, 50} {
			for _, v := range []float64{1, 3, 1024} {
				t.Run(fmt.Sprintf("imax=%d/s=%v/v=%v", imax, q, v), func(t *testing.T) {
					for seed := int64(1); seed <= seeds; seed++ {
						matchRand(t, q, v, imax, zipfMaxRanks, seed, perSeed)
					}
				})
			}
		}
	}
	// The parameters the repo's workloads, benchmarks and claims use.
	for _, q := range []float64{1.2, 1.3, 1.4} {
		t.Run(fmt.Sprintf("repo/s=%v", q), func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				matchRand(t, q, 1, 511, zipfMaxRanks, seed, 200_000)
			}
		})
	}
	// Outside the region: every draw runs exact.
	for _, c := range []struct {
		q, v float64
		imax uint64
	}{
		{1.005, 1, 511}, {1.0001, 3, 65534}, {1.2, 1025, 511}, {1.2, 1e6, 65534},
		{65, 1, 511}, {100, 2, 63}, {1 + 1e-9, 1, 511}, {1.3, 1e9, 1023},
	} {
		t.Run(fmt.Sprintf("exact/s=%v/v=%v/imax=%d", c.q, c.v, c.imax), func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				matchRand(t, c.q, c.v, c.imax, zipfMaxRanks, seed, 100_000)
			}
		})
	}
	// Every prefix size Generate may pick, down to none.
	for _, ranks := range []int{0, 1, 2, 4, 128, 1023} {
		matchRand(t, 1.2, 1, 4095, ranks, int64(ranks), 200_000)
	}
}

// TestZipfTableEdges checks both ends of every tabulated interval and
// of every guide bucket marked with a rank: the label there must be the
// decision rand.Zipf's arithmetic takes.
func TestZipfTableEdges(t *testing.T) {
	for _, imax := range []uint64{0, 1, 63, 511, 65534} {
		for _, q := range []float64{1.01, 1.2, 1.3, 2.5, 50, 64} {
			for _, v := range []float64{1, 3, 1024} {
				z, err := newZipfSampler(nil, q, v, imax, zipfMaxRanks)
				if err != nil {
					t.Fatal(err)
				}
				if want := min(int(imax)+1, zipfMaxRanks); z.top+1 != want {
					t.Fatalf("s=%v v=%v imax=%d: %d ranks tabulated, want %d", q, v, imax, z.top+1, want)
				}
				n := len(z.edge) - 1
				labeled := 0
				for i := 1; i < n; i += 2 {
					lo, hi := z.edge[i], z.edge[i+1]
					if lo >= hi {
						continue
					}
					labeled++
					m := i - 1
					k := z.top - m>>2
					for _, r := range []float64{lo, math.Nextafter(hi, 0)} {
						got, accept := k, true
						if m&2 != 0 {
							accept = z.hxm+r*z.hx0minusHxm >= z.t[k]
						}
						wk, waccept := z.exact(r)
						if float64(got) != wk || accept != waccept {
							t.Fatalf("s=%v v=%v imax=%d interval %d at r=%v: table says rank %d accept=%v, rand.Zipf's arithmetic %v accept=%v",
								q, v, imax, i, r, got, accept, wk, waccept)
						}
					}
				}
				if labeled == 0 {
					t.Fatalf("s=%v v=%v imax=%d: no labeled interval", q, v, imax)
				}
				checkMarkedBuckets(t, z)
			}
		}
	}
}

// checkMarkedBuckets checks both ends of every guide bucket marked with
// a rank: the bucket must lie inside that rank's accept interval, and
// rand.Zipf's arithmetic must accept the rank there.
func checkMarkedBuckets(t *testing.T, z *zipfSampler) {
	t.Helper()
	for b, g := range z.guide {
		if g&zipfMarked == 0 {
			continue
		}
		k := int(g &^ zipfMarked)
		if k < 0 || k > z.top {
			t.Fatalf("s=%v v=%v imax=%v bucket %d: marked with rank %d outside the prefix 0…%d", z.q, z.v, z.imax, b, k, z.top)
		}
		i := 4*(z.top-k) + 1 // rank k's accept interval
		lo, hi := float64(b)/z.gscale, float64(b+1)/z.gscale
		if lo < z.edge[i] || hi > z.edge[i+1] {
			t.Fatalf("s=%v v=%v imax=%v bucket %d [%v, %v): marked rank %d, whose accept interval is [%v, %v)",
				z.q, z.v, z.imax, b, lo, hi, k, z.edge[i], z.edge[i+1])
		}
		for _, r := range []float64{lo, math.Nextafter(hi, 0)} {
			if wk, accept := z.exact(r); wk != float64(k) || !accept {
				t.Fatalf("s=%v v=%v imax=%v bucket %d at r=%v: marked rank %d, rand.Zipf's arithmetic %v accept=%v",
					z.q, z.v, z.imax, b, r, k, wk, accept)
			}
		}
	}
}

// TestZipfTableMemo: Generate of shape A, then B, then A again, through
// the kept table, draws what three calls that each build their own
// table draw, and a call of the kept shape builds nothing.
func TestZipfTableMemo(t *testing.T) {
	a := Spec{Cores: 3, Length: 4000, Pages: 300, Kind: Zipf, Seed: 1}
	b := a
	b.ZipfS, b.Seed = 1.4, 2
	gen := func(s Spec) string {
		t.Helper()
		rs, err := Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		return digest(rs)
	}
	order := []Spec{a, b, a}
	fresh := make([]string, len(order))
	for i, s := range order {
		zipfLast.Store(nil)
		fresh[i] = gen(s)
	}
	zipfLast.Store(nil)
	for i, s := range order {
		if got := gen(s); got != fresh[i] {
			t.Fatalf("call %d (s=%v): through the kept table %s, fresh %s", i, s.ZipfS, got, fresh[i])
		}
	}
	kept := zipfLast.Load()
	a.Seed = 9
	gen(a)
	if zipfLast.Load() != kept {
		t.Fatal("a call of the kept shape built a new table")
	}
}

// TestZipfTableConcurrent generates two shapes from several goroutines
// at once, so calls replace and read the kept table concurrently; each
// must match its serial output. Run it under -race.
func TestZipfTableConcurrent(t *testing.T) {
	specs := []Spec{
		{Cores: 2, Length: 3000, Pages: 512, Kind: Zipf, Seed: 3},
		{Cores: 2, Length: 3000, Pages: 200, Kind: Zipf, ZipfS: 1.3, Seed: 4},
	}
	want := make([]string, len(specs))
	for i, s := range specs {
		rs, err := Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = digest(rs)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				c := (g + i) % len(specs)
				rs, err := Generate(specs[c])
				if err != nil {
					t.Error(err)
					return
				}
				if got := digest(rs); got != want[c] {
					t.Errorf("goroutine %d call %d: shape %d drew %s, serially %s", g, i, c, got, want[c])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestGenerateRejectsUnusableZipf: the first four specs made Generate
// panic with an index out of range (rand.Zipf returned a rank past the
// page range, or a negative one); the rest made it loop forever.
func TestGenerateRejectsUnusableZipf(t *testing.T) {
	inf := math.Inf(1)
	for _, c := range []struct{ s, v float64 }{
		{0, 1e15}, {0, 1e20}, {0, 1e300}, {1 + 1e-15, 1e6},
		{1.2, 1.7e308}, {1.2, math.NaN()}, {math.NaN(), 1}, {inf, 1}, {1.2, inf},
	} {
		spec := Spec{Cores: 4, Length: 1000, Pages: 512, Kind: Zipf, ZipfS: c.s, ZipfV: c.v, Seed: 1}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("s=%v v=%v: Generate panicked: %v", c.s, c.v, p)
				}
			}()
			if _, err := Generate(spec); err == nil {
				t.Fatalf("s=%v v=%v: Generate accepted numerically unusable parameters", c.s, c.v)
			}
		}()
	}
}

// FuzzZipfMatchesRand compares the sampler with rand.NewZipf on fuzzed
// parameters on both sides of the well-conditioned region's boundary,
// twice per shape: once building the table, once through the kept one.
func FuzzZipfMatchesRand(f *testing.F) {
	f.Add(1.2, 1.0, uint16(511), int64(1))
	f.Add(1.01, 1024.0, uint16(65534), int64(2))
	f.Add(1.0099, 1024.0, uint16(1000), int64(3))
	f.Add(1.01, 1024.5, uint16(1000), int64(4))
	f.Add(64.0, 1.0, uint16(3), int64(5))
	f.Add(64.5, 1.0, uint16(3), int64(6))
	f.Add(2.5, 3.0, uint16(0), int64(7))
	f.Fuzz(func(t *testing.T, q, v float64, imax uint16, seed int64) {
		// rand.Zipf's own domain, kept to parameters where it returns
		// (out-of-range ranks included) in a bounded number of attempts.
		if !(q > 1 && q <= 100 && v >= 1 && v <= 1e6) {
			t.Skip()
		}
		// The first draw builds the shape's table; the second runs
		// through the table the first kept.
		zipfLast.Store(nil)
		matchRand(t, q, v, uint64(min(imax, 65534)), zipfMaxRanks, seed, 2000)
		kept := zipfLast.Load()
		matchRand(t, q, v, uint64(min(imax, 65534)), zipfMaxRanks, seed+1, 2000)
		if kept != nil && zipfLast.Load() != kept {
			t.Fatalf("s=%v v=%v imax=%d: the second sampler built its own table", q, v, imax)
		}
	})
}
