package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
	"mcpaging/internal/workload"
)

func fitf() cache.Factory { return func() cache.Policy { return cache.NewFITF() } }

// diffStrategies builds the strategy set exercised by the differential
// tests: one recency-based shared strategy, one static partition, the
// oracle-driven FITF (which stresses NextUse and the ID-visibility
// contract — its tie-break compares page IDs), and TinyLFU, whose
// sketch hashes each page's original ID through View.Original.
func diffStrategies(k, p int) []func() sim.Strategy {
	return []func() sim.Strategy{
		func() sim.Strategy { return policy.NewShared(lru()) },
		func() sim.Strategy { return policy.NewStatic(policy.EvenSizes(k, p), lru()) },
		func() sim.Strategy { return policy.NewShared(fitf()) },
		func() sim.Strategy { return policy.NewShared(func() cache.Policy { return cache.NewTinyLFU() }) },
	}
}

// randomInstance generates instance i of the differential corpus. The
// corpus mixes core counts 1..3, disjoint and shared page pools, τ∈0..5,
// and — every third instance — huge sparse page IDs that force the
// renumbering path of the dense engine.
func randomInstance(rng *rand.Rand, i int) core.Instance {
	p := 1 + rng.Intn(3)
	tau := rng.Intn(6)
	k := p + rng.Intn(12)
	pages := 2 + rng.Intn(20)
	shared := rng.Intn(2) == 0
	sparse := i%3 == 0

	remap := func(id core.PageID) core.PageID {
		if sparse {
			return 50000000 + id*1000003
		}
		return id
	}
	rs := make(core.RequestSet, p)
	for c := range rs {
		n := 1 + rng.Intn(40)
		seq := make(core.Sequence, n)
		for j := range seq {
			id := core.PageID(rng.Intn(pages))
			if !shared {
				// Disjoint pools: offset each core's pages.
				id += core.PageID(c) * core.PageID(pages)
			}
			seq[j] = remap(id)
		}
		rs[c] = seq
	}
	return core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
}

// TestDenseMatchesReference replays randomized instances through both the
// dense-ID engine (sim.Run) and the retained map-based reference engine
// (sim.RunReference) and requires identical results and identical event
// streams — same times, cores, pages, fault/join flags, and victims, in
// the same order. This is the event-for-event proof that the engine's
// renaming and flat ground-truth tables are invisible to observers and
// change no strategy's decisions.
func TestDenseMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		in := randomInstance(rng, i)
		p := in.R.NumCores()
		for si, mk := range diffStrategies(in.P.K, p) {
			label := fmt.Sprintf("inst=%d strat=%d (p=%d K=%d tau=%d)", i, si, p, in.P.K, in.P.Tau)

			var gotEv, wantEv []sim.Event
			got, err := sim.Run(in, mk(), func(e sim.Event) { gotEv = append(gotEv, e) })
			if err != nil {
				t.Fatalf("%s: dense: %v", label, err)
			}
			want, err := sim.RunReference(in, mk(), func(e sim.Event) { wantEv = append(wantEv, e) })
			if err != nil {
				t.Fatalf("%s: reference: %v", label, err)
			}

			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: results differ:\ndense     %+v\nreference %+v", label, got, want)
			}
			if len(gotEv) != len(wantEv) {
				t.Fatalf("%s: %d events vs %d in reference", label, len(gotEv), len(wantEv))
			}
			for j := range gotEv {
				if gotEv[j] != wantEv[j] {
					t.Fatalf("%s: event %d differs:\ndense     %+v\nreference %+v",
						label, j, gotEv[j], wantEv[j])
				}
			}
		}
	}
}

// wideInstance builds a p-core instance with fetch delay tau over a
// shared page pool or disjoint per-core pools. Each core is empty with
// probability 1/4, every core when allEmpty is set; sparse IDs force
// the rename.
func wideInstance(rng *rand.Rand, p, tau int, shared, sparse, allEmpty bool) core.Instance {
	pages := 2 + rng.Intn(12)
	rs := make(core.RequestSet, p)
	for c := range rs {
		if allEmpty || rng.Intn(4) == 0 {
			continue
		}
		seq := make(core.Sequence, 1+rng.Intn(40))
		for j := range seq {
			id := core.PageID(rng.Intn(pages))
			if !shared {
				id += core.PageID(c * pages)
			}
			if sparse {
				id = 50000000 + id*1000003
			}
			seq[j] = id
		}
		rs[c] = seq
	}
	return core.Instance{R: rs, P: core.Params{K: p + rng.Intn(12), Tau: tau}}
}

// tickFIFO is FIFO that also evicts its oldest resident page at every
// step (sim.Ticker). Each OnTick call shows in the event stream, so a
// step an engine takes without serving a request, or one it skips,
// shows as a difference from the reference.
type tickFIFO struct{ q []core.PageID }

func (f *tickFIFO) Name() string                     { return "tickFIFO" }
func (f *tickFIFO) Init(core.Instance) error         { f.q = f.q[:0]; return nil }
func (f *tickFIFO) OnHit(core.PageID, cache.Access)  {}
func (f *tickFIFO) OnJoin(core.PageID, cache.Access) {}

func (f *tickFIFO) OnFault(p core.PageID, _ cache.Access, v sim.View) core.PageID {
	victim := core.NoPage
	if v.Free() == 0 {
		victim = f.pop(v)
	}
	f.q = append(f.q, p)
	return victim
}

func (f *tickFIFO) OnTick(_ int64, v sim.View) []core.PageID {
	if pg := f.pop(v); pg != core.NoPage {
		return []core.PageID{pg}
	}
	return nil
}

// pop removes and returns the oldest resident page, or NoPage when
// every cached page is in flight.
func (f *tickFIFO) pop(v sim.View) core.PageID {
	for i, pg := range f.q {
		if v.Resident(pg) {
			f.q = append(f.q[:i], f.q[i+1:]...)
			return pg
		}
	}
	return core.NoPage
}

// TestDenseMatchesReferenceWide extends the differential corpus to
// shapes randomInstance never draws: 1 to 16 cores, and 63, 64, 65, 128
// and 130 on both sides of the 64-core switch from the due masks to the
// scan; cores with no requests, sets whose every core is empty, and τ
// up to 64. The serve loop decides which cores are served at t and
// when the next step is, so finished and empty cores, long fetches and
// the mask's top bit are where it would diverge from the reference;
// tickFIFO makes every step visible. Every instance runs at fixed K and
// under every elastic schedule of the corpus. (wideInstance's sparse
// IDs stay below 2^31 up to about 160 cores.)
func TestDenseMatchesReferenceWide(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var cores []int
	for p := 1; p <= 16; p++ {
		cores = append(cores, p)
	}
	for _, p := range append(cores, 63, 64, 65, 128, 130) {
		for _, tau := range []int{0, 1, 8, 64} {
			for _, shared := range []bool{false, true} {
				in := wideInstance(rng, p, tau, shared, rng.Intn(2) == 0, p%5 == 0 && tau == 8)
				label := fmt.Sprintf("p=%d tau=%d shared=%v K=%d total=%d", p, tau, shared, in.P.K, in.R.TotalLen())
				fixed := append(diffStrategies(in.P.K, p), func() sim.Strategy { return new(tickFIFO) })
				for si, mk := range fixed {
					requireMatchesReference(t, fmt.Sprintf("%s strat=%d", label, si), in, mk)
				}
				for _, sched := range elasticSchedules(t, in.P.K, p) {
					elastic := in
					elastic.P.Capacity = sched
					for mi, mk := range elasticStrategies(in.P.K, p) {
						requireMatchesReference(t, fmt.Sprintf("%s sched=%s strat=%d", label, sched, mi), elastic, mk)
					}
				}
			}
		}
	}
}

// TestRunnerReuse checks that a Runner replayed over the same instance
// with fresh strategies produces identical results every time — i.e. the
// per-run reset fully clears ground truth, clocks, and oracle pointers.
func TestRunnerReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 20; i++ {
		in := randomInstance(rng, i)
		p := in.R.NumCores()
		rn, err := sim.NewRunner(in.R)
		if err != nil {
			t.Fatal(err)
		}
		for si, mk := range diffStrategies(in.P.K, p) {
			var first sim.Result
			for rep := 0; rep < 3; rep++ {
				res, err := rn.Run(in.P, mk(), nil)
				if err != nil {
					t.Fatalf("inst=%d strat=%d rep=%d: %v", i, si, rep, err)
				}
				if rep == 0 {
					first = res
				} else if !reflect.DeepEqual(res, first) {
					t.Fatalf("inst=%d strat=%d rep=%d: result drifted:\nfirst %+v\nnow   %+v",
						i, si, rep, first, res)
				}
			}
		}
	}
}

// TestRunnerRebindRenamedSets binds one Runner to a sequence of sets: a
// sparse one it renames, an equal copy (the rebind reuses the renamed
// tables), a copy differing only in its last request, and a dense set
// after which the renamed tables are reused again. Every run must match
// the reference event for event.
func TestRunnerRebindRenamedSets(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	a := core.Instance{R: make(core.RequestSet, 2), P: core.Params{K: 5, Tau: 2}}
	d := core.Instance{R: make(core.RequestSet, 2), P: core.Params{K: 4, Tau: 1}}
	for c := range a.R {
		for i := 0; i < 40; i++ {
			a.R[c] = append(a.R[c], core.PageID(50000000+1000003*rng.Intn(10)))
			d.R[c] = append(d.R[c], core.PageID(rng.Intn(10)))
		}
	}
	b := core.Instance{R: a.R.Clone(), P: a.P}
	b.R[1][39] = 50000000 + 1000003*99 // a page a never requests
	rn := new(sim.Runner)
	for step, in := range []core.Instance{a, {R: a.R.Clone(), P: a.P}, b, d, b, a, a} {
		if err := rn.Bind(in.R); err != nil {
			t.Fatal(err)
		}
		for si, mk := range diffStrategies(in.P.K, in.R.NumCores()) {
			var got, want []sim.Event
			if _, err := rn.Run(in.P, mk(), func(e sim.Event) { got = append(got, e) }); err != nil {
				t.Fatalf("step %d strat %d: %v", step, si, err)
			}
			if _, err := sim.RunReference(in, mk(), func(e sim.Event) { want = append(want, e) }); err != nil {
				t.Fatalf("step %d strat %d: reference: %v", step, si, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d strat %d: event streams differ (%d vs %d events)", step, si, len(got), len(want))
			}
		}
		rn.Release()
	}
}

// initProbe records a copy of the request set its strategy's Init
// receives.
type initProbe struct {
	sim.Strategy
	got core.RequestSet
}

func (ip *initProbe) Init(inst core.Instance) error {
	ip.got = inst.R.Clone()
	return ip.Strategy.Init(inst)
}

// TestBindPathByDistinctCount binds inputs whose max page ID lies in
// [1024, 2n), where the distinct-page count decides whether the engine
// renames. A job-shaped generated set (4 × 25 000 zipf requests, 512
// pages per core at j·2^16, so max ID ≈ 197K < 2n = 200K) and a set
// whose max ID is exactly twice its distinct count must reach Init in
// rank order; a set whose max ID is one step below that bound must
// reach it unchanged.
func TestBindPathByDistinctCount(t *testing.T) {
	job, err := workload.Generate(workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 25000, Pages: 512, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// evens(from, m, reps): core 0 gets the first m/2 even IDs from
	// `from`, core 1 the rest, each requested reps times.
	evens := func(from, m, reps int) core.RequestSet {
		rs := make(core.RequestSet, 2)
		for r := 0; r < reps; r++ {
			for i := 0; i < m; i++ {
				rs[2*i/m] = append(rs[2*i/m], core.PageID(from+2*i))
			}
		}
		return rs
	}
	rn := new(sim.Runner)
	for _, tc := range []struct {
		name    string
		rs      core.RequestSet
		renamed bool
	}{
		{"job", job, true},
		{"dense", evens(0, 3000, 1), false}, // max 5998 = 2·3000 − 2
		{"sparse", evens(2, 3000, 2), true}, // max 6000 = 2·3000
		{"job again", job, true},
	} {
		var distinct []core.PageID
		for _, seq := range tc.rs {
			distinct = append(distinct, seq...)
		}
		slices.Sort(distinct)
		distinct = slices.Compact(distinct)
		maxID := distinct[len(distinct)-1]
		if n := tc.rs.TotalLen(); maxID < 1024 || int(maxID) >= 2*n {
			t.Fatalf("%s: max ID %d outside [1024, %d)", tc.name, maxID, 2*n)
		}
		if err := rn.Bind(tc.rs); err != nil {
			t.Fatal(err)
		}
		probe := &initProbe{Strategy: policy.NewShared(lru())}
		if _, err := rn.Run(core.Params{K: 64, Tau: 2}, probe, nil); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rn.Release()
		want := tc.rs
		if tc.renamed {
			want = tc.rs.Clone()
			for _, seq := range want {
				for i, pg := range seq {
					r, _ := slices.BinarySearch(distinct, pg)
					seq[i] = core.PageID(r)
				}
			}
		}
		if !reflect.DeepEqual(probe.got, want) {
			t.Errorf("%s (%d distinct, max ID %d): Init's instance is not the input (renamed: %v)", tc.name, len(distinct), maxID, tc.renamed)
		}
	}
}

// rankRenamed is the rename oracle: rs with each page replaced by its
// index among the sorted distinct IDs, found by binary search, or a
// copy of rs when the direct-path rule keeps its IDs (max ID below 1024
// or below twice the distinct count).
func rankRenamed(rs core.RequestSet) core.RequestSet {
	var distinct []core.PageID
	for _, seq := range rs {
		distinct = append(distinct, seq...)
	}
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	if len(distinct) == 0 || distinct[len(distinct)-1] < 1024 || int(distinct[len(distinct)-1]) < 2*len(distinct) {
		return rs.Clone()
	}
	out := rs.Clone()
	for _, seq := range out {
		for i, pg := range seq {
			r, _ := slices.BinarySearch(distinct, pg)
			seq[i] = core.PageID(r)
		}
	}
	return out
}

// requireInitSeesRankRenaming binds rn to rs, runs a probe strategy,
// and fails unless the instance its Init received is rankRenamed(rs).
func requireInitSeesRankRenaming(t *testing.T, label string, rn *sim.Runner, rs core.RequestSet) {
	t.Helper()
	if err := rn.Bind(rs); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	probe := &initProbe{Strategy: policy.NewShared(lru())}
	if _, err := rn.Run(core.Params{K: 16, Tau: 1}, probe, nil); err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if want := rankRenamed(rs); !reflect.DeepEqual(probe.got, want) {
		t.Fatalf("%s: Init's instance is not the rank renaming of the input", label)
	}
}

// sparseIDs returns n distinct IDs i·step + off for i < n, shuffled.
func sparseIDs(rng *rand.Rand, n, step, off int) []core.PageID {
	ids := make([]core.PageID, n)
	for i, j := range rng.Perm(n) {
		ids[i] = core.PageID(j*step + off)
	}
	return ids
}

// TestRenameMatchesSort binds one runner to a series of sparse sets and
// checks each against the sort-and-search oracle: page 0 next to page
// 2^31−1 (the slot encoding must not confuse page 0 with an empty
// slot), 100 000 distinct pages (the first-appearance table doubles
// from its minimum size many times), a different set of that size
// after Release (the table is rebuilt from the count names kept), a
// smaller and then a larger set without Release (the table is reused,
// then outgrown), and sets of many requests over few pages, whose table
// Release keeps, so the next binds reuse a table released earlier.
func TestRenameMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	const big = 100000
	bigSet := func(step, off int) core.RequestSet {
		ids := sparseIDs(rng, big, step, off)
		return core.RequestSet{ids[:big/3], ids[big/3 : big/2], {}, append(ids[big/2:], ids[:big/4]...)}
	}
	small := core.RequestSet{sparseIDs(rng, 10, 7<<20, 3), sparseIDs(rng, 10, 7<<20, 3)}
	larger := make(core.RequestSet, 3)
	for c := range larger {
		for i := 0; i < 6000; i++ {
			larger[c] = append(larger[c], core.PageID(c<<16+rng.Intn(2000)))
		}
	}
	repeats := func(off int) core.RequestSet {
		rs := make(core.RequestSet, 3)
		for c := range rs {
			for i := 0; i < 6000; i++ {
				rs[c] = append(rs[c], core.PageID(c<<16+off+rng.Intn(100)))
			}
		}
		return rs
	}
	rn := new(sim.Runner)
	for _, step := range []struct {
		name    string
		rs      core.RequestSet
		release bool
	}{
		{"zero and max", core.RequestSet{{0, 1<<31 - 1, 0, 5}, {1<<31 - 1, 0}}, false},
		{"100k distinct", bigSet(21467, 0), true},
		{"100k distinct after release", bigSet(21377, 11), false},
		{"smaller", small, false},
		{"larger", larger, true},
		{"zero and max after release", core.RequestSet{{1<<31 - 1}, {0}}, false},
		{"repeats", repeats(0), true},
		{"repeats after release", repeats(50), true},
		{"zero and max after a kept table", core.RequestSet{{1<<31 - 1, 0}, {7}}, false},
	} {
		requireInitSeesRankRenaming(t, step.name, rn, step.rs)
		if step.release {
			rn.Release()
		}
	}
}

// FuzzRenameMatchesSort binds one runner to three random sparse sets in
// turn, releasing it between some of them, and checks each bind against
// the sort-and-search oracle. The sets mix uniform IDs up to 2^31−1,
// per-core clusters at c·2^16 like generated workloads, and multiples
// of a large power of two, which share their low bits.
func FuzzRenameMatchesSort(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		rn := new(sim.Runner)
		for b := 0; b < 3; b++ {
			pool := make([]core.PageID, 1+rng.Intn(3000))
			for i := range pool {
				switch rng.Intn(3) {
				case 0:
					pool[i] = core.PageID(rng.Int31())
				case 1:
					pool[i] = core.PageID(rng.Intn(8)<<16 + rng.Intn(1024))
				default:
					pool[i] = core.PageID(rng.Intn(1<<11) << 20)
				}
			}
			rs := make(core.RequestSet, 1+rng.Intn(8))
			for c := range rs {
				for i := rng.Intn(2000); i > 0; i-- {
					rs[c] = append(rs[c], pool[rng.Intn(len(pool))])
				}
			}
			requireInitSeesRankRenaming(t, fmt.Sprintf("seed=%d bind=%d", seed, b), rn, rs)
			if rng.Intn(2) == 0 {
				rn.Release()
			}
		}
	})
}

// TestRunnerRebindParams checks that one Runner can sweep parameters:
// running (K,τ) grids through a single Runner must match fresh sim.Run
// calls point for point.
func TestRunnerRebindParams(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	in := randomInstance(rng, 1) // non-sparse, p∈1..3
	rn, err := sim.NewRunner(in.R)
	if err != nil {
		t.Fatal(err)
	}
	p := in.R.NumCores()
	for k := p; k < p+6; k++ {
		for tau := 0; tau < 4; tau++ {
			params := core.Params{K: k, Tau: tau}
			got, err := rn.Run(params, policy.NewShared(lru()), nil)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sim.Run(core.Instance{R: in.R, P: params}, policy.NewShared(lru()), nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("K=%d tau=%d: runner %+v vs fresh %+v", k, tau, got, want)
			}
		}
	}
}
