package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mcpaging/internal/capacity"
	"mcpaging/internal/core"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
	"mcpaging/internal/telemetry"
)

// elasticStrategies builds the CapacityAware strategy set the elastic
// differential tests replay: shared LRU, the even static partition
// (quota rescaling through reapportion), and the FairShare dynamic
// partition (occupancy-driven controller).
func elasticStrategies(k, p int) []func() sim.Strategy {
	return []func() sim.Strategy{
		func() sim.Strategy { return policy.NewShared(lru()) },
		func() sim.Strategy { return policy.NewStatic(policy.EvenSizes(k, p), lru()) },
		func() sim.Strategy { return policy.NewPartitioned(policy.FairController(0), lru()) },
	}
}

// runFunc is an engine entry point: sim.Run or sim.RunReference.
type runFunc func(core.Instance, sim.Strategy, sim.Observer) (sim.Result, error)

// telemetryJSON runs the instance through run with a telemetry
// collector attached and returns the run result, the captured event
// stream, and the collector's JSON-marshalled windows + totals. A run
// error is returned with the partial result and events, and no
// telemetry.
func telemetryJSON(t *testing.T, in core.Instance, mk func() sim.Strategy, run runFunc) (sim.Result, []sim.Event, []byte, error) {
	t.Helper()
	col := telemetry.New(telemetry.Config{Cores: in.R.NumCores(), Params: in.P})
	var evs []sim.Event
	res, err := run(in, mk(), func(e sim.Event) {
		evs = append(evs, e)
		col.Observe(e)
	})
	if err != nil {
		return res, evs, nil, err
	}
	col.Finish(res)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, w := range col.Windows() {
		if err := enc.Encode(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := enc.Encode(col.Totals()); err != nil {
		t.Fatal(err)
	}
	return res, evs, buf.Bytes(), nil
}

// TestConstantScheduleMatchesFixedK pins the refactor's zero-cost
// contract: attaching a *constant* capacity schedule must be byte-
// identical to the fixed-K model — same Result, same event stream, and
// same serialized telemetry. The engine nils constant schedules at
// reset, so this guards the equivalence structurally, not
// statistically.
func TestConstantScheduleMatchesFixedK(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 40; i++ {
		in := randomInstance(rng, i)
		sched, err := capacity.ParseSchedule("fixed", in.P.K)
		if err != nil {
			t.Fatal(err)
		}
		elastic := in
		elastic.P.Capacity = sched
		for si, mk := range elasticStrategies(in.P.K, in.R.NumCores()) {
			label := fmt.Sprintf("inst=%d strat=%d", i, si)
			wantRes, wantEv, wantTel, err := telemetryJSON(t, in, mk, sim.Run)
			if err != nil {
				t.Fatalf("%s fixed: %v", label, err)
			}
			gotRes, gotEv, gotTel, err := telemetryJSON(t, elastic, mk, sim.Run)
			if err != nil {
				t.Fatalf("%s constant: %v", label, err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Fatalf("%s: results differ:\nconstant %+v\nfixed    %+v", label, gotRes, wantRes)
			}
			if !reflect.DeepEqual(gotEv, wantEv) {
				t.Fatalf("%s: event streams differ (%d vs %d events)", label, len(gotEv), len(wantEv))
			}
			if !bytes.Equal(gotTel, wantTel) {
				t.Fatalf("%s: telemetry bytes differ:\nconstant %s\nfixed    %s", label, gotTel, wantTel)
			}
		}
	}
}

// elasticSchedules returns the non-constant schedule specs the
// differential corpus cycles through, resolved against base k. Shrink
// targets stay at or above p: the model needs K(t) >= active cores.
func elasticSchedules(t *testing.T, k, p int) []*capacity.Schedule {
	t.Helper()
	lo := maxInt(p, k/2)
	var out []*capacity.Schedule
	for _, spec := range []string{
		fmt.Sprintf("step(to=%d,at=8)", lo),
		fmt.Sprintf("step(to=%d,at=5)", k+3),
		fmt.Sprintf("periodic(lo=%d,period=16,duty=0.5)", lo),
		fmt.Sprintf("ramp(to=%d,end=32)", lo),
	} {
		sched, err := capacity.ParseSchedule(spec, k)
		if err != nil {
			t.Fatalf("%s (k=%d): %v", spec, k, err)
		}
		out = append(out, sched)
	}
	return out
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// requireMatchesReference runs the instance through the dense engine
// and the map-based reference spec, with telemetry attached, and fails
// unless both runs succeed with identical results, event streams and
// telemetry bytes. Every corpus schedule keeps K(t) >= p, which the
// model promises is serviceable, so a run error from either engine is a
// bug, never an outcome to compare.
func requireMatchesReference(t *testing.T, label string, in core.Instance, mk func() sim.Strategy) {
	t.Helper()
	wantRes, wantEv, wantTel, err := telemetryJSON(t, in, mk, sim.RunReference)
	if err != nil {
		t.Fatalf("%s: reference: %v", label, err)
	}
	gotRes, gotEv, gotTel, err := telemetryJSON(t, in, mk, sim.Run)
	if err != nil {
		t.Fatalf("%s: dense: %v", label, err)
	}
	if !reflect.DeepEqual(gotRes, wantRes) {
		t.Fatalf("%s: results differ:\ndense     %+v\nreference %+v", label, gotRes, wantRes)
	}
	if len(gotEv) != len(wantEv) {
		t.Fatalf("%s: %d events vs %d reference", label, len(gotEv), len(wantEv))
	}
	for j := range gotEv {
		if gotEv[j] != wantEv[j] {
			t.Fatalf("%s: event %d differs:\ndense     %+v\nreference %+v",
				label, j, gotEv[j], wantEv[j])
		}
	}
	if !bytes.Equal(gotTel, wantTel) {
		t.Fatalf("%s: telemetry bytes differ", label)
	}
}

// TestElasticMatchesReference replays randomized instances under
// non-constant schedules — shrink steps, grow steps, periodic storms,
// and ramps — through the dense engine and the map-based reference
// spec, and requires identical results, identical event streams
// (capacity announcements and pressure evictions included) and
// identical telemetry bytes. The reference derives K(t) from At alone,
// so the dense engine's NextChange caching is checked against an
// independent reading of the schedule.
func TestElasticMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for i := 0; i < 40; i++ {
		in := randomInstance(rng, i)
		p := in.R.NumCores()
		for si, sched := range elasticSchedules(t, in.P.K, p) {
			elastic := in
			elastic.P.Capacity = sched
			if err := elastic.P.Validate(); err != nil {
				t.Fatalf("inst=%d sched=%d: %v", i, si, err)
			}
			for mi, mk := range elasticStrategies(in.P.K, p) {
				requireMatchesReference(t, fmt.Sprintf("inst=%d sched=%s strat=%d", i, sched, mi), elastic, mk)
			}
		}
	}
}

// FuzzDenseMatchesReference is the property half of the differential
// suite: for any generator seed, the dense engine must reproduce the
// reference spec's result, event stream and telemetry exactly, at
// fixed K and under every elastic schedule of the corpus.
func FuzzDenseMatchesReference(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 17, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		in := randomInstance(rng, int(uint64(seed)%6))
		p := in.R.NumCores()
		for si, mk := range diffStrategies(in.P.K, p) {
			requireMatchesReference(t, fmt.Sprintf("seed=%d strat=%d", seed, si), in, mk)
		}
		for _, sched := range elasticSchedules(t, in.P.K, p) {
			elastic := in
			elastic.P.Capacity = sched
			for mi, mk := range elasticStrategies(in.P.K, p) {
				requireMatchesReference(t, fmt.Sprintf("seed=%d sched=%s strat=%d", seed, sched, mi), elastic, mk)
			}
		}
	})
}

// TestElasticShrinkShedsAndGrowIsFree checks the shed semantics: a
// shrink forces enough capacity-pressure evictions to fit the new K and
// tags each with Capacity+Tick events; a pure grow announces the resize
// but never evicts.
func TestElasticShrinkShedsAndGrowIsFree(t *testing.T) {
	// One core cycling through k distinct pages fills the cache, then a
	// step shrink halves it: at least k - k/2 cells must be shed.
	const k = 8
	seq := make(core.Sequence, 64)
	for i := range seq {
		seq[i] = core.PageID(i % k)
	}
	in := core.Instance{R: core.RequestSet{seq}, P: core.Params{K: k, Tau: 1}}

	shrink, err := capacity.ParseSchedule("step(to=50%,at=40)", k)
	if err != nil {
		t.Fatal(err)
	}
	in.P.Capacity = shrink
	var shed, announced int
	res, err := sim.Run(in, policy.NewShared(lru()), func(e sim.Event) {
		if !e.Capacity {
			return
		}
		if e.Tick {
			shed++
			if e.Victim == core.NoPage {
				t.Fatalf("capacity eviction without a victim: %+v", e)
			}
		} else {
			announced++
			if e.K != k/2 {
				t.Fatalf("announcement K = %d, want %d", e.K, k/2)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if announced != 1 {
		t.Fatalf("announcements = %d, want 1", announced)
	}
	if shed < k-k/2 {
		t.Fatalf("shed %d cells, want at least %d", shed, k-k/2)
	}
	if res.CapacityEvictions != int64(shed) {
		t.Fatalf("Result.CapacityEvictions = %d, events saw %d", res.CapacityEvictions, shed)
	}

	grow, err := capacity.ParseSchedule(fmt.Sprintf("step(to=%d,at=40)", 2*k), k)
	if err != nil {
		t.Fatal(err)
	}
	in.P.Capacity = grow
	res, err = sim.Run(in, policy.NewShared(lru()), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CapacityEvictions != 0 {
		t.Fatalf("grow-only schedule shed %d cells, want 0", res.CapacityEvictions)
	}
}

// TestElasticRejectsUnawareStrategy pins the error path: a non-constant
// schedule with a strategy that cannot resize must fail loudly instead
// of silently running fixed.
func TestElasticRejectsUnawareStrategy(t *testing.T) {
	in := core.Instance{R: core.RequestSet{{1, 2, 3}}, P: core.Params{K: 4, Tau: 0}}
	sched, err := capacity.ParseSchedule("step(to=2,at=2)", 4)
	if err != nil {
		t.Fatal(err)
	}
	in.P.Capacity = sched
	if _, err := sim.Run(in, policy.NewFWF(), nil); err == nil {
		t.Fatal("non-CapacityAware strategy accepted under a non-constant schedule")
	}
}

// TestElasticRejectsBelowActiveCores pins the model invariant: a
// schedule that ever drops K(t) below the number of active cores is
// rejected up front — with fewer cells than faulting cores, every cell
// can be pinned in flight and a fault has nothing to evict.
func TestElasticRejectsBelowActiveCores(t *testing.T) {
	in := core.Instance{R: core.RequestSet{{1, 2, 3}, {4, 5, 6}}, P: core.Params{K: 4, Tau: 2}}
	sched, err := capacity.ParseSchedule("step(to=1,at=2)", 4)
	if err != nil {
		t.Fatal(err)
	}
	in.P.Capacity = sched
	if _, err := sim.Run(in, policy.NewShared(lru()), nil); err == nil {
		t.Fatal("schedule reaching K(t) < active cores accepted")
	}
}

// TestElasticRunAllocBound extends the hot-path allocation budget to
// elastic runs: a warmed Runner replaying a step-shrink schedule must
// stay within the fixed-K bound of 4 allocs/run. Capacity boundaries
// are a cold path, but they must not leak per-run garbage either, nor
// garbage per shed cell or per repartition: two cores cycling over 48
// pages each fill K = 64, so halving it sheds cells. The shared
// strategy and the even, FairShare and UCP partitions (the eP family's
// controllers) all reuse their scratch and per-core arrays across runs.
func TestElasticRunAllocBound(t *testing.T) {
	rs := make(core.RequestSet, 2)
	for c := range rs {
		seq := make(core.Sequence, 4096)
		for i := range seq {
			seq[i] = core.PageID(c*48 + i%48)
		}
		rs[c] = seq
	}
	rn, err := sim.NewRunner(rs)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := capacity.ParseSchedule("step(to=50%,at=2048)", 64)
	if err != nil {
		t.Fatal(err)
	}
	params := core.Params{K: 64, Tau: 4, Capacity: sched}
	for _, s := range []sim.Strategy{
		policy.NewShared(lru()),
		policy.NewPartitioned(policy.StaticController(policy.EvenSizes(64, 2)), lru()),
		policy.NewPartitioned(policy.FairController(0), lru()),
		policy.NewPartitioned(policy.UCPController(0), lru()),
	} {
		res, err := rn.Run(params, s, nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.CapacityEvictions == 0 {
			t.Fatalf("%s: the shrink shed no cell", s.Name())
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := rn.Run(params, s, nil); err != nil {
				t.Fatal(err)
			}
		})
		const bound = 4
		if allocs > bound {
			t.Errorf("warmed elastic Runner.Run of %s: %v allocs/run, want at most %d (%d cells shed)",
				s.Name(), allocs, bound, res.CapacityEvictions)
		}
	}
}

// BenchmarkSimElastic crosses the serve path with capacity schedules of
// increasing shrink severity, fixed K first as the baseline column.
// Allocations are reported so benchstat (or -benchmem by eye) shows the
// elastic hot path staying at the fixed-K steady state — schedule
// boundaries are a cold path and must not leak per-run garbage.
func BenchmarkSimElastic(b *testing.B) {
	const perCore = 50000
	rs := make(core.RequestSet, 4)
	for c := range rs {
		seq := make(core.Sequence, perCore)
		for i := range seq {
			seq[i] = core.PageID(c*64 + i%64)
		}
		rs[c] = seq
	}
	const k = 512
	schedules := []struct{ name, spec string }{
		{"fixed", ""},
		{"shrink25", "step(to=75%,at=25000)"},
		{"shrink50", "step(to=50%,at=25000)"},
		{"storm", "periodic(lo=50%,period=8192,duty=0.5)"},
	}
	for _, sc := range schedules {
		b.Run(sc.name, func(b *testing.B) {
			params := core.Params{K: k, Tau: 8}
			if sc.spec != "" {
				sched, err := capacity.ParseSchedule(sc.spec, k)
				if err != nil {
					b.Fatal(err)
				}
				params.Capacity = sched
			}
			rn, err := sim.NewRunner(rs)
			if err != nil {
				b.Fatal(err)
			}
			s := policy.NewShared(lru())
			n := float64(rs.TotalLen())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rn.Run(params, s, nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(n*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}
