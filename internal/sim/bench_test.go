package sim_test

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

// benchShape is one workload of the serve-path benchmark matrix.
type benchShape struct {
	name   string
	rs     core.RequestSet
	params core.Params
	strat  func() sim.Strategy
}

// benchShapes builds workloads engineered so one serve path dominates
// (hit ≈ array lookup + Touch; fault ≈ eviction + table update; join ≈
// in-flight check + Touch; scan ≈ memory-bound residency lookups; wide
// ≈ the step scheduling of many cores).
func benchShapes(perCore int) []benchShape {
	shapes := make([]benchShape, 0, 6)

	// 4 cores cycling disjoint 16-page working sets inside K=128:
	// everything past the first 64 requests is a hit.
	hit := make(core.RequestSet, 4)
	for c := range hit {
		seq := make(core.Sequence, perCore)
		for i := range seq {
			seq[i] = core.PageID(c*16 + i%16)
		}
		hit[c] = seq
	}
	shapes = append(shapes, benchShape{"hit", hit, core.Params{K: 128, Tau: 8}, nil})

	// 4 cores scanning disjoint 512-page loops with K=128 under LRU:
	// the classic sequential-flooding pattern, every request faults.
	fault := make(core.RequestSet, 4)
	for c := range fault {
		seq := make(core.Sequence, perCore)
		for i := range seq {
			seq[i] = core.PageID(c*512 + i%512)
		}
		fault[c] = seq
	}
	shapes = append(shapes, benchShape{"fault", fault, core.Params{K: 128, Tau: 8}, nil})

	// 4 cores issuing the same 512-page scan in lockstep with τ=8:
	// core 0 faults and the rest join the in-flight fetch, so ~3/4 of
	// all requests take the join path.
	seq := make(core.Sequence, perCore)
	for i := range seq {
		seq[i] = core.PageID(i % 512)
	}
	shapes = append(shapes, benchShape{"join", core.RequestSet{seq, seq, seq, seq}, core.Params{K: 128, Tau: 8}, nil})

	// 4 cores striding over disjoint 32K-page working sets that all fit
	// in K: after one warmup pass everything hits, but the 1MB
	// residency table and the stride defeat the hardware caches, so
	// serving stalls on memory. FITF's Touch is free, so the residency
	// lookups dominate. Six passes make the faulting warmup pass a
	// small fraction of the run.
	scan := make(core.RequestSet, 4)
	for c := range scan {
		seq := make(core.Sequence, 4*perCore)
		for i := range seq {
			seq[i] = core.PageID(c*32768 + (i*7919)%32768)
		}
		scan[c] = seq
	}
	shapes = append(shapes, benchShape{"scan", scan, core.Params{K: 131072, Tau: 8},
		func() sim.Strategy { return policy.NewShared(func() cache.Policy { return cache.NewFITF() }) }})

	// 16 and 128 cores, one on each side of the engine's 64-core switch
	// from due masks to the scan, each core drawing uniformly from its
	// own 32 pages with 16 cells per core: about half the requests
	// fault, so at a step most cores are waiting out a fetch. The total
	// request count matches the 4-core shapes.
	for _, p := range []int{16, 128} {
		rng := rand.New(rand.NewSource(int64(p)))
		wide := make(core.RequestSet, p)
		for c := range wide {
			seq := make(core.Sequence, 4*perCore/p)
			for i := range seq {
				seq[i] = core.PageID(c*32 + rng.Intn(32))
			}
			wide[c] = seq
		}
		shapes = append(shapes, benchShape{fmt.Sprintf("wide/%d", p), wide, core.Params{K: 16 * p, Tau: 8}, nil})
	}

	for i := range shapes {
		if shapes[i].strat == nil {
			shapes[i].strat = func() sim.Strategy { return policy.NewShared(lru()) }
		}
	}
	return shapes
}

// BenchmarkSimServe runs one sub-benchmark per serve-path shape. Each
// replays its workload through a reused Runner, so the numbers track
// the per-request cost of that path with steady-state allocations.
func BenchmarkSimServe(b *testing.B) {
	for _, sh := range benchShapes(50000) {
		b.Run(sh.name, func(b *testing.B) {
			rn, err := sim.NewRunner(sh.rs)
			if err != nil {
				b.Fatal(err)
			}
			n := float64(sh.rs.TotalLen())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := rn.Run(sh.params, sh.strat(), nil); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(n*float64(b.N)/b.Elapsed().Seconds(), "req/s")
		})
	}
}

// BenchmarkSimStream measures the full streaming pipeline: decode a
// binary trace through trace.Decoder into reused buffers, rebind a
// Runner, and run — the path a service takes for traces too large to
// keep materialized. The decode buffer and request set are reused
// across iterations, so steady-state garbage stays bounded regardless
// of trace size.
func BenchmarkSimStream(b *testing.B) {
	const perCore = 50000
	rs := make(core.RequestSet, 4)
	for c := range rs {
		seq := make(core.Sequence, perCore)
		for i := range seq {
			seq[i] = core.PageID(c*512 + i%512)
		}
		rs[c] = seq
	}
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, rs); err != nil {
		b.Fatal(err)
	}
	data := bin.Bytes()
	params := core.Params{K: 128, Tau: 8}

	var rn sim.Runner
	dst := make(core.RequestSet, 0, 4)
	n := float64(rs.TotalLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := trace.NewDecoder(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		dst = dst[:0]
		for {
			m, err := d.NextCore()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			c := len(dst)
			if c < cap(dst) {
				dst = dst[:c+1]
			} else {
				dst = append(dst, nil)
			}
			if cap(dst[c]) < m {
				dst[c] = make(core.Sequence, m)
			}
			dst[c] = dst[c][:m]
			for off := 0; off < m; {
				k, err := d.Read(dst[c][off:])
				if err != nil {
					b.Fatal(err)
				}
				off += k
			}
		}
		if err := rn.Bind(dst); err != nil {
			b.Fatal(err)
		}
		if _, err := rn.Run(params, policy.NewShared(lru()), nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(n*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkSimBind measures Runner.Bind plus Release, the per-job
// stage between strategy build and the serve loop, on generated
// workloads whose sparse IDs the engine renames: the sweep shape (4 ×
// 12 500 zipf), the job-trace shape (8 × 12 500 phased, 10% shared
// pages) and the job shape (4 × 25 000 zipf). Only the job shape's max
// ID (197 119) lies below twice its request count, so only its binds
// count distinct pages in the bitset before renaming. The rename arm
// alternates between two sets of the shape, so every bind renames; the
// same arm rebinds the set the runner holds, as a sweep's next cell
// does.
func BenchmarkSimBind(b *testing.B) {
	shapes := []struct {
		name string
		spec workload.Spec
	}{
		{"sweep", workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 12500, Pages: 512}},
		{"trace", workload.Spec{Kind: workload.Phased, Cores: 8, Length: 12500, Pages: 256, SharedFrac: 0.1}},
		{"job", workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 25000, Pages: 512}},
	}
	for _, sh := range shapes {
		var sets [2]core.RequestSet
		for i := range sets {
			spec := sh.spec
			spec.Seed = int64(i + 1)
			rs, err := workload.Generate(spec)
			if err != nil {
				b.Fatal(err)
			}
			sets[i] = rs
		}
		for _, arm := range []struct {
			name   string
			stride int
		}{{"rename", 1}, {"same", 0}} {
			b.Run(sh.name+"/"+arm.name, func(b *testing.B) {
				rn, err := sim.NewRunner(sets[0])
				if err != nil {
					b.Fatal(err)
				}
				rn.Release()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := rn.Bind(sets[(i+1)*arm.stride%2]); err != nil {
						b.Fatal(err)
					}
					rn.Release()
				}
			})
		}
	}
}
