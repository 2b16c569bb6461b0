// Benchmarks: one per experiment (the reproduction of each paper claim,
// run at reduced size — see EXPERIMENTS.md for the full-size numbers
// produced by cmd/mcexp), plus throughput benchmarks of the simulator
// and the offline solvers.
package mcpaging_test

import (
	"io"
	"testing"

	"mcpaging"
	"mcpaging/internal/experiments"
	"mcpaging/internal/offline"
)

// benchExperiment runs one registered experiment per iteration in quick
// mode.
func benchExperiment(b *testing.B, id string) {
	r, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	cfg := experiments.Config{Quick: true, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := res.Render(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE1Lemma1 reproduces Lemma 1 (fixed static partition: LRU vs
// per-part OPT, ratio ≤ max_j k_j).
func BenchmarkE1Lemma1(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkE2Lemma2 reproduces Lemma 2 (online static partitions lose
// Ω(n)).
func BenchmarkE2Lemma2(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkE3SharedBeatsPartition reproduces Theorem 1(1).
func BenchmarkE3SharedBeatsPartition(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkE4SharedWithinK reproduces Theorem 1(2).
func BenchmarkE4SharedWithinK(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkE5SlowDynamic reproduces Theorem 1(3).
func BenchmarkE5SlowDynamic(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkE6Equivalence reproduces Lemma 3 (dP ≡ S_LRU).
func BenchmarkE6Equivalence(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkE7LRULowerBound reproduces Lemma 4 (Ω(p(τ+1)) ratio).
func BenchmarkE7LRULowerBound(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkE8FITFNotOptimal reproduces the FITF non-optimality remark.
func BenchmarkE8FITFNotOptimal(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkE9Reduction reproduces Theorems 2 and 3 (executable gadgets).
func BenchmarkE9Reduction(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkE10FTFDP reproduces Theorem 6 (Algorithm 1).
func BenchmarkE10FTFDP(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkE11PIFDP reproduces Theorem 7 (Algorithm 2).
func BenchmarkE11PIFDP(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkE12HonestFITF reproduces Theorems 4 and 5.
func BenchmarkE12HonestFITF(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkE13PolicyMatrix reproduces the policy × workload comparison.
func BenchmarkE13PolicyMatrix(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkE14HassidimModel reproduces the scheduler-model comparison.
func BenchmarkE14HassidimModel(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkE15Multiapplication reproduces the fixed-interleaving model
// comparison and the τ=0 equivalences.
func BenchmarkE15Multiapplication(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkE16Fairness reproduces the fairness study (Section 6 /
// PIF yardstick).
func BenchmarkE16Fairness(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkE17Anomalies reproduces the alignment-anomaly study.
func BenchmarkE17Anomalies(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkE18Ratios reproduces the empirical competitive-ratio study.
func BenchmarkE18Ratios(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkE19Objectives reproduces the faults-vs-makespan conflict
// study.
func BenchmarkE19Objectives(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkE20Synthesis reproduces the adversary-synthesis study.
func BenchmarkE20Synthesis(b *testing.B) { benchExperiment(b, "E20") }

// BenchmarkE21Frontier reproduces the PIF Pareto-frontier study.
func BenchmarkE21Frontier(b *testing.B) { benchExperiment(b, "E21") }

// BenchmarkE22Augmentation reproduces the resource-augmentation study.
func BenchmarkE22Augmentation(b *testing.B) { benchExperiment(b, "E22") }

// --- throughput micro-benchmarks ---

func benchWorkload(b *testing.B, kind mcpaging.WorkloadKind, p int) mcpaging.Instance {
	b.Helper()
	rs, err := mcpaging.GenerateWorkload(mcpaging.WorkloadSpec{
		Cores: p, Length: 50000, Pages: 256, Kind: kind, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return mcpaging.Instance{R: rs, P: mcpaging.Params{K: 128, Tau: 8}}
}

// BenchmarkSimSharedLRU measures simulator throughput (requests/op
// reported via custom metric) with shared LRU on a Zipf workload.
func BenchmarkSimSharedLRU(b *testing.B) {
	in := benchWorkload(b, mcpaging.WorkloadZipf, 8)
	n := float64(in.R.TotalLen())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcpaging.Simulate(in, mcpaging.SharedLRU()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(n*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// BenchmarkSimStaticLRU measures the statically partitioned simulator.
func BenchmarkSimStaticLRU(b *testing.B) {
	in := benchWorkload(b, mcpaging.WorkloadZipf, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := mcpaging.StaticPartition(mcpaging.EvenPartition(128, 8), "LRU", 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mcpaging.Simulate(in, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimDynamicLRU measures the Lemma 3 dynamic partition.
func BenchmarkSimDynamicLRU(b *testing.B) {
	in := benchWorkload(b, mcpaging.WorkloadZipf, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcpaging.Simulate(in, mcpaging.DynamicLRUPartition()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimSharedFITF measures the offline-oracle strategy (oracle
// lookups dominate, so the workload is smaller than the online benches).
func BenchmarkSimSharedFITF(b *testing.B) {
	rs, err := mcpaging.GenerateWorkload(mcpaging.WorkloadSpec{
		Cores: 2, Length: 8000, Pages: 64, Kind: mcpaging.WorkloadLoop, Seed: 7,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := mcpaging.Instance{R: rs, P: mcpaging.Params{K: 32, Tau: 8}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcpaging.Simulate(in, mcpaging.SharedFITF()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMissCurveLRU measures Mattson stack-distance curve
// construction.
func BenchmarkMissCurveLRU(b *testing.B) {
	rs, err := mcpaging.GenerateWorkload(mcpaging.WorkloadSpec{
		Cores: 1, Length: 100000, Pages: 512, Kind: mcpaging.WorkloadZipf, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mcpaging.LRUMissCurve(rs[0], 128)
	}
}

// BenchmarkOptimalPartition measures the miss-curve DP end to end.
func BenchmarkOptimalPartition(b *testing.B) {
	rs, err := mcpaging.GenerateWorkload(mcpaging.WorkloadSpec{
		Cores: 8, Length: 20000, Pages: 128, Kind: mcpaging.WorkloadPhased, Seed: 5,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcpaging.OptimalStaticLRU(rs, 64); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFTFDP measures Algorithm 1 on a fixed small instance.
func BenchmarkFTFDP(b *testing.B) {
	in := mcpaging.Instance{
		R: mcpaging.RequestSet{{0, 1, 2, 0, 1}, {10, 11, 10, 12, 11}},
		P: mcpaging.Params{K: 3, Tau: 1},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mcpaging.MinTotalFaults(in, mcpaging.OfflineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPIFDP measures Algorithm 2 on a fixed small instance.
func BenchmarkPIFDP(b *testing.B) {
	pi := mcpaging.PIFInstance{
		Inst: mcpaging.Instance{
			R: mcpaging.RequestSet{{0, 1, 2, 0, 1}, {10, 11, 10, 12, 11}},
			P: mcpaging.Params{K: 3, Tau: 1},
		},
		T:      8,
		Bounds: []int64{3, 3},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mcpaging.DecidePIF(pi, mcpaging.OfflineOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBruteVsDP contrasts exhaustive search with the DP on the same
// instance (the DP's asymptotic advantage shows even at toy sizes).
func BenchmarkBruteVsDP(b *testing.B) {
	in := mcpaging.Instance{
		R: mcpaging.RequestSet{{0, 1, 2, 0, 1, 2}, {10, 11, 10, 12, 11, 10}},
		P: mcpaging.Params{K: 3, Tau: 1},
	}
	b.Run("DP", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := offline.SolveFTF(in, offline.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("brute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := offline.BruteFTF(in); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMissCurves computes both miss curves, up to K 256, of every
// core of the job shape mcbench's job-cold and job-hot workloads send
// (4 × 25 000 zipf requests over 512 pages, K 256): each curve is one
// pass over a stack cut at 256.
func BenchmarkMissCurves(b *testing.B) {
	rs, err := mcpaging.GenerateWorkload(mcpaging.WorkloadSpec{
		Cores: 4, Length: 25000, Pages: 512, Kind: mcpaging.WorkloadZipf, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		curve func(mcpaging.Sequence, int) []int64
	}{{"LRU", mcpaging.LRUMissCurve}, {"OPT", mcpaging.OPTMissCurve}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, seq := range rs {
					c.curve(seq, 256)
				}
			}
		})
	}
}
