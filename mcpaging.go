// Package mcpaging is a library for multicore paging: cache eviction for
// p cores sharing one cache of K pages, in the model of Alejandro
// López-Ortiz and Alejandro Salinger, "Paging for Multicore Processors"
// (SPAA 2011 brief announcement; University of Waterloo TR CS-2011-12).
//
// In this model, requests from different cores are served in parallel
// and may not be delayed or reordered by the paging algorithm; a fault
// on core j delays the remainder of core j's sequence by an additive
// fetch time τ. Because faults change the relative alignment of the
// sequences, multicore paging behaves very differently from classical
// sequential paging: the offline optimum is NP-hard to track (Theorem 2),
// Furthest-In-The-Future stops being optimal (τ > K/p), and the choice
// between sharing and partitioning the cache dominates the choice of
// eviction policy.
//
// The package exposes the library's public surface: the model vocabulary
// (pages, sequences, instances), the deterministic simulator, shared /
// static-partition / dynamic-partition strategies over pluggable
// eviction policies, miss-curve-based optimal static partitioning, the
// paper's offline dynamic programs (Algorithms 1 and 2), the
// 3-PARTITION/4-PARTITION reductions, adversarial lower-bound
// constructions, and synthetic workload generators.
//
// # Quick start
//
//	rs, _ := mcpaging.GenerateWorkload(mcpaging.WorkloadSpec{
//		Cores: 4, Length: 10000, Pages: 64, Kind: mcpaging.WorkloadZipf, Seed: 1,
//	})
//	inst := mcpaging.Instance{R: rs, P: mcpaging.Params{K: 32, Tau: 4}}
//	res, _ := mcpaging.Simulate(inst, mcpaging.SharedLRU())
//	fmt.Println("faults:", res.TotalFaults(), "makespan:", res.Makespan)
//
// The examples/ directory contains runnable programs; cmd/ contains the
// trace generator, simulator, offline solver, and experiment harness.
package mcpaging

import (
	"context"
	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/mattson"
	"mcpaging/internal/offline"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
	"mcpaging/internal/workload"
)

// Model vocabulary (aliases of the internal core types).
type (
	// PageID identifies a page; NoPage is the reserved sentinel.
	PageID = core.PageID
	// Sequence is one core's request sequence in program order.
	Sequence = core.Sequence
	// RequestSet is one Sequence per core.
	RequestSet = core.RequestSet
	// Params holds the model parameters K (cache size) and Tau (fetch
	// delay).
	Params = core.Params
	// Instance couples a RequestSet with Params.
	Instance = core.Instance
)

// NoPage is the "no page" sentinel (see core.NoPage).
const NoPage = core.NoPage

// Simulation surface.
type (
	// Strategy is a cache-management strategy driven by the simulator.
	Strategy = sim.Strategy
	// Result summarises a simulation run.
	Result = sim.Result
	// Event describes one served request (for observers).
	Event = sim.Event
	// Observer receives every service event in order.
	Observer = sim.Observer
)

// Simulate runs strategy s on the instance under the paper's timing
// model and returns per-core fault/hit counts, finish times, and the
// makespan.
func Simulate(inst Instance, s Strategy) (Result, error) {
	return sim.Run(inst, s, nil)
}

// Observe is Simulate with an event observer.
func Observe(inst Instance, s Strategy, obs Observer) (Result, error) {
	return sim.Run(inst, s, obs)
}

// EvictionPolicies lists the built-in eviction policy names accepted by
// Shared, StaticPartition and StagedPartition: LRU, FIFO, CLOCK, LFU,
// MRU, MARK, RMARK, RAND, FITF, ARC, SLRU, LRU2 and TINYLFU.
func EvictionPolicies() []string { return cache.PolicyNames() }

// Shared returns the shared-cache strategy S_A for the named eviction
// policy; seed drives the RAND and RMARK policies and is ignored
// otherwise.
func Shared(policyName string, seed int64) (Strategy, error) {
	mk, err := cache.NewFactory(policyName, seed)
	if err != nil {
		return nil, err
	}
	return policy.NewShared(mk), nil
}

// SharedLRU returns S_LRU, the canonical shared baseline.
func SharedLRU() Strategy {
	return policy.NewShared(func() cache.Policy { return cache.NewLRU() })
}

// SharedFITF returns S_FITF, the shared Furthest-In-The-Future strategy
// (offline: it uses the simulator's future-knowledge oracle).
func SharedFITF() Strategy {
	return policy.NewShared(func() cache.Policy { return cache.NewFITF() })
}

// StaticPartition returns the static-partition strategy sP^B_A with part
// sizes B and the named per-part eviction policy.
func StaticPartition(sizes []int, policyName string, seed int64) (Strategy, error) {
	mk, err := cache.NewFactory(policyName, seed)
	if err != nil {
		return nil, err
	}
	return policy.NewStatic(sizes, mk), nil
}

// EvenPartition splits K cells over p cores as evenly as possible.
func EvenPartition(k, p int) []int { return policy.EvenSizes(k, p) }

// DynamicLRUPartition returns the Lemma 3 dynamic partition, provably
// equivalent to shared LRU on disjoint request sets.
func DynamicLRUPartition() Strategy { return policy.NewDynamicLRU() }

// Stage is one constant period of a staged dynamic partition.
type Stage = policy.Stage

// StagedPartition returns a dynamic partition whose part sizes follow
// the given stage schedule, with the named per-part eviction policy.
func StagedPartition(stages []Stage, policyName string, seed int64) (Strategy, error) {
	mk, err := cache.NewFactory(policyName, seed)
	if err != nil {
		return nil, err
	}
	return policy.NewStaged(stages, mk), nil
}

// Partition couples static part sizes with their predicted fault count.
type Partition = mattson.Partition

// OptimalStaticLRU computes the fault-minimizing static partition for
// per-part LRU via Mattson stack distances and dynamic programming
// (exact for disjoint request sets, any τ).
func OptimalStaticLRU(r RequestSet, k int) (Partition, error) {
	return mattson.OptimalLRU(context.TODO(), r, k)
}

// OptimalStaticOPT computes the fault-minimizing static partition for
// per-part Belady eviction.
func OptimalStaticOPT(r RequestSet, k int) (Partition, error) {
	return mattson.OptimalOPT(context.TODO(), r, k)
}

// LRUMissCurve returns per-size LRU miss counts (index = cache size,
// 0..kmax) for a single sequence.
func LRUMissCurve(s Sequence, kmax int) []int64 { return mattson.LRUCurve(s, kmax) }

// OPTMissCurve returns per-size Belady miss counts for a single
// sequence.
func OPTMissCurve(s Sequence, kmax int) []int64 { return mattson.OPTCurve(s, kmax) }

// Offline solvers (the paper's Algorithms 1 and 2).
type (
	// OfflineOptions tunes the offline dynamic programs.
	OfflineOptions = offline.Options
	// FTFSolution is the result of the FINAL-TOTAL-FAULTS DP.
	FTFSolution = offline.FTFSolution
	// PIFInstance is a PARTIAL-INDIVIDUAL-FAULTS decision instance.
	PIFInstance = offline.PIFInstance
	// PIFStats reports the PIF DP's work.
	PIFStats = offline.PIFStats
)

// MinTotalFaults computes the offline minimum total number of faults
// (Algorithm 1, Theorem 6). Exponential in p and K; small instances
// only.
func MinTotalFaults(inst Instance, opts OfflineOptions) (FTFSolution, error) {
	return offline.SolveFTF(inst, opts)
}

// DecidePIF decides whether the instance can be served within the given
// per-sequence fault bounds at the checkpoint time (Algorithm 2,
// Theorem 7).
func DecidePIF(pi PIFInstance, opts OfflineOptions) (bool, PIFStats, error) {
	return offline.DecidePIF(pi, opts)
}

// Workload generation.
type (
	// WorkloadSpec describes a synthetic workload.
	WorkloadSpec = workload.Spec
	// WorkloadKind selects a generator family.
	WorkloadKind = workload.Kind
)

// Workload generator families.
const (
	WorkloadUniform = workload.Uniform
	WorkloadZipf    = workload.Zipf
	WorkloadLoop    = workload.Loop
	WorkloadPhased  = workload.Phased
	WorkloadMarkov  = workload.Markov
)

// GenerateWorkload builds a synthetic request set from a spec;
// deterministic given the spec's seed.
func GenerateWorkload(s WorkloadSpec) (RequestSet, error) { return workload.Generate(s) }

// ComposeWorkload builds a heterogeneous request set, one spec per core,
// each core in its own private page namespace.
func ComposeWorkload(specs []WorkloadSpec) (RequestSet, error) { return workload.Compose(specs) }
