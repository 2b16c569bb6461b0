// Package workload generates synthetic multicore request sets. The
// paper's evaluation is purely analytic, so these generators play the
// role its motivating workloads describe informally: independent
// processes with private working sets, looping scans, phase-changing
// programs, and mixes that share pages across cores. All generators are
// deterministic given the spec's seed.
package workload

import (
	"fmt"
	"math/rand"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// Kind selects a generator family.
type Kind string

// Generator families.
const (
	// Uniform draws each request uniformly from the core's page range.
	Uniform Kind = "uniform"
	// Zipf draws from a Zipf distribution over the core's page range —
	// heavy-tailed popularity, the classic cache-friendly skew.
	Zipf Kind = "zipf"
	// Loop cycles sequentially through the core's page range — the
	// LRU-adversarial scan pattern.
	Loop Kind = "loop"
	// Phased partitions the sequence into phases, each confined to a
	// small working set drawn from the core's range; working sets
	// change abruptly at phase boundaries.
	Phased Kind = "phased"
	// Markov walks a ring over the core's page range: with high
	// probability the next request is a neighbour of the current page,
	// otherwise it jumps uniformly (an access-graph-style workload in
	// the spirit of Fiat–Karlin's multi-pointer model).
	Markov Kind = "markov"
)

// Kinds lists all generator families in a stable order.
func Kinds() []Kind { return []Kind{Uniform, Zipf, Loop, Phased, Markov} }

// Spec describes one request-set generation. The JSON names are the
// wire format of the mcservd job API's "workload" trace input.
type Spec struct {
	// Cores is p, the number of sequences.
	Cores int `json:"cores"`
	// Length is the per-core sequence length.
	Length int `json:"length"`
	// Pages is the number of distinct private pages per core.
	Pages int `json:"pages"`
	// Kind selects the generator family.
	Kind Kind `json:"kind"`
	// ZipfS and ZipfV parameterise the Zipf distribution: rank k has
	// weight (v + k)^−s. s ≤ 1 (zero included) becomes 1.2 and v < 1
	// becomes 1. Generate rejects parameters too extreme for float64
	// arithmetic, such as v = 1e15, under which the sampler would draw
	// ranks outside the page range.
	ZipfS float64 `json:"zipf_s,omitempty"`
	ZipfV float64 `json:"zipf_v,omitempty"`
	// Phases (Phased only) is the number of phases; zero defaults to 8.
	Phases int `json:"phases,omitempty"`
	// WorkingSet (Phased only) is the pages per phase; zero defaults to
	// max(2, Pages/4).
	WorkingSet int `json:"working_set,omitempty"`
	// JumpProb (Markov only) is the probability of a uniform jump
	// instead of a neighbour step; zero defaults to 0.05.
	JumpProb float64 `json:"jump_prob,omitempty"`
	// SharedFrac, if positive, replaces that fraction of requests (in
	// expectation) with requests to a pool of SharedPages pages common
	// to all cores, producing a non-disjoint request set.
	SharedFrac float64 `json:"shared_frac,omitempty"`
	// SharedPages is the size of the shared pool; zero defaults to
	// Pages when SharedFrac > 0.
	SharedPages int `json:"shared_pages,omitempty"`
	// Seed drives all randomness.
	Seed int64 `json:"seed"`
}

// sharedBase places shared pages in a namespace no private page uses.
const sharedBase = 1 << 24

// privateStride spaces per-core private namespaces.
const privateStride = 1 << 16

// Validate checks the spec.
func (s Spec) Validate() error {
	if s.Cores < 1 {
		return fmt.Errorf("workload: cores = %d, want >= 1", s.Cores)
	}
	if s.Length < 0 {
		return fmt.Errorf("workload: negative length %d", s.Length)
	}
	if s.Pages < 1 {
		return fmt.Errorf("workload: pages = %d, want >= 1", s.Pages)
	}
	if s.Pages >= privateStride {
		return fmt.Errorf("workload: pages = %d exceeds per-core namespace", s.Pages)
	}
	if s.SharedFrac < 0 || s.SharedFrac > 1 {
		return fmt.Errorf("workload: shared fraction %v outside [0,1]", s.SharedFrac)
	}
	switch s.Kind {
	case Uniform, Zipf, Loop, Phased, Markov:
	default:
		return fmt.Errorf("workload: unknown kind %q", s.Kind)
	}
	return nil
}

// Generate builds the request set for the spec.
func Generate(s Spec) (core.RequestSet, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(s.Seed))
	var z *zipfSampler
	if s.Kind == Zipf {
		var err error
		if z, err = s.zipf(rng); err != nil {
			return nil, err
		}
	}
	rs := make(core.RequestSet, s.Cores)
	sharedPages := s.SharedPages
	if sharedPages == 0 {
		sharedPages = s.Pages
	}
	for j := 0; j < s.Cores; j++ {
		local, err := s.generateCore(rng, z, core.PageID(j*privateStride))
		if err != nil {
			return nil, err
		}
		if s.SharedFrac > 0 {
			for i := range local {
				if rng.Float64() < s.SharedFrac {
					local[i] = core.PageID(sharedBase + rng.Intn(sharedPages))
				}
			}
		}
		rs[j] = local
	}
	return rs, nil
}

// zipf builds the sampler every core of a Zipf spec draws from. It
// tabulates at most one rank per 32 draws of the whole call, so a small
// call does not build a table its draws cannot pay back.
func (s Spec) zipf(rng *rand.Rand) (*zipfSampler, error) {
	zs, zv := s.ZipfS, s.ZipfV
	if zs <= 1 {
		zs = 1.2
	}
	if zv < 1 {
		zv = 1
	}
	return newZipfSampler(rng, zs, zv, uint64(s.Pages-1), s.Cores*s.Length/32)
}

// generateCore produces one core's sequence over pages base … base +
// Pages − 1; z is the Zipf sampler for a Zipf spec.
func (s Spec) generateCore(rng *rand.Rand, z *zipfSampler, base core.PageID) (core.Sequence, error) {
	seq := make(core.Sequence, s.Length)
	switch s.Kind {
	case Uniform:
		for i := range seq {
			seq[i] = base + core.PageID(rng.Intn(s.Pages))
		}
	case Zipf:
		// The permutation decouples popularity rank from page ID; base
		// is added to it once rather than to every request.
		perm := rng.Perm(s.Pages)
		for k := range perm {
			perm[k] += int(base)
		}
		for i := range seq {
			k, ok := z.next()
			if !ok {
				return nil, z.unusable()
			}
			seq[i] = core.PageID(perm[k])
		}
	case Loop:
		off := rng.Intn(s.Pages)
		for i := range seq {
			seq[i] = base + core.PageID((off+i)%s.Pages)
		}
	case Phased:
		ws := s.WorkingSet
		if ws <= 0 {
			ws = s.Pages / 4
		}
		if ws < 2 {
			ws = 2
		}
		if ws > s.Pages {
			ws = s.Pages
		}
		perPhase := s.phaseLen()
		for i := 0; i < s.Length; {
			set := rng.Perm(s.Pages)[:ws]
			for k := 0; k < perPhase && i < s.Length; k++ {
				seq[i] = base + core.PageID(set[rng.Intn(ws)])
				i++
			}
		}
	case Markov:
		jump := s.JumpProb
		if jump <= 0 {
			jump = 0.05
		}
		cur := rng.Intn(s.Pages)
		for i := range seq {
			seq[i] = base + core.PageID(cur)
			if rng.Float64() < jump {
				cur = rng.Intn(s.Pages)
			} else if rng.Intn(2) == 0 {
				cur = (cur + 1) % s.Pages
			} else {
				cur = (cur - 1 + s.Pages) % s.Pages
			}
		}
	}
	return seq, nil
}

// phaseLen returns the requests per phase of a Phased spec of at least
// one request: the length split over Phases (8 when unset) phases,
// rounded up. It divides before it adds, so a Phases near the int limit
// cannot overflow into a non-positive phase length.
func (s Spec) phaseLen() int {
	phases := s.Phases
	if phases <= 0 {
		phases = 8
	}
	return (s.Length-1)/phases + 1
}

// Permutations returns how many permutations of Pages pages Generate
// draws for the spec: one per core for Zipf, empty cores included, one
// per phase each core reaches for Phased, none for the other kinds.
// Each costs Pages steps on top of the requests, so a spec of few
// requests over many pages or phases can still be costly to generate.
func (s Spec) Permutations() int64 {
	switch {
	case s.Kind == Zipf:
		return int64(s.Cores)
	case s.Kind == Phased && s.Length > 0:
		perPhase := s.phaseLen()
		return int64(s.Cores) * int64((s.Length-1)/perPhase+1)
	}
	return 0
}

// mixStream is Mix's sim.DeriveSeed stream ID. Families use stream 0
// (family.go); keeping Mix on its own stream decorrelates the two even
// for equal roots and indices.
const mixStream = 1

// Mix generates one request set per kind with otherwise identical
// parameters — the standard sweep used by the E13 policy matrix. Each
// kind's seed is split off the base seed through the sim.DeriveSeed
// splitmix64 chain: the old `base.Seed + i*1000003` stride left kind 0
// on base.Seed itself, so Mix's first entry replayed Generate(base)'s
// exact stream instead of an independent one.
func Mix(base Spec) (map[Kind]core.RequestSet, error) {
	out := make(map[Kind]core.RequestSet, len(Kinds()))
	for i, k := range Kinds() {
		s := base
		s.Kind = k
		s.Seed = sim.DeriveSeed(base.Seed, mixStream, int64(i))
		rs, err := Generate(s)
		if err != nil {
			return nil, err
		}
		out[k] = rs
	}
	return out, nil
}

// Compose builds a heterogeneous request set: one spec per core (each
// spec's Cores field is ignored), with every core placed in its own
// private page namespace. It is the generator behind mixed workloads
// like "one scanning core plus three zipf cores".
func Compose(specs []Spec) (core.RequestSet, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("workload: Compose needs at least one spec")
	}
	rs := make(core.RequestSet, len(specs))
	for j, s := range specs {
		s.Cores = 1
		if s.SharedFrac != 0 {
			return nil, fmt.Errorf("workload: Compose does not support shared pools (core %d)", j)
		}
		one, err := Generate(s)
		if err != nil {
			return nil, fmt.Errorf("workload: core %d: %w", j, err)
		}
		seq := one[0]
		base := core.PageID(j * privateStride)
		for i := range seq {
			// Generate already placed core 0 in the base namespace;
			// shift into this core's.
			seq[i] += base
		}
		rs[j] = seq
	}
	return rs, nil
}
