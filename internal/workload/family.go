package workload

// Stochastic instance families for the verification harness. A Family
// is a distribution over request sets, registrable by spec string the
// way strategies are registrable via strategyspec:
//
//	zipf(cores=4,length=4096,pages=256,s=1.3)
//	phased(cores=4,length=4096,pages=256,phases=8,ws=16)
//	corr(cores=4,length=4096,pages=128,rho=0.8,dwell=256)
//	trace(path=traces/app.txt,rewrite=0.02,swap=0.01)
//	thm1(p=4,k=8,tau=2,x=16)
//	lemma1(p=4,k=8,percore=1024)
//	lemma2(p=4,k=8,percore=1024)
//	lemma4(p=4,k=8,percore=1024)
//
// Family.Sample(seed) draws one instance: the same (spec, seed) pair
// always yields the identical request set byte for byte, and distinct
// seeds yield distinct draws — a refuted statistical claim is therefore
// replayable from its counterexample seeds alone. The synthetic
// families wrap the Spec generators of this package; the adversarial
// families (thm1, lemma1/2/4) sample around the paper's lower-bound
// constructions by jittering their free parameters (sequence length,
// cycle count) with the seeded RNG, so every draw still realizes the
// construction's worst-case property.

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"

	"mcpaging/internal/adversary"
	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/trace"
)

// Family is one parameterized instance distribution, built by
// ParseFamily. The zero value is not usable.
type Family struct {
	spec string
	def  *familyDef
	par  famParams
}

// familyDef is one registry row.
type familyDef struct {
	name string
	desc string
	// keys lists the accepted parameters (defaults in parentheses in
	// the usage string); unknown keys are a parse error.
	keys   []string
	sample func(p famParams, seed int64) (core.RequestSet, error)
}

// famParams holds the parsed key=value pairs of a family spec.
type famParams map[string]string

func (p famParams) intOr(key string, def int) (int, error) {
	raw, ok := p[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not an integer", key, raw)
	}
	return v, nil
}

func (p famParams) floatOr(key string, def float64) (float64, error) {
	raw, ok := p[key]
	if !ok {
		return def, nil
	}
	v, err := strconv.ParseFloat(raw, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not a number", key, raw)
	}
	return v, nil
}

// synthKeys are the parameters shared by every synthetic family.
var synthKeys = []string{"cores", "length", "pages", "shared", "sharedpages"}

// synthSpec assembles the common Spec fields of the synthetic families.
func synthSpec(p famParams, kind Kind, seed int64) (Spec, error) {
	s := Spec{Kind: kind, Seed: seed}
	var err error
	if s.Cores, err = p.intOr("cores", 4); err != nil {
		return s, err
	}
	if s.Length, err = p.intOr("length", 4096); err != nil {
		return s, err
	}
	if s.Pages, err = p.intOr("pages", 256); err != nil {
		return s, err
	}
	if s.SharedFrac, err = p.floatOr("shared", 0); err != nil {
		return s, err
	}
	if s.SharedPages, err = p.intOr("sharedpages", 0); err != nil {
		return s, err
	}
	return s, nil
}

// advParams reads the common adversarial parameters: p, k and the
// jitter base. jitterKey names the free length parameter of the
// construction.
func advParams(par famParams, jitterKey string, jitterDef int) (p, k, base int, err error) {
	if p, err = par.intOr("p", 4); err != nil {
		return
	}
	if k, err = par.intOr("k", 2*p); err != nil {
		return
	}
	if base, err = par.intOr(jitterKey, jitterDef); err != nil {
		return
	}
	if base < 1 {
		err = fmt.Errorf("parameter %s must be >= 1", jitterKey)
	}
	return
}

// jitter draws a value in [base, 2*base) — the adversarial families'
// free parameters scale the construction without breaking its
// worst-case property.
func jitter(rng *rand.Rand, base int) int { return base + rng.Intn(base) }

// families is the registry, in listing order.
var families = []familyDef{
	{
		name: "uniform", desc: "independent uniform draws per core",
		keys: synthKeys,
		sample: func(p famParams, seed int64) (core.RequestSet, error) {
			s, err := synthSpec(p, Uniform, seed)
			if err != nil {
				return nil, err
			}
			return Generate(s)
		},
	},
	{
		name: "zipf", desc: "Zipf-skewed page popularity per core",
		keys: append([]string{"s", "v"}, synthKeys...),
		sample: func(p famParams, seed int64) (core.RequestSet, error) {
			s, err := synthSpec(p, Zipf, seed)
			if err != nil {
				return nil, err
			}
			if s.ZipfS, err = p.floatOr("s", 1.2); err != nil {
				return nil, err
			}
			if s.ZipfV, err = p.floatOr("v", 1); err != nil {
				return nil, err
			}
			return Generate(s)
		},
	},
	{
		name: "loop", desc: "sequential scans over the core's page range",
		keys: synthKeys,
		sample: func(p famParams, seed int64) (core.RequestSet, error) {
			s, err := synthSpec(p, Loop, seed)
			if err != nil {
				return nil, err
			}
			return Generate(s)
		},
	},
	{
		name: "phased", desc: "phase-shifting working sets per core",
		keys: append([]string{"phases", "ws"}, synthKeys...),
		sample: func(p famParams, seed int64) (core.RequestSet, error) {
			s, err := synthSpec(p, Phased, seed)
			if err != nil {
				return nil, err
			}
			if s.Phases, err = p.intOr("phases", 0); err != nil {
				return nil, err
			}
			if s.WorkingSet, err = p.intOr("ws", 0); err != nil {
				return nil, err
			}
			return Generate(s)
		},
	},
	{
		name: "markov", desc: "ring random walk with uniform jumps",
		keys: append([]string{"jump"}, synthKeys...),
		sample: func(p famParams, seed int64) (core.RequestSet, error) {
			s, err := synthSpec(p, Markov, seed)
			if err != nil {
				return nil, err
			}
			if s.JumpProb, err = p.floatOr("jump", 0); err != nil {
				return nil, err
			}
			return Generate(s)
		},
	},
	{
		name: "corr", desc: "cross-core-correlated phase-shifting streams",
		keys:   []string{"cores", "length", "pages", "rho", "ws", "dwell"},
		sample: sampleCorrelated,
	},
	{
		name: "mixed", desc: "one scanning core plus zipf cores",
		keys:   []string{"cores", "length", "pages", "s"},
		sample: sampleMixed,
	},
	{
		name: "trace", desc: "committed trace replay with seeded perturbation",
		keys:   []string{"path", "rewrite", "swap"},
		sample: sampleTrace,
	},
	{
		name: "thm1", desc: "Theorem 1(1) round-robin distinct periods (shared LRU beats static partitions)",
		keys: []string{"p", "k", "tau", "x"},
		sample: func(par famParams, seed int64) (core.RequestSet, error) {
			p, k, x, err := advParams(par, "x", 16)
			if err != nil {
				return nil, err
			}
			tau, err := par.intOr("tau", 2)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed))
			return adversary.Theorem1Round(p, k, tau, jitter(rng, x))
		},
	},
	{
		name: "lemma1", desc: "Lemma 1 cycling core under a fixed even partition (per-part LRU vs per-part OPT)",
		keys: []string{"p", "k", "percore"},
		sample: func(par famParams, seed int64) (core.RequestSet, error) {
			p, k, percore, err := advParams(par, "percore", 1024)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed))
			return adversary.Lemma1(evenSizes(k, p), jitter(rng, percore))
		},
	},
	{
		name: "lemma2", desc: "Lemma 2 thrashing cores vs the offline static partition",
		keys: []string{"p", "k", "percore"},
		sample: func(par famParams, seed int64) (core.RequestSet, error) {
			p, k, percore, err := advParams(par, "percore", 1024)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed))
			return adversary.Lemma2(evenSizes(k, p), jitter(rng, percore))
		},
	},
	{
		name: "lemma4", desc: "Lemma 4 cyclic sequences (shared LRU thrashes, sacrifice wins)",
		keys: []string{"p", "k", "percore"},
		sample: func(par famParams, seed int64) (core.RequestSet, error) {
			p, k, percore, err := advParams(par, "percore", 1024)
			if err != nil {
				return nil, err
			}
			rng := rand.New(rand.NewSource(seed))
			return adversary.Lemma4(p, k, jitter(rng, percore))
		},
	},
}

// evenSizes splits K into p near-even partition sizes (largest first),
// mirroring policy.EvenSizes without importing the policy layer.
func evenSizes(k, p int) []int {
	sizes := make([]int, p)
	base, rem := k/p, k%p
	for j := range sizes {
		sizes[j] = base
		if j < rem {
			sizes[j]++
		}
	}
	return sizes
}

// sampleCorrelated draws cross-core-correlated streams: a shared phase
// driver re-picks a working set of ws pages every dwell requests, and at
// every index each core requests the driver's current page with
// probability rho (mapped into its own private namespace, so the
// request set stays disjoint and the correlation lives purely in the
// access pattern) and a uniform private page otherwise. High rho means
// the cores fault in synchronized bursts at phase boundaries — the
// workload shape that stresses partition controllers, which see all
// cores demand capacity at once.
func sampleCorrelated(p famParams, seed int64) (core.RequestSet, error) {
	cores, err := p.intOr("cores", 4)
	if err != nil {
		return nil, err
	}
	length, err := p.intOr("length", 4096)
	if err != nil {
		return nil, err
	}
	pages, err := p.intOr("pages", 128)
	if err != nil {
		return nil, err
	}
	rho, err := p.floatOr("rho", 0.8)
	if err != nil {
		return nil, err
	}
	ws, err := p.intOr("ws", 0)
	if err != nil {
		return nil, err
	}
	dwell, err := p.intOr("dwell", 256)
	if err != nil {
		return nil, err
	}
	if cores < 1 || pages < 1 || length < 0 || pages >= privateStride {
		return nil, fmt.Errorf("workload: corr: bad cores/length/pages (%d/%d/%d)", cores, length, pages)
	}
	if rho < 0 || rho > 1 {
		return nil, fmt.Errorf("workload: corr: rho %v outside [0,1]", rho)
	}
	if ws <= 0 {
		ws = pages / 8
	}
	if ws < 2 {
		ws = 2
	}
	if ws > pages {
		ws = pages
	}
	if dwell < 1 {
		dwell = 1
	}
	rng := rand.New(rand.NewSource(seed))
	rs := make(core.RequestSet, cores)
	for j := range rs {
		rs[j] = make(core.Sequence, length)
	}
	var set []int
	for i := 0; i < length; i++ {
		if i%dwell == 0 {
			set = rng.Perm(pages)[:ws]
		}
		shared := set[rng.Intn(ws)]
		for j := 0; j < cores; j++ {
			pg := shared
			if rng.Float64() >= rho {
				pg = rng.Intn(pages)
			}
			rs[j][i] = core.PageID(j*privateStride + pg)
		}
	}
	return rs, nil
}

// sampleMixed composes one scanning (loop) core with cores-1 zipf
// cores: the asymmetric-pressure workload on which fault-fairness
// controllers separate from even splits.
func sampleMixed(p famParams, seed int64) (core.RequestSet, error) {
	cores, err := p.intOr("cores", 4)
	if err != nil {
		return nil, err
	}
	length, err := p.intOr("length", 4096)
	if err != nil {
		return nil, err
	}
	pages, err := p.intOr("pages", 128)
	if err != nil {
		return nil, err
	}
	zs, err := p.floatOr("s", 1.2)
	if err != nil {
		return nil, err
	}
	if cores < 2 {
		return nil, fmt.Errorf("workload: mixed needs cores >= 2, got %d", cores)
	}
	specs := make([]Spec, cores)
	specs[0] = Spec{Cores: 1, Length: length, Pages: pages, Kind: Loop,
		Seed: sim.DeriveSeed(seed, 0, 0)}
	for j := 1; j < cores; j++ {
		specs[j] = Spec{Cores: 1, Length: length, Pages: pages, Kind: Zipf,
			ZipfS: zs, Seed: sim.DeriveSeed(seed, 0, int64(j))}
	}
	return Compose(specs)
}

// sampleTrace replays a committed trace (text or binary, told apart by
// trace.ReadAuto) through a seeded perturbation pass: each request is
// rewritten to another page of the same core's observed page set with
// probability rewrite, and adjacent same-core requests are swapped with
// probability swap. The perturbed replay keeps the trace's locality
// structure while making every seed a distinct instance, so trace-based
// claims are statistical rather than single-replay.
func sampleTrace(p famParams, seed int64) (core.RequestSet, error) {
	path, ok := p["path"]
	if !ok || path == "" {
		return nil, fmt.Errorf("workload: trace family needs path=...")
	}
	rewrite, err := p.floatOr("rewrite", 0.02)
	if err != nil {
		return nil, err
	}
	swap, err := p.floatOr("swap", 0.01)
	if err != nil {
		return nil, err
	}
	if rewrite < 0 || rewrite > 1 || swap < 0 || swap > 1 {
		return nil, fmt.Errorf("workload: trace: rewrite/swap outside [0,1]")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("workload: trace family: %w", err)
	}
	defer f.Close()
	rs, err := trace.ReadAuto(f)
	if err != nil {
		return nil, fmt.Errorf("workload: trace family: %w", err)
	}
	rng := rand.New(rand.NewSource(seed))
	for j, seq := range rs {
		// Collect the core's distinct pages in first-appearance order
		// (deterministic; no map iteration).
		seen := make(map[core.PageID]bool, 64)
		var pagesOf []core.PageID
		out := make(core.Sequence, len(seq))
		copy(out, seq)
		for _, pg := range seq {
			if !seen[pg] {
				seen[pg] = true
				pagesOf = append(pagesOf, pg)
			}
		}
		for i := range out {
			if rewrite > 0 && rng.Float64() < rewrite {
				out[i] = pagesOf[rng.Intn(len(pagesOf))]
			}
		}
		for i := 0; i+1 < len(out); i++ {
			if swap > 0 && rng.Float64() < swap {
				out[i], out[i+1] = out[i+1], out[i]
			}
		}
		rs[j] = out
	}
	return rs, nil
}

// familyByName resolves a registry row.
func familyByName(name string) *familyDef {
	for i := range families {
		if families[i].name == name {
			return &families[i]
		}
	}
	return nil
}

// FamilyNames lists the registered families in listing order.
func FamilyNames() []string {
	out := make([]string, len(families))
	for i := range families {
		out[i] = families[i].name
	}
	return out
}

// FamilyInfo describes one registered family for listings.
type FamilyInfo struct {
	Name   string   `json:"name"`
	Desc   string   `json:"desc"`
	Params []string `json:"params"`
}

// ListFamilies enumerates the registry in listing order.
func ListFamilies() []FamilyInfo {
	out := make([]FamilyInfo, len(families))
	for i := range families {
		out[i] = FamilyInfo{
			Name:   families[i].name,
			Desc:   families[i].desc,
			Params: append([]string(nil), families[i].keys...),
		}
	}
	return out
}

// ParseFamily parses a family spec string, name(key=val,...), against
// the registry. The parameter list may be empty (defaults apply);
// unknown families and unknown or malformed parameters are errors.
func ParseFamily(spec string) (*Family, error) {
	spec = strings.TrimSpace(spec)
	open := strings.Index(spec, "(")
	name, arglist := spec, ""
	if open >= 0 {
		if !strings.HasSuffix(spec, ")") {
			return nil, fmt.Errorf("workload: bad family spec %q (want name(key=val,...))", spec)
		}
		name, arglist = spec[:open], spec[open+1:len(spec)-1]
	}
	def := familyByName(name)
	if def == nil {
		return nil, fmt.Errorf("workload: unknown family %q (valid: %s)",
			name, strings.Join(FamilyNames(), ", "))
	}
	par := famParams{}
	var keys []string // spec order, so unknown-key errors are stable
	if strings.TrimSpace(arglist) != "" {
		for _, kv := range strings.Split(arglist, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(kv), "=")
			if !ok || key == "" {
				return nil, fmt.Errorf("workload: family %s: bad parameter %q (want key=val)", name, kv)
			}
			if _, dup := par[key]; dup {
				return nil, fmt.Errorf("workload: family %s: duplicate parameter %q", name, key)
			}
			par[key] = val
			keys = append(keys, key)
		}
	}
	var unknown []string
	for _, key := range keys {
		found := false
		for _, k := range def.keys {
			if k == key {
				found = true
				break
			}
		}
		if !found {
			unknown = append(unknown, key)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("workload: family %s does not accept %s (valid: %s)",
			name, strings.Join(unknown, ", "), strings.Join(def.keys, ", "))
	}
	f := &Family{spec: spec, def: def, par: par}
	// Fail fast on malformed values: a throwaway sample surfaces
	// strconv and range errors at parse time rather than mid-proof.
	if _, err := f.Sample(0); err != nil {
		return nil, err
	}
	return f, nil
}

// Name returns the family's registry name.
func (f *Family) Name() string { return f.def.name }

// String returns the spec the family was parsed from.
func (f *Family) String() string { return f.spec }

// Sample draws the instance for one seed. The draw is deterministic in
// (spec, seed).
func (f *Family) Sample(seed int64) (core.RequestSet, error) {
	return f.def.sample(f.par, seed)
}
