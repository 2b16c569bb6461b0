// Package strategyspec parses the strategy mini-language shared by the
// command-line tools and the server:
//
//	S(<policy>)                 shared cache, e.g. S(LRU), S(ARC)
//	sP[even](<policy>)          static partition, K split evenly
//	sP[opt](<policy>)           offline-optimal static partition (LRU
//	                            curves, or Belady curves for FITF)
//	dP[<controller>](<policy>)  dynamic partition: controller × policy
//	eP[<controller>](<policy>)  elastic partition: the same controllers,
//	                            named for runs under a capacity schedule
//
// Partition controllers and eviction policies are orthogonal: every
// dynamic controller composes with every policy, so dP[ucp](ARC) and
// dP[fair](TINYLFU) are as valid as the classic dP(LRU). The dynamic
// controllers are dP (the Lemma 3 global-LRU donor rule, also written
// dP[lru-global]), dP[fair] (FairShare) and dP[ucp] (utility-based
// cache partitioning). Policies are the names accepted by
// cache.NewFactory, plus FWF in the shared family.
//
// The eP family is the elastic-capacity axis of the grammar: eP[even],
// eP[fair], eP[ucp] and eP (alias eP[lru-global]) build the same
// controller × policy compositions as their sP/dP counterparts but
// carry the elastic label, marking rows meant to run under a
// `-capacity` schedule (every controller re-derives its quota on a
// capacity announcement, so under a constant schedule the eP strategy
// is step-for-step identical to its namesake).
//
// The registry below is the single source of truth for the grammar:
// Build, List and Portfolio all derive from it, as do `mcsim
// -list-strategies`, the server's GET /strategies and the sweep
// portfolios built on top.
package strategyspec

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/mattson"
	"mcpaging/internal/policy"
	"mcpaging/internal/sim"
)

// familyRow is one registry entry: a partition family, the policies it
// accepts, its share of the standard portfolio, and its constructor.
type familyRow struct {
	family string
	desc   string
	// policies returns the accepted policy names, in listing order.
	policies func() []string
	// portfolio and portfolioOffline are the family's contributions to
	// Portfolio(): the online pass and the offline tail.
	portfolio        []string
	portfolioOffline []string
	build            func(ctx context.Context, pol string, rs core.RequestSet, k int, seed int64) (sim.Strategy, error)
}

// allPolicies is the policy set of the partitioned families.
func allPolicies() []string { return cache.PolicyNames() }

// sharedPolicies adds FWF, which lives at the strategy level (it needs
// voluntary evictions) and only exists in the shared family.
func sharedPolicies() []string { return append(cache.PolicyNames(), "FWF") }

// families is the strategy registry, in listing order.
var families = []familyRow{
	{
		family:           "S",
		desc:             "shared cache, global eviction",
		policies:         sharedPolicies,
		portfolio:        []string{"LRU", "FIFO", "CLOCK", "LFU", "MARK", "RMARK", "FWF", "ARC", "SLRU", "LRU2", "TINYLFU"},
		portfolioOffline: []string{"FITF"},
		build: func(_ context.Context, pol string, _ core.RequestSet, _ int, seed int64) (sim.Strategy, error) {
			if pol == "FWF" {
				return policy.NewFWF(), nil
			}
			mk, err := cache.NewFactory(pol, seed)
			if err != nil {
				return nil, err
			}
			return policy.NewShared(mk), nil
		},
	},
	{
		family:    "sP[even]",
		desc:      "static partition, K split evenly across cores",
		policies:  allPolicies,
		portfolio: []string{"LRU"},
		build: func(_ context.Context, pol string, rs core.RequestSet, k int, seed int64) (sim.Strategy, error) {
			mk, err := cache.NewFactory(pol, seed)
			if err != nil {
				return nil, err
			}
			return policy.NewStatic(policy.EvenSizes(k, rs.NumCores()), mk), nil
		},
	},
	{
		family:           "sP[opt]",
		desc:             "offline-optimal static partition from miss curves",
		policies:         allPolicies,
		portfolio:        []string{"LRU"},
		portfolioOffline: []string{"FITF"},
		build: func(ctx context.Context, pol string, rs core.RequestSet, k int, seed int64) (sim.Strategy, error) {
			mk, err := cache.NewFactory(pol, seed)
			if err != nil {
				return nil, err
			}
			var part mattson.Partition
			if pol == "FITF" {
				part, err = mattson.OptimalOPT(ctx, rs, k)
			} else {
				part, err = mattson.OptimalLRU(ctx, rs, k)
			}
			if err != nil {
				return nil, err
			}
			return policy.NewStatic(part.Sizes, mk), nil
		},
	},
	{
		family:    "dP",
		desc:      "dynamic partition, Lemma 3 global-LRU donor rule",
		policies:  allPolicies,
		portfolio: []string{"LRU"},
		build: func(_ context.Context, pol string, _ core.RequestSet, _ int, seed int64) (sim.Strategy, error) {
			mk, err := cache.NewFactory(pol, seed)
			if err != nil {
				return nil, err
			}
			return policy.NewPartitioned(policy.GlobalLRUController(), mk), nil
		},
	},
	{
		family:    "dP[fair]",
		desc:      "dynamic partition, FairShare fault-balancing controller",
		policies:  allPolicies,
		portfolio: []string{"LRU"},
		build: func(_ context.Context, pol string, _ core.RequestSet, _ int, seed int64) (sim.Strategy, error) {
			mk, err := cache.NewFactory(pol, seed)
			if err != nil {
				return nil, err
			}
			return policy.NewPartitioned(policy.FairController(0), mk), nil
		},
	},
	{
		family:    "dP[ucp]",
		desc:      "dynamic partition, utility-based (UCP) controller",
		policies:  allPolicies,
		portfolio: []string{"LRU"},
		build: func(_ context.Context, pol string, _ core.RequestSet, _ int, seed int64) (sim.Strategy, error) {
			mk, err := cache.NewFactory(pol, seed)
			if err != nil {
				return nil, err
			}
			return policy.NewPartitioned(policy.UCPController(0), mk), nil
		},
	},
	{
		family:   "eP",
		desc:     "elastic partition, global-LRU donor under K(t)",
		policies: allPolicies,
		build: func(_ context.Context, pol string, _ core.RequestSet, _ int, seed int64) (sim.Strategy, error) {
			return buildElastic("eP[lru-global]", policy.GlobalLRUController(), pol, seed)
		},
	},
	{
		family:   "eP[even]",
		desc:     "elastic partition, even split rescaled with K(t)",
		policies: allPolicies,
		build: func(_ context.Context, pol string, rs core.RequestSet, k int, seed int64) (sim.Strategy, error) {
			ctrl := policy.StaticController(policy.EvenSizes(k, rs.NumCores()))
			return buildElastic("eP[even]", ctrl, pol, seed)
		},
	},
	{
		family:   "eP[fair]",
		desc:     "elastic partition, FairShare quota rescaled with K(t)",
		policies: allPolicies,
		build: func(_ context.Context, pol string, _ core.RequestSet, _ int, seed int64) (sim.Strategy, error) {
			return buildElastic("eP[fair]", policy.FairController(0), pol, seed)
		},
	},
	{
		family:   "eP[ucp]",
		desc:     "elastic partition, UCP reallocation over K(t) cells",
		policies: allPolicies,
		build: func(_ context.Context, pol string, _ core.RequestSet, _ int, seed int64) (sim.Strategy, error) {
			return buildElastic("eP[ucp]", policy.UCPController(0), pol, seed)
		},
	},
}

// elasticController relabels a partition controller with its eP-family
// name; behaviour is untouched (elasticity lives in the engine and in
// the controllers' own Capacity hooks).
type elasticController struct {
	policy.Controller
	label string
}

func (c elasticController) Name() string { return c.label }

// buildElastic composes an eP row: the wrapped controller over the
// named eviction policy.
func buildElastic(label string, ctrl policy.Controller, pol string, seed int64) (sim.Strategy, error) {
	mk, err := cache.NewFactory(pol, seed)
	if err != nil {
		return nil, err
	}
	return policy.NewPartitioned(elasticController{ctrl, label}, mk), nil
}

// familyAliases maps accepted alternate spellings to registry families.
var familyAliases = map[string]string{
	"dP[lru-global]": "dP",
	"eP[lru-global]": "eP",
}

// familyByName resolves a family head, following aliases.
func familyByName(head string) *familyRow {
	if canon, ok := familyAliases[head]; ok {
		head = canon
	}
	for i := range families {
		if families[i].family == head {
			return &families[i]
		}
	}
	return nil
}

// FamilyNames lists the registry families in listing order.
func FamilyNames() []string {
	out := make([]string, len(families))
	for i := range families {
		out[i] = families[i].family
	}
	return out
}

// Build is BuildContext without a deadline.
func Build(spec string, rs core.RequestSet, k int, seed int64) (sim.Strategy, error) {
	//mcvet:ignore ctxflow Build is the documented synchronous wrapper: a caller without a ctx is its own cancellation root
	return BuildContext(context.TODO(), spec, rs, k, seed)
}

// BuildContext parses a spec and constructs the strategy for the given
// request set and cache size. The request set is needed because sP[opt]
// computes its partition from the workload's miss curves, which stop
// with ctx's error once ctx is done; seed drives RAND and RMARK.
func BuildContext(ctx context.Context, spec string, rs core.RequestSet, k int, seed int64) (sim.Strategy, error) {
	spec = strings.TrimSpace(spec)
	open := strings.Index(spec, "(")
	if open < 0 || !strings.HasSuffix(spec, ")") {
		return nil, fmt.Errorf("strategyspec: bad spec %q (want family(policy), e.g. S(LRU) or dP[ucp](ARC))", spec)
	}
	head, pol := spec[:open], spec[open+1:len(spec)-1]
	row := familyByName(head)
	if row == nil {
		return nil, fmt.Errorf("strategyspec: unknown family %q (valid: %s)",
			head, strings.Join(FamilyNames(), ", "))
	}
	if !slices.Contains(row.policies(), pol) {
		return nil, fmt.Errorf("strategyspec: family %s does not accept policy %q (valid: %s)",
			row.family, pol, strings.Join(row.policies(), ", "))
	}
	return row.build(ctx, pol, rs, k, seed)
}

// Combo is one buildable strategy spec, with its family and policy
// split out and a one-line description of the family's semantics. It is
// the unit of List, consumed by `mcsim -list-strategies` and the
// server's GET /strategies endpoint.
type Combo struct {
	Spec   string `json:"spec"`
	Family string `json:"family"`
	Policy string `json:"policy"`
	Desc   string `json:"desc"`
}

// List enumerates every family/policy combination Build accepts, in a
// stable order (registry order, policies in each family's listing
// order). Every returned spec is guaranteed to construct: the
// round-trip is covered by tests and FuzzBuild seeds.
func List() []Combo {
	var out []Combo
	for i := range families {
		f := &families[i]
		for _, p := range f.policies() {
			out = append(out, Combo{
				Spec:   f.family + "(" + p + ")",
				Family: f.family,
				Policy: p,
				Desc:   f.desc,
			})
		}
	}
	return out
}

// Portfolio returns the standard strategy portfolio run by `mcsim -all`:
// each family's online picks in registry order, then the offline tail
// (FITF-based strategies, which need future knowledge).
func Portfolio() []string {
	var out []string
	for i := range families {
		for _, p := range families[i].portfolio {
			out = append(out, families[i].family+"("+p+")")
		}
	}
	for i := range families {
		for _, p := range families[i].portfolioOffline {
			out = append(out, families[i].family+"("+p+")")
		}
	}
	return out
}
