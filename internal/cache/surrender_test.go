package cache_test

import (
	"math/rand"
	"testing"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/policy"
)

// fixedOracle gives FITF a deterministic future without a simulator.
type fixedOracle struct{}

func (fixedOracle) NextUse(p core.PageID) int64        { return int64(p%7) * 11 }
func (fixedOracle) Original(p core.PageID) core.PageID { return p }

// shrinkView is the sim.View of a cache whose pages are all resident,
// with fixedOracle's future.
type shrinkView struct {
	fixedOracle
	cached []bool // by page ID
	n, k   int    // cached pages, capacity
}

func (v *shrinkView) Resident(p core.PageID) bool { return v.cached[p] }
func (v *shrinkView) InFlight(core.PageID) bool   { return false }
func (v *shrinkView) Cached(p core.PageID) bool   { return v.cached[p] }
func (v *shrinkView) Free() int                   { return v.k - v.n }
func (v *shrinkView) K() int                      { return v.k }
func (v *shrinkView) Tau() int                    { return 0 }
func (v *shrinkView) Now() int64                  { return 0 }

func (v *shrinkView) set(p core.PageID, cached bool) {
	if cached {
		v.n++
	} else {
		v.n--
	}
	v.cached[p] = cached
}

// TestSurrenderMatchesEvict pins the shrink half of the partition
// contract: for every policy, a shrinking shared cache surrenders
// exactly the page the policy's Evict picks. A bare policy and a
// same-seed S(policy) receive an identical request mix; whenever the
// cache is full the bare policy makes room with Evict and the strategy
// with SurrenderOne, and the victims must agree at every step (which
// also keeps the twins in lockstep), down to draining the last page.
func TestSurrenderMatchesEvict(t *testing.T) {
	const k, pages = 8, 24
	for _, name := range cache.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			mk, err := cache.NewFactory(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			twin := mk()
			twin.Resize(k)
			if ou, ok := twin.(cache.OracleUser); ok {
				ou.SetOracle(fixedOracle{})
			}
			s := policy.NewShared(mk)
			if err := s.Init(core.Instance{R: core.RequestSet{{0}}, P: core.Params{K: k}}); err != nil {
				t.Fatal(err)
			}
			v := &shrinkView{cached: make([]bool, pages), k: k}
			shrink := func(step string) {
				want, wantOK := twin.Evict(nil)
				got, ok := s.SurrenderOne(v)
				if !ok || ok != wantOK || got != want {
					t.Fatalf("%s: SurrenderOne=(%d,%v) Evict=(%d,%v)", step, got, ok, want, wantOK)
				}
				v.set(got, false)
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 400; i++ {
				pg := core.PageID(rng.Intn(pages))
				at := cache.Access{Time: int64(i)}
				if v.cached[pg] != twin.Contains(pg) {
					t.Fatalf("op %d: twins diverged on page %d", i, pg)
				}
				if v.cached[pg] {
					s.OnHit(pg, at)
					twin.Touch(pg, at)
					continue
				}
				if v.Free() == 0 {
					shrink("fault")
				}
				if w := s.OnFault(pg, at, v); w != core.NoPage {
					t.Fatalf("op %d: fault with a free cell evicted %d", i, w)
				}
				twin.Insert(pg, at)
				v.set(pg, true)
			}
			for v.n > 0 {
				shrink("drain")
			}
			if twin.Len() != 0 {
				t.Fatalf("drained cache, twin still holds %d pages", twin.Len())
			}
		})
	}
}
