package cache

import (
	"math/rand"
	"testing"

	"mcpaging/internal/core"
)

// fixedOracle gives FITF a deterministic future without a simulator.
type fixedOracle struct{}

func (fixedOracle) NextUse(p core.PageID) int64        { return int64(p%7) * 11 }
func (fixedOracle) Original(p core.PageID) core.PageID { return p }

// TestSurrenderMatchesEvict pins the shrink half of the partition
// contract: for every policy, Surrender selects exactly the page Evict
// would. Two same-seed instances receive an identical request mix; one
// makes room with Evict, the other with Surrender, and the victims must
// agree at every step (which also keeps the twins in lockstep).
func TestSurrenderMatchesEvict(t *testing.T) {
	all := func(core.PageID) bool { return true }
	const cap = 8
	for _, name := range PolicyNames() {
		t.Run(name, func(t *testing.T) {
			mk, err := NewFactory(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			a, b := mk(), mk()
			for _, p := range []Policy{a, b} {
				p.Resize(cap)
				if ou, ok := p.(OracleUser); ok {
					ou.SetOracle(fixedOracle{})
				}
			}
			rng := rand.New(rand.NewSource(7))
			for i := 0; i < 400; i++ {
				pg := core.PageID(rng.Intn(24))
				at := Access{Core: 0, Time: int64(i)}
				if a.Contains(pg) != b.Contains(pg) {
					t.Fatalf("op %d: twins diverged on page %d", i, pg)
				}
				if a.Contains(pg) {
					a.Touch(pg, at)
					b.Touch(pg, at)
					continue
				}
				if a.Len() == cap {
					va, oka := a.Evict(all)
					vb, okb := b.Surrender(all)
					if oka != okb || va != vb {
						t.Fatalf("op %d: Evict=(%d,%v) Surrender=(%d,%v)", i, va, oka, vb, okb)
					}
				}
				a.Insert(pg, at)
				b.Insert(pg, at)
			}
			// Drain: surrendering every remaining cell must follow the
			// policy's eviction order to the last page.
			for a.Len() > 0 {
				va, oka := a.Evict(all)
				vb, okb := b.Surrender(all)
				if oka != okb || va != vb {
					t.Fatalf("drain: Evict=(%d,%v) Surrender=(%d,%v)", va, oka, vb, okb)
				}
				if !oka {
					break
				}
			}
		})
	}
}
