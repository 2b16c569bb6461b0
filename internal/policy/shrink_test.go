package policy

import (
	"testing"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
)

// scriptController is a Controller whose single quota change is scripted:
// at the first tick it applies the change and reports a repartition.
type scriptController struct {
	quota  []int
	change func(q []int)
	done   bool
}

func (c *scriptController) Name() string                            { return "script" }
func (c *scriptController) Init(core.Instance) error                { return nil }
func (c *scriptController) Quota() []int                            { return c.quota }
func (c *scriptController) Hit(core.PageID, cache.Access)           {}
func (c *scriptController) Join(core.PageID, cache.Access)          {}
func (c *scriptController) Inserted(int, core.PageID, cache.Access) {}
func (c *scriptController) Evicted(core.PageID)                     {}
func (c *scriptController) Donor(j int, _ PartView, _ func(core.PageID) bool) (int, bool) {
	return j, true
}
func (c *scriptController) StealOnEmpty() bool { return false }
func (c *scriptController) Tick(int64) bool {
	if c.done || c.change == nil {
		return false
	}
	c.done = true
	c.change(c.quota)
	return true
}
func (c *scriptController) Ticks() bool              { return true }
func (c *scriptController) Capacity(int, int64) bool { return false }

// zeroOracle mirrors what a FITF part sees through fakeView (NextUse 0).
type zeroOracle struct{}

func (zeroOracle) NextUse(core.PageID) int64          { return 0 }
func (zeroOracle) Original(p core.PageID) core.PageID { return p }

// TestShrinkSurrendersPolicyVictim is the partition-contract property
// test: for every eviction policy, shrinking a part by one cell at a
// step boundary surrenders exactly the page the policy itself would
// evict — and never a page owned by another part. A same-seed twin
// instance of the policy predicts the victim.
func TestShrinkSurrendersPolicyVictim(t *testing.T) {
	for _, name := range cache.PolicyNames() {
		t.Run(name, func(t *testing.T) {
			mk, err := cache.NewFactory(name, 42)
			if err != nil {
				t.Fatal(err)
			}
			ctrl := &scriptController{
				quota:  []int{3, 3},
				change: func(q []int) { q[0], q[1] = 2, 3 },
			}
			s := NewPartitioned(ctrl, mk)
			in := core.Instance{R: core.RequestSet{{1}, {1}}, P: core.Params{K: 6}}
			if err := s.Init(in); err != nil {
				t.Fatal(err)
			}
			v := &fakeView{resident: map[core.PageID]bool{}, free: 6, k: 6}

			// The twin mirrors part 0's policy operation for operation.
			twin := mk()
			twin.Resize(3)
			if ou, ok := twin.(cache.OracleUser); ok {
				ou.SetOracle(zeroOracle{})
			}
			for i, pg := range []core.PageID{1, 2, 3} {
				at := acc(0, int64(i))
				if got := s.OnFault(pg, at, v); got != core.NoPage {
					t.Fatalf("fill: unexpected victim %d", got)
				}
				v.resident[pg] = true
				v.free--
				twin.Insert(pg, at)
			}
			for i, pg := range []core.PageID{11, 12, 13} {
				at := acc(1, int64(3+i))
				if got := s.OnFault(pg, at, v); got != core.NoPage {
					t.Fatalf("fill: unexpected victim %d", got)
				}
				v.resident[pg] = true
				v.free--
			}

			// Predict part 0's victim after the quota cut, then tick.
			twin.Resize(2)
			want, ok := twin.Evict(func(core.PageID) bool { return true })
			if !ok {
				t.Fatal("twin refused to evict")
			}
			out := s.OnTick(64, v)
			if len(out) != 1 {
				t.Fatalf("shed %v, want exactly one page", out)
			}
			if out[0] != want {
				t.Fatalf("surrendered page %d, want the policy's victim %d", out[0], want)
			}
			for _, pg := range []core.PageID{11, 12, 13} {
				if out[0] == pg {
					t.Fatalf("victim %d belongs to another core's part", pg)
				}
			}
			if s.occ[0] != 2 || s.occ[1] != 3 {
				t.Fatalf("occupancies after shrink: %v", s.occ)
			}
			if _, owned := s.Owner(out[0]); owned {
				t.Fatalf("surrendered page %d still owned", out[0])
			}
		})
	}
}
