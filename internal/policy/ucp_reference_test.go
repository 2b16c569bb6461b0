package policy

import (
	"math/rand"
	"reflect"
	"testing"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
)

// refUmon is the UCP utility monitor with all k counters from the
// start, as it was before its counters grew with its shadow stack.
type refUmon struct {
	stack []core.PageID
	hits  []int64
}

func newRefUmon(k int) *refUmon {
	return &refUmon{stack: make([]core.PageID, 0, k), hits: make([]int64, k)}
}

func (m *refUmon) access(p core.PageID) {
	for i, q := range m.stack {
		if q == p {
			m.hits[i]++
			copy(m.stack[1:i+1], m.stack[:i])
			m.stack[0] = p
			return
		}
	}
	if len(m.stack) < cap(m.stack) {
		m.stack = append(m.stack, 0)
	}
	copy(m.stack[1:], m.stack[:len(m.stack)-1])
	m.stack[0] = p
}

func (m *refUmon) decay(d int64) {
	for i := range m.hits {
		m.hits[i] /= d
	}
}

// refUCPController is ucpController as it was before its work was
// bounded by the pages the cores touch: K-deep monitors, decayed to
// depth K, and K cells handed out one at a time every window.
type refUCPController struct {
	window int64
	decay  int64
	k      int
	quota  []int
	mons   []*refUmon
	nextAt int64
	active []bool
}

func (c *refUCPController) Init(inst core.Instance) {
	p := inst.R.NumCores()
	c.k = inst.P.K
	c.active = make([]bool, p)
	for j := range c.active {
		c.active[j] = len(inst.R[j]) > 0
	}
	c.quota = seedQuota(c.quota, c.k, c.active)
	c.mons = make([]*refUmon, p)
	for j := range c.mons {
		c.mons[j] = newRefUmon(c.k)
	}
	c.nextAt = c.window
}

func (c *refUCPController) repartition() {
	p := len(c.quota)
	alloc := make([]int, p)
	remaining := c.k
	for j := 0; j < p; j++ {
		if c.active[j] {
			alloc[j] = 1
			remaining--
		}
	}
	for ; remaining > 0; remaining-- {
		best, bestGain := -1, int64(-1)
		for j := 0; j < p; j++ {
			if !c.active[j] || alloc[j] >= c.k {
				continue
			}
			var gain int64
			if alloc[j] < len(c.mons[j].hits) {
				gain = c.mons[j].hits[alloc[j]]
			}
			if gain > bestGain {
				best, bestGain = j, gain
			}
		}
		if best == -1 {
			break
		}
		alloc[best]++
	}
	copy(c.quota, alloc)
	for _, m := range c.mons {
		m.decay(c.decay)
	}
}

func (c *refUCPController) Tick(t int64) bool {
	if t < c.nextAt {
		return false
	}
	c.nextAt = t + c.window
	c.repartition()
	return true
}

func (c *refUCPController) Capacity(k int) {
	c.k = k
	c.repartition()
}

// TestUCPMatchesReference drives ucpController and the reference with
// the same random monitor traffic, inactive cores, K from a few cells
// to far above the pages the cores touch, and K(t) changes, and
// requires the same quotas after every window and every change. Each
// controller is reused for a second run, as a runner reuses its
// strategy.
func TestUCPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 300; trial++ {
		p := 1 + rng.Intn(4)
		got := UCPController(int64(1 + rng.Intn(24))).(*ucpController)
		want := &refUCPController{window: got.window, decay: got.decay}
		for run := 0; run < 2; run++ {
			rs := make(core.RequestSet, p)
			for j := range rs {
				if j == 0 || rng.Intn(4) != 0 {
					rs[j] = core.Sequence{0}
				}
			}
			k := p + rng.Intn(4)
			if rng.Intn(2) == 0 {
				k += rng.Intn(3000)
			}
			inst := core.Instance{R: rs, P: core.Params{K: k}}
			if err := got.Init(inst); err != nil {
				t.Fatal(err)
			}
			want.Init(inst)
			pages := 1 + rng.Intn(16)
			for step := int64(0); step < 600; step++ {
				j := rng.Intn(p)
				pg := core.PageID(j*1000 + rng.Intn(pages))
				at := cache.Access{Core: j, Time: step}
				switch rng.Intn(3) {
				case 0:
					got.Hit(pg, at)
				case 1:
					got.Join(pg, at)
				default:
					got.Inserted(j, pg, at)
				}
				want.mons[j].access(pg)
				if rng.Intn(80) == 0 {
					nk := p + rng.Intn(2*k)
					got.Capacity(nk, step)
					want.Capacity(nk)
					if !reflect.DeepEqual(got.Quota(), want.quota) {
						t.Fatalf("trial %d run %d step %d: K(t) %d: quota %v, reference %v", trial, run, step, nk, got.Quota(), want.quota)
					}
				}
				if g, w := got.Tick(step), want.Tick(step); g != w {
					t.Fatalf("trial %d run %d step %d: Tick %v, reference %v", trial, run, step, g, w)
				}
				if !reflect.DeepEqual(got.Quota(), want.quota) {
					t.Fatalf("trial %d run %d step %d (K %d): quota %v, reference %v", trial, run, step, k, got.Quota(), want.quota)
				}
			}
		}
	}
}
