package cache

import (
	"math/rand"
	"testing"

	"mcpaging/internal/core"
)

// modelList is a trivially correct recency order: a slice from least to
// most recent. The intrusive recencyList is checked against it under
// randomized operation sequences.
type modelList struct{ pages []core.PageID }

func (m *modelList) find(p core.PageID) int {
	for i, q := range m.pages {
		if q == p {
			return i
		}
	}
	return -1
}

func (m *modelList) insert(p core.PageID) { m.pages = append(m.pages, p) }

func (m *modelList) moveToBack(p core.PageID) {
	if i := m.find(p); i >= 0 {
		m.pages = append(append(m.pages[:i:i], m.pages[i+1:]...), p)
	}
}

func (m *modelList) remove(p core.PageID) bool {
	i := m.find(p)
	if i < 0 {
		return false
	}
	m.pages = append(m.pages[:i:i], m.pages[i+1:]...)
	return true
}

func (m *modelList) evictFront(pred func(core.PageID) bool) (core.PageID, bool) {
	for _, p := range m.pages {
		if pred == nil || pred(p) {
			m.remove(p)
			return p, true
		}
	}
	return core.NoPage, false
}

func (m *modelList) evictBack(pred func(core.PageID) bool) (core.PageID, bool) {
	for i := len(m.pages) - 1; i >= 0; i-- {
		p := m.pages[i]
		if pred == nil || pred(p) {
			m.remove(p)
			return p, true
		}
	}
	return core.NoPage, false
}

// TestRecencyListMatchesModel drives the intrusive array-backed list and
// the slice model with the same random operations and requires identical
// observable behaviour. IDs spread over a range wider than the pool, so
// the node array grows past untouched slots.
func TestRecencyListMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ids := make([]core.PageID, 40)
	for i := range ids {
		ids[i] = core.PageID(rng.Intn(500))
	}

	r := newRecencyList()
	var m modelList
	// evictable: pseudo-random but identical for both structures.
	pred := func(p core.PageID) bool { return (int(p)/7)%3 != 0 }

	for step := 0; step < 20000; step++ {
		p := ids[rng.Intn(len(ids))]
		switch op := rng.Intn(6); op {
		case 0: // insert (skip duplicates, which panic by contract)
			if !r.contains(p) {
				r.insert(p)
				m.insert(p)
			}
		case 1:
			r.moveToBack(p)
			m.moveToBack(p)
		case 2:
			if got, want := r.remove(p), m.remove(p); got != want {
				t.Fatalf("step %d: remove(%d) = %v, model %v", step, p, got, want)
			}
		case 3:
			gp, gok := r.evictFront(pred)
			wp, wok := m.evictFront(pred)
			if gp != wp || gok != wok {
				t.Fatalf("step %d: evictFront = (%d,%v), model (%d,%v)", step, gp, gok, wp, wok)
			}
		case 4:
			gp, gok := r.evictBack(pred)
			wp, wok := m.evictBack(pred)
			if gp != wp || gok != wok {
				t.Fatalf("step %d: evictBack = (%d,%v), model (%d,%v)", step, gp, gok, wp, wok)
			}
		case 5:
			if rng.Intn(200) == 0 { // occasional full reset
				r.reset()
				m.pages = m.pages[:0]
			}
		}
		if r.len() != len(m.pages) {
			t.Fatalf("step %d: len = %d, model %d", step, r.len(), len(m.pages))
		}
		if r.contains(p) != (m.find(p) >= 0) {
			t.Fatalf("step %d: contains(%d) mismatch", step, p)
		}
	}
	// Final order check, front to back.
	p := r.front()
	for _, want := range m.pages {
		if p != want {
			t.Fatalf("final order: got %d, model %d", p, want)
		}
		p = r.nextOf(p)
	}
	if p != core.NoPage {
		t.Fatalf("list longer than model")
	}
}

// TestFITFPositionIndex drives FITF's slice+position-index domain through
// random insert/remove/contains traffic (no oracle needed) against a map
// model.
func TestFITFPositionIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	f := NewFITF()
	model := map[core.PageID]bool{}
	for step := 0; step < 20000; step++ {
		p := core.PageID(rng.Intn(300))
		switch rng.Intn(3) {
		case 0:
			if !model[p] {
				f.Insert(p, Access{})
				model[p] = true
			}
		case 1:
			if got, want := f.Remove(p), model[p]; got != want {
				t.Fatalf("step %d: Remove(%d) = %v, want %v", step, p, got, want)
			}
			delete(model, p)
		case 2:
			if rng.Intn(300) == 0 {
				f.Reset()
				model = map[core.PageID]bool{}
			}
		}
		if f.Contains(p) != model[p] {
			t.Fatalf("step %d: Contains(%d) mismatch", step, p)
		}
		if f.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model %d", step, f.Len(), len(model))
		}
	}
}
