package cache

import (
	"mcpaging/internal/core"
)

// absentNode marks a node slot whose page is not in the list.
// core.NoPage (-1) doubles as the list-end sentinel.
const absentNode core.PageID = -2

// rnode is one intrusive list node; prev and next hold page IDs.
type rnode struct{ prev, next core.PageID }

// recencyList is the one per-page representation of every policy but
// FITF: an intrusive doubly linked list from least to most recently
// used/inserted, with nodes indexed by page ID instead of heap-allocated
// list elements. Recency policies (LRU, MRU, FIFO, MARK, ARC, SLRU,
// TinyLFU, LFU, LRU2) read it as recency order, CLOCK as its queue from
// the hand, RAND and RMARK as their member set; any further per-page
// state lives in slices indexed by page ID beside it (see growFor).
// Page IDs are the simulator's dense IDs, so the node array stays
// proportional to the instance.
type recencyList struct {
	nodes []rnode     // index = page ID
	head  core.PageID // least recent; core.NoPage when empty
	tail  core.PageID // most recent; core.NoPage when empty
	n     int
}

func newRecencyList() recencyList {
	return recencyList{head: core.NoPage, tail: core.NoPage}
}

// node returns the in-list node for p, or nil if p is not in the list.
//
//mcpaging:hotpath
func (r *recencyList) node(p core.PageID) *rnode {
	if uint(p) >= uint(len(r.nodes)) {
		return nil
	}
	nd := &r.nodes[p]
	if nd.prev == absentNode {
		return nil
	}
	return nd
}

// growFor returns s extended to cover index p, at least doubling, so a
// per-page slice grows in amortised O(1) steps.
func growFor[T any](s []T, p core.PageID) []T {
	if int(p) < len(s) {
		return s
	}
	out := make([]T, max(2*len(s), int(p)+1, 16))
	copy(out, s)
	return out
}

// grow extends the node array to cover page p.
func (r *recencyList) grow(p core.PageID) {
	old := len(r.nodes)
	r.nodes = growFor(r.nodes, p)
	for i := old; i < len(r.nodes); i++ {
		r.nodes[i].prev = absentNode
	}
}

//mcpaging:hotpath
func (r *recencyList) insert(p core.PageID) {
	if int(p) >= len(r.nodes) {
		r.grow(p)
	}
	nd := &r.nodes[p]
	if nd.prev != absentNode {
		panic("cache: duplicate insert of page in replacement domain")
	}
	nd.prev, nd.next = r.tail, core.NoPage
	if r.tail != core.NoPage {
		r.nodes[r.tail].next = p
	} else {
		r.head = p
	}
	r.tail = p
	r.n++
}

//mcpaging:hotpath
func (r *recencyList) moveToBack(p core.PageID) {
	nd := r.node(p)
	if nd == nil || r.tail == p {
		return
	}
	// Detach: p is not the tail, so nd.next is a real page.
	if nd.prev != core.NoPage {
		r.nodes[nd.prev].next = nd.next
	} else {
		r.head = nd.next
	}
	r.nodes[nd.next].prev = nd.prev
	// Reattach at the tail (non-empty: p itself is in the list).
	nd.prev, nd.next = r.tail, core.NoPage
	r.nodes[r.tail].next = p
	r.tail = p
}

//mcpaging:hotpath
func (r *recencyList) remove(p core.PageID) bool {
	nd := r.node(p)
	if nd == nil {
		return false
	}
	r.unlink(nd)
	return true
}

// unlink detaches an in-list node and marks it absent.
//
//mcpaging:hotpath
func (r *recencyList) unlink(nd *rnode) {
	if nd.prev != core.NoPage {
		r.nodes[nd.prev].next = nd.next
	} else {
		r.head = nd.next
	}
	if nd.next != core.NoPage {
		r.nodes[nd.next].prev = nd.prev
	} else {
		r.tail = nd.prev
	}
	nd.prev = absentNode
	r.n--
}

func (r *recencyList) contains(p core.PageID) bool { return r.node(p) != nil }

func (r *recencyList) len() int { return r.n }

// front returns the least recent page, or core.NoPage if empty.
func (r *recencyList) front() core.PageID { return r.head }

// back returns the most recent page, or core.NoPage if empty.
func (r *recencyList) back() core.PageID { return r.tail }

// nextOf returns the page after p (toward most recent).
func (r *recencyList) nextOf(p core.PageID) core.PageID { return r.nodes[p].next }

// prevOf returns the page before p (toward least recent).
func (r *recencyList) prevOf(p core.PageID) core.PageID { return r.nodes[p].prev }

func (r *recencyList) reset() {
	for p := r.head; p != core.NoPage; {
		nd := &r.nodes[p]
		p = nd.next
		nd.prev = absentNode
	}
	r.head, r.tail = core.NoPage, core.NoPage
	r.n = 0
}

// first returns the first page from the front that passes filter (nil
// = any) without removing it.
//
//mcpaging:hotpath
func (r *recencyList) first(filter func(core.PageID) bool) (core.PageID, bool) {
	for p := r.head; p != core.NoPage; p = r.nodes[p].next {
		if filter == nil || filter(p) {
			return p, true
		}
	}
	return core.NoPage, false
}

// evictFront removes and returns the first evictable page scanning from
// the front of the list.
//
//mcpaging:hotpath
func (r *recencyList) evictFront(evictable func(core.PageID) bool) (core.PageID, bool) {
	for p := r.head; p != core.NoPage; {
		nd := &r.nodes[p]
		if evictable == nil || evictable(p) {
			r.unlink(nd)
			return p, true
		}
		p = nd.next
	}
	return core.NoPage, false
}

// evictBack removes and returns the first evictable page scanning from
// the back of the list.
//
//mcpaging:hotpath
func (r *recencyList) evictBack(evictable func(core.PageID) bool) (core.PageID, bool) {
	for p := r.tail; p != core.NoPage; {
		nd := &r.nodes[p]
		if evictable == nil || evictable(p) {
			r.unlink(nd)
			return p, true
		}
		p = nd.prev
	}
	return core.NoPage, false
}

// LRU evicts the least recently used page of its domain. With a shared
// domain this is the paper's S_LRU eviction rule; with one domain per
// part it is the per-part rule of sP_LRU and dP_LRU.
type LRU struct{ r recencyList }

// NewLRU returns an empty LRU policy.
func NewLRU() *LRU { return &LRU{r: newRecencyList()} }

// Name implements Policy.
func (l *LRU) Name() string { return "LRU" }

// Insert implements Policy.
func (l *LRU) Insert(p core.PageID, _ Access) { l.r.insert(p) }

// Touch implements Policy.
func (l *LRU) Touch(p core.PageID, _ Access) { l.r.moveToBack(p) }

// Evict implements Policy.
func (l *LRU) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	return l.r.evictFront(evictable)
}

// Remove implements Policy.
func (l *LRU) Remove(p core.PageID) bool { return l.r.remove(p) }

// Contains implements Policy.
func (l *LRU) Contains(p core.PageID) bool { return l.r.contains(p) }

// Len implements Policy.
func (l *LRU) Len() int { return l.r.len() }

// Reset implements Policy.
func (l *LRU) Reset() { l.r.reset() }

// Resize implements Policy: LRU's victim choice is capacity-independent.
func (l *LRU) Resize(int) {}

// LeastRecent returns the least recently used page currently in the
// domain without removing it. It is used by the Lemma-3 dynamic
// partition, which must locate the globally least recent page across
// parts. ok is false when the domain is empty or nothing is evictable.
func (l *LRU) LeastRecent(evictable func(core.PageID) bool) (core.PageID, bool) {
	return l.r.first(evictable)
}

// MRU evicts the most recently used page. It is the classic pathological
// counterpoint to LRU on looping workloads and appears in the E13 policy
// matrix.
type MRU struct{ r recencyList }

// NewMRU returns an empty MRU policy.
func NewMRU() *MRU { return &MRU{r: newRecencyList()} }

// Name implements Policy.
func (m *MRU) Name() string { return "MRU" }

// Insert implements Policy.
func (m *MRU) Insert(p core.PageID, _ Access) { m.r.insert(p) }

// Touch implements Policy.
func (m *MRU) Touch(p core.PageID, _ Access) { m.r.moveToBack(p) }

// Evict implements Policy.
func (m *MRU) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	return m.r.evictBack(evictable)
}

// Remove implements Policy.
func (m *MRU) Remove(p core.PageID) bool { return m.r.remove(p) }

// Contains implements Policy.
func (m *MRU) Contains(p core.PageID) bool { return m.r.contains(p) }

// Len implements Policy.
func (m *MRU) Len() int { return m.r.len() }

// Reset implements Policy.
func (m *MRU) Reset() { m.r.reset() }

// Resize implements Policy: MRU's victim choice is capacity-independent.
func (m *MRU) Resize(int) {}

// FIFO evicts the page that has been in the domain longest, regardless of
// hits. It is a conservative policy, so Lemma 1's upper bound applies to
// it.
type FIFO struct{ r recencyList }

// NewFIFO returns an empty FIFO policy.
func NewFIFO() *FIFO { return &FIFO{r: newRecencyList()} }

// Name implements Policy.
func (f *FIFO) Name() string { return "FIFO" }

// Insert implements Policy.
func (f *FIFO) Insert(p core.PageID, _ Access) { f.r.insert(p) }

// Touch implements Policy. FIFO ignores hits.
func (f *FIFO) Touch(core.PageID, Access) {}

// Evict implements Policy.
func (f *FIFO) Evict(evictable func(core.PageID) bool) (core.PageID, bool) {
	return f.r.evictFront(evictable)
}

// Remove implements Policy.
func (f *FIFO) Remove(p core.PageID) bool { return f.r.remove(p) }

// Contains implements Policy.
func (f *FIFO) Contains(p core.PageID) bool { return f.r.contains(p) }

// Len implements Policy.
func (f *FIFO) Len() int { return f.r.len() }

// Reset implements Policy.
func (f *FIFO) Reset() { f.r.reset() }

// Resize implements Policy: FIFO's victim choice is capacity-independent.
func (f *FIFO) Resize(int) {}
