// Package par is the one fan-out behind every batch run: sweep grids,
// verify's claims and the experiment suite all run n independent,
// indexed items through For and keep the results in index order.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// For calls a work function once for every index in [0, n) and returns
// when all calls have finished. Up to workers goroutines run the calls
// (workers ≤ 0 means GOMAXPROCS, and never more than n), taking indices
// in increasing order from a shared counter. Each goroutine builds its
// work function once through newWorker, so per-goroutine state such as
// a sim.Runner lives in that closure.
//
// Work functions typically store their result at index i of a slice
// the caller owns; For's return orders every such write before the
// caller's reads, so the results come back in index order whatever the
// scheduling.
func For(n, workers int, newWorker func() func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			work := newWorker()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(i)
			}
		}()
	}
	wg.Wait()
}
