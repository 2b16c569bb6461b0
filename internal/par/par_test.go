package par

import (
	"runtime"
	"sync/atomic"
	"testing"
)

// run calls For and reports how many times each index ran and how many
// times newWorker was called.
func run(n, workers int) (counts []atomic.Int32, built int32) {
	counts = make([]atomic.Int32, n)
	var b atomic.Int32
	For(n, workers, func() func(int) {
		b.Add(1)
		return func(i int) { counts[i].Add(1) }
	})
	return counts, b.Load()
}

func TestForRunsEveryIndexOnce(t *testing.T) {
	const n = 100
	for _, workers := range []int{1, 3, 8, n + 7} {
		counts, built := run(n, workers)
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Errorf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
		want := int32(min(workers, n))
		if built != want {
			t.Errorf("workers=%d: newWorker ran %d times, want one per goroutine (%d)", workers, built, want)
		}
	}
}

func TestForZeroItems(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		if _, built := run(0, workers); built != 0 {
			t.Errorf("workers=%d: n=0 started %d goroutines", workers, built)
		}
	}
}

func TestForDefaultWorkersIsGOMAXPROCS(t *testing.T) {
	n := 4 * runtime.GOMAXPROCS(0)
	for _, workers := range []int{0, -1} {
		_, built := run(n, workers)
		if want := int32(runtime.GOMAXPROCS(0)); built != want {
			t.Errorf("workers=%d: %d goroutines, want GOMAXPROCS = %d", workers, built, want)
		}
	}
}
