package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The host reference is a fixed LRU simulation written here rather than
// taken from the system under test, so no change to the repository's
// code moves it: only the host does. A burst of it runs on every core
// between the load slices of a pass. The end-to-end metrics are scaled
// by how fast the bursts around each slice ran, and by the share of CPU
// time the hypervisor took from the VM during the slice
// (sliceResult.speed, summarize). On a shared host whose speed drifts by
// a factor of two over minutes, that turns "cells per second on whatever
// the host gave this run" into "cells per second on the host at its
// reference speed".
const (
	refPages = 1 << 15 // distinct pages of the reference sequence
	refCache = 1 << 11 // LRU capacity in pages
	refLen   = 1 << 16 // requests per simulation
	refRuns  = 48      // simulations per core per burst
	// refNominalMS is a core's CPU time for one burst on the baseline
	// host (see README.md) at its usual speed. It only sets the scale: a
	// metric reads as measured when the bursts around it ran this fast
	// and the hypervisor took nothing.
	refNominalMS = 36.0
)

// refSeq is the reference's request sequence: zipf-distributed page
// ranks, scattered over the page space so hot pages do not share cache
// lines. Every process builds the same one.
var refSeq = sync.OnceValue(func() []int32 {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.05, 1, refPages-1)
	perm := rng.Perm(refPages)
	seq := make([]int32, refLen)
	for i := range seq {
		seq[i] = int32(perm[zipf.Uint64()])
	}
	return seq
})

// refLRU is one core's reference state: an LRU list threaded through
// page-indexed arrays, so a run allocates nothing and leaves the
// garbage collector out of the reference.
type refLRU struct {
	seq        []int32
	prev, next []int32
	cached     []bool
}

func newRefLRU() *refLRU {
	return &refLRU{seq: refSeq(), prev: make([]int32, refPages), next: make([]int32, refPages),
		cached: make([]bool, refPages)}
}

// run simulates the LRU cache over the sequence from empty and returns
// its faults.
func (r *refLRU) run() int {
	clear(r.cached)
	head, tail := int32(-1), int32(-1)
	size, faults := 0, 0
	for _, p := range r.seq {
		switch {
		case p == head:
			continue
		case r.cached[p]: // unlink p; it is not the head, so it has a predecessor
			q, n := r.prev[p], r.next[p]
			r.next[q] = n
			if n >= 0 {
				r.prev[n] = q
			} else {
				tail = q
			}
		default:
			faults++
			if size == refCache { // evict the tail
				t := tail
				tail = r.prev[t]
				r.next[tail] = -1
				r.cached[t] = false
			} else {
				size++
			}
			r.cached[p] = true
		}
		r.prev[p], r.next[p] = -1, head
		if head >= 0 {
			r.prev[head] = p
		}
		head = p
		if tail < 0 {
			tail = p
		}
	}
	return faults
}

// hostRef runs reference bursts on every core at once, as the workloads
// load them.
type hostRef struct {
	cores  []*refLRU
	faults int // what every run must count; a differing run is a bug here
}

func newHostRef() *hostRef {
	h := &hostRef{}
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		h.cores = append(h.cores, newRefLRU())
	}
	h.faults = h.cores[0].run()
	return h
}

// burst runs one burst, refRuns simulations on each core at once, and
// returns the mean CPU time of a core's share in milliseconds. CPU time
// of the burst's own threads, not wall time: it grows when the host runs
// a core slower (a busy sibling hyperthread, contended caches and
// memory), but not when the benchmark's process runs something else
// meanwhile — an unfinished garbage collection, or work the system under
// test leaves for idle moments — which would otherwise be credited to
// the system as host slowness. Time the hypervisor takes from the VM is
// measured apart, by stolen.
func (h *hostRef) burst() (float64, error) {
	var wg sync.WaitGroup
	cpu := make([]float64, len(h.cores))
	errs := make([]error, len(h.cores))
	bad := make([]bool, len(h.cores))
	for i, c := range h.cores {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0, err0 := threadCPU()
			for j := 0; j < refRuns; j++ {
				bad[i] = bad[i] || c.run() != h.faults
			}
			t1, err1 := threadCPU()
			cpu[i], errs[i] = ms(t1-t0), errors.Join(err0, err1)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, err
	}
	var mean float64
	for i, c := range cpu {
		if bad[i] {
			panic("mcbench: host reference is not deterministic")
		}
		mean += c / float64(len(cpu))
	}
	return mean, nil
}

// threadCPU is the calling thread's user plus system CPU time.
func threadCPU() (time.Duration, error) {
	const rusageThread = 1 // RUSAGE_THREAD, Linux only
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0, fmt.Errorf("getrusage(RUSAGE_THREAD): %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// vmClock samples how much CPU time the hypervisor has taken from this
// VM: the steal column of /proc/stat, summed over its vCPUs. It reads 0
// on a host that is not virtualized.
type vmClock struct {
	at    time.Time
	steal time.Duration
	cpus  int
}

func readVMClock() (vmClock, error) {
	const userHZ = 100 // /proc/stat's tick rate on Linux
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return vmClock{}, err
	}
	c := vmClock{at: time.Now()}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) > 8 && f[0] == "cpu": // cpu user nice system idle iowait irq softirq steal ...
			ticks, err := strconv.ParseInt(f[8], 10, 64)
			if err != nil {
				return vmClock{}, fmt.Errorf("/proc/stat steal: %w", err)
			}
			c.steal = time.Duration(ticks) * time.Second / userHZ
		case len(f) > 0 && strings.HasPrefix(f[0], "cpu"):
			c.cpus++
		}
	}
	if c.cpus == 0 {
		return vmClock{}, errors.New("/proc/stat: no per-CPU lines")
	}
	return c, nil
}

// stolen is the share of the VM's CPU time the hypervisor took between
// two samples.
func stolen(from, to vmClock) float64 {
	wall := to.at.Sub(from.at)
	if wall <= 0 {
		return 0
	}
	return min(float64(to.steal-from.steal)/float64(wall)/float64(to.cpus), 1)
}
