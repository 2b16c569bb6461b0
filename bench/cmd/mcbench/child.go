package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// processStart is when this process began running Go code: the start
// of a child's set-up.
var processStart = time.Now()

// passResult is what one child process reports for one pass of one
// workload. Slices travel raw so the parent can pool them across passes.
type passResult struct {
	Workload  string             `json:"workload"`
	Pass      int                `json:"pass"`
	SetupS    float64            `json:"setup_s"`
	SetupRef  float64            `json:"setup_ref_ms,omitempty"` // the burst right after set-up
	SetupLost float64            `json:"setup_stolen,omitempty"` // share stolen during set-up
	SetupOnly bool               `json:"setup_only,omitempty"`   // a child that only set up
	Slices    []sliceResult      `json:"slices,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	Digest    string             `json:"results_digest"`
	Layers    map[string]float64 `json:"layers,omitempty"`
	SelfP50MS map[string]float64 `json:"self_p50_ms,omitempty"` // per span name, traced runs
}

// sliceResult is one load slice of a pass, as measured, with the host's
// speed around it.
type sliceResult struct {
	RefMS     float64   `json:"ref_ms"` // a core's CPU time per burst, mean of the bursts before and after
	Stolen    float64   `json:"stolen"` // share of the VM's CPU time the hypervisor took during the slice
	WindowS   float64   `json:"window_s"`
	Cells     int       `json:"cells"`
	CPUMS     float64   `json:"cpu_ms"`
	PeakRSSMB float64   `json:"peak_rss_mb"` // the process's high-water mark within the slice
	LatencyMS []float64 `json:"latency_ms"`
}

// speed is the host's speed during the slice relative to the reference
// speed, 1 on the baseline host at its usual pace: cpu for CPU costs,
// wall for elapsed times, which also lose what the hypervisor took.
func (s sliceResult) speed() (wall, cpu float64) {
	cpu = refNominalMS / s.RefMS
	return cpu * (1 - s.Stolen), cpu
}

// fail counts one failed operation or check, keeping the first few
// messages.
func (pr *passResult) fail(err error) {
	pr.Failed++
	if len(pr.Errors) < 5 {
		pr.Errors = append(pr.Errors, err.Error())
	}
}

// account adds completed requests to the attempted and failed counts.
func (pr *passResult) account(rs []result) {
	pr.Attempted += len(rs)
	for _, r := range rs {
		if r.err != nil {
			pr.fail(r.err)
		}
	}
}

type childOpts struct {
	def       workloadDef
	seed      int64
	pass      int
	seconds   float64
	trace     bool
	setupOnly bool
	out       string
}

// fixedOps is the size of the fixed op list every child re-sends after
// measuring, checks, and hashes into results_digest.
func fixedOps(def workloadDef) int {
	if def.sweep {
		return 1
	}
	return 8
}

// runChild is one child process: set up the stack, measure (or trace),
// then check; or, for a set-up-only child, set up and time one reference
// burst. Errors that stop the pass are returned; failed requests and
// mismatches are counted in the result.
func runChild(ctx context.Context, o childOpts) (passResult, error) {
	def := o.def
	pr := passResult{Workload: def.name, Pass: o.pass}
	vm0, err := readVMClock()
	if err != nil {
		return pr, err
	}
	in, err := newInputs(def, o.seed)
	if err != nil {
		return pr, err
	}
	st, err := startStack(ctx, def.fleet)
	if err != nil {
		return pr, err
	}
	defer st.close()
	ld := newLoader(st.url, def.clients)
	defer ld.close()
	var warm []result
	switch {
	case def.name == "job-hot":
		warm = ld.sendAll(ctx, def.clients, hotJobs, in.op, false)
	case def.sweep:
		warm = ld.sendAll(ctx, def.clients, 1, in.warmOp, false)
	default:
		warm = ld.sendAll(ctx, def.clients, 2*def.clients, in.warmOp, false)
	}
	pr.account(warm)
	pr.SetupS = time.Since(processStart).Seconds()
	vm1, err := readVMClock()
	if err != nil {
		return pr, err
	}
	pr.SetupLost = stolen(vm0, vm1)

	v := newVerifier()
	if o.trace {
		if err := traced(ctx, &pr, st, in, o); err != nil {
			return pr, err
		}
	} else {
		ref := newHostRef()
		if pr.SetupRef, err = ref.burst(); err != nil {
			return pr, err
		}
		if o.setupOnly {
			pr.SetupOnly = true
			return pr, nil
		}
		if err := measure(ctx, &pr, ld, in, v, ref, o.seconds); err != nil {
			return pr, err
		}
	}

	// The fixed op list: re-sent after measuring, checked against direct
	// runs, hashed. Its cells are exact counts that repeat for a seed.
	fixed := ld.sendAll(ctx, def.clients, fixedOps(def), in.op, true)
	pr.account(fixed)
	var lines [][]servedLine
	var faults, requests, capEvictions, events float64
	var cells int
	for _, r := range fixed {
		if r.err != nil {
			continue
		}
		got, err := v.check(r.op, r.body)
		if err != nil {
			pr.fail(err)
			continue
		}
		lines = append(lines, got)
		e, _ := v.expect(r.op) // cached by check
		for _, w := range e.want {
			faults += float64(w.res.TotalFaults())
			requests += float64(w.total)
			capEvictions += float64(w.res.CapacityEvictions)
			events += float64(w.events)
			cells++
		}
	}
	pr.Digest = digest(lines)
	if pr.Layers != nil && cells > 0 {
		pr.Layers["sim.fault_rate"] = faults / requests
		pr.Layers["sim.capacity_evictions"] = capEvictions
		pr.Layers["telemetry.events_per_job"] = events / float64(cells)
	}
	return pr, nil
}

// sliceSeconds is the length of a load slice. A reference burst of
// about 40 ms follows each, so the host's speed is sampled every second
// and no request is more than half a second from a sample. The last
// slice of a pass ends at the deadline, and is at least half a slice
// long.
const sliceSeconds = 1.0

// measure runs the closed loop for the pass window in slices, with a
// host reference burst after each (the one after set-up precedes the
// first), and checks the sampled responses afterwards: every 16th job,
// and the first sweep.
func measure(ctx context.Context, pr *passResult, ld *loader, in *inputs, v *verifier, ref *hostRef, seconds float64) error {
	def := in.def
	keep := func(i int) bool { return i%16 == 0 }
	if def.sweep {
		keep = func(i int) bool { return i == 0 }
	}
	before := pr.SetupRef
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var rs []result
	for len(pr.Slices) == 0 || time.Until(deadline).Seconds() > sliceSeconds/2 {
		base := len(rs)
		// Each slice's memory peak starts from the live heap: freed
		// memory the runtime has not yet returned to the OS would
		// otherwise count, and how much of it is left depends on how fast
		// the host ran the last slice, not on the system.
		debug.FreeOSMemory()
		if err := resetPeakRSS(); err != nil {
			return err
		}
		cpu0, err := cpuTime()
		if err != nil {
			return err
		}
		vm0, err := readVMClock()
		if err != nil {
			return err
		}
		end := time.Now().Add(time.Duration(sliceSeconds * float64(time.Second)))
		if end.After(deadline) {
			end = deadline
		}
		slice := ld.drive(ctx, def.clients, func(int) bool { return time.Now().Before(end) },
			func(i int) op { return in.op(base + i) }, func(i int) bool { return keep(base + i) })
		vm1, err := readVMClock()
		if err != nil {
			return err
		}
		cpu1, err := cpuTime()
		if err != nil {
			return err
		}
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		after, err := ref.burst()
		if err != nil {
			return err
		}
		sl := sliceResult{RefMS: (before + after) / 2, Stolen: stolen(vm0, vm1), CPUMS: float64(cpu1-cpu0) / 1e6,
			PeakRSSMB: rss}
		before = after
		var first, last time.Time
		for _, r := range slice {
			if first.IsZero() || r.start.Before(first) {
				first = r.start
			}
			if r.end().After(last) {
				last = r.end()
			}
			if r.err == nil {
				sl.Cells += r.cells
				sl.LatencyMS = append(sl.LatencyMS, ms(r.latency))
			}
		}
		sl.WindowS = last.Sub(first).Seconds()
		if sl.Cells == 0 {
			return fmt.Errorf("%s: no cell completed in slice %d", def.name, len(pr.Slices)+1)
		}
		pr.Slices = append(pr.Slices, sl)
		rs = append(rs, slice...)
	}
	pr.account(rs)
	for _, r := range rs {
		if r.err != nil || !keep(r.op.index) {
			continue
		}
		if _, err := v.check(r.op, r.body); err != nil {
			pr.fail(err)
		}
		if def.fleet {
			if err := sameAsSingleNode(ctx, r); err != nil {
				pr.fail(err)
			}
		}
	}
	return nil
}

// sameAsSingleNode re-sends a fleet sweep to a fresh single mcservd and
// requires byte-identical JSONL: the fleet's merge must reproduce the
// single node's stream exactly.
func sameAsSingleNode(ctx context.Context, fleetRes result) error {
	st, err := startStack(ctx, false)
	if err != nil {
		return err
	}
	defer st.close()
	ld := newLoader(st.url, 1)
	defer ld.close()
	solo := ld.do(ctx, fleetRes.op, true)
	if solo.err != nil {
		return solo.err
	}
	if !bytes.Equal(solo.body, fleetRes.body) {
		return fmt.Errorf("op %d: fleet sweep lines differ from a single node's", fleetRes.op.index)
	}
	return nil
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// resetPeakRSS sets the process's resident-memory high-water mark back
// to its current size, so that peakRSSMB reads the peak since.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-memory high-water mark (VmHWM) in
// MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("/proc/self/status: %q: %w", line, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("/proc/self/status: no VmHWM line")
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
