// Command mcbench is the end-to-end and per-layer benchmark for mcservd
// and mcfleet. It serves the real handlers on loopback listeners inside
// child processes, drives them with a closed-loop HTTP generator, checks
// every answer it samples against a direct simulation, and prints each
// metric by name with its unit.
//
// Usage (from the bench module directory, or via run.sh from the
// repository root):
//
//	mcbench [-seed N] [-workload NAME] [-seconds S] [-trace 0|1] [-quick] [-out DIR]
//	mcbench compare [-benchmark FILE] DIR_A DIR_B
//
// Without -workload every workload runs, three passes each, with the
// passes of different workloads interleaved (A1 B1 … A2 B2 …) so host
// drift lands on every workload alike. Each pass is a fresh child
// process (the same binary, re-executed) that pays and times its own
// set-up; set-up-only children add samples of cheap set-ups. A pass
// measures in one-second slices with a fixed reference computation
// between them, and the end-to-end times are scaled to the host's
// reference speed (hostref.go). -trace 1 replaces the end-to-end metrics
// with the per-layer ones of a traced run. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {NAME: {"value": V, "unit": U}}}
//
// keyed by metric name for one workload, and by WORKLOAD/NAME otherwise.
// Every run also writes a result file into -out for mcbench compare.
// See README.md for the workloads, the metrics and what each one should
// move.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"text/tabwriter"
	"time"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cells_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"cpu_ms_per_cell", "ms"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"server.decode_ms", "ms"},
	{"server.encode_ms", "ms"},
	{"server.jobkey_ms", "ms"},
	{"server.jobkey_per_sweep_ms", "ms"},
	{"server.service_ms", "ms"},
	{"server.queue_wait_ms", "ms"},
	{"server.unattributed_ms", "ms"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.coalesced_total", "count"},
	{"server.rejected_total", "count"},
	{"server.timeouts_total", "count"},
	{"workload.generate_ms", "ms"},
	{"trace.decode_ms", "ms"},
	{"capacity.parse_ms", "ms"},
	{"strategyspec.build_ms", "ms"},
	{"sim.bind_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.ns_per_request", "ns"},
	{"sim.fault_rate", "ratio"},
	{"sim.capacity_evictions", "count"},
	{"telemetry.observe_ms", "ms"},
	{"telemetry.events_per_job", "count"},
	{"sweep.expand_ms", "ms"},
	{"fleet.hop_ms", "ms"},
	{"fleet.owner_ratio", "ratio"},
	{"fleet.failovers_total", "count"},
	{"fleet.retry_rounds_total", "count"},
	{"fleet.worker_cache_hit_ratio", "ratio"},
	{"ttfl_p50_ms", "ms"},
	{"trace_overhead", "ratio"},
}

// passes is the number of measuring child processes per workload.
const passes = 3

// Set-up time gets more samples than the passes give. Cheap set-ups, a
// few tens of milliseconds, vary by a fifth or more from one process to
// the next, so set-up-only children are added until a workload has
// minSetups samples or has spent setupBudget seconds setting up; the
// costly ones (job-hot warms 64 jobs) need none.
const (
	minSetups   = 9
	setupBudget = 1.5
)

func benchMain(args []string) int {
	fs := flag.NewFlagSet("mcbench", flag.ContinueOnError)
	name := fs.String("workload", "", "run only this workload (default: every workload, passes interleaved)")
	seed := fs.Int64("seed", 1, "seed every request body is generated from")
	seconds := fs.Float64("seconds", 0, "measured seconds per workload, split over the passes (default 21, traced 8, -quick 1)")
	traceFlag := fs.Int("trace", 0, "1 = traced run: per-layer metrics and spans instead of end-to-end metrics")
	quick := fs.Bool("quick", false, "one pass of about one second per workload")
	out := fs.String("out", "out", "directory for result, span and layer files")
	child := fs.String("child", "", "internal: run one pass of this workload in this process")
	pass := fs.Int("pass", 0, "internal: the child's pass number")
	setupOnly := fs.Bool("setup-only", false, "internal: the child only sets up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *traceFlag < 0 || *traceFlag > 1 || *seconds < 0 {
		fmt.Fprintln(os.Stderr, "mcbench: bad arguments; see -h")
		return 2
	}
	ctx := context.Background()
	if *child != "" {
		def, err := lookupWorkload(*child)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			return 2
		}
		return childMain(ctx, childOpts{def: def, seed: *seed, pass: *pass, seconds: *seconds,
			trace: *traceFlag == 1, setupOnly: *setupOnly, out: *out})
	}

	defs := workloads
	if *name != "" {
		def, err := lookupWorkload(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mcbench:", err)
			return 2
		}
		defs = []workloadDef{def}
	}
	n := passes
	if *quick || *traceFlag == 1 {
		n = 1
	}
	if *seconds == 0 {
		switch {
		case *quick:
			*seconds = 1
		case *traceFlag == 1:
			*seconds = 8
		default:
			*seconds = 21
		}
	}
	rec := runRecord{Start: time.Now().UTC(), Seed: *seed, Trace: *traceFlag, Seconds: *seconds,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Workloads: map[string]workloadReport{}}
	byName := map[string][]passResult{}
	for p := 0; p < n; p++ {
		for _, def := range defs {
			pr, err := spawn(ctx, def, *seed, p, *seconds/float64(n), *traceFlag, false, *out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mcbench: %s pass %d: %v\n", def.name, p+1, err)
				return 1
			}
			byName[def.name] = append(byName[def.name], pr)
		}
	}
	for _, def := range defs {
		if *quick || *traceFlag == 1 {
			break
		}
		var spent float64
		for _, pr := range byName[def.name] {
			spent += pr.SetupS
		}
		for p := n; p < minSetups && spent < setupBudget; p++ {
			pr, err := spawn(ctx, def, *seed, p, 0, 0, true, *out)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mcbench: %s set-up %d: %v\n", def.name, p+1, err)
				return 1
			}
			byName[def.name] = append(byName[def.name], pr)
			spent += pr.SetupS
		}
	}
	for _, def := range defs {
		rec.Workloads[def.name] = summarize(byName[def.name], *traceFlag == 1)
	}
	crossCheck(rec.Workloads)
	return report(rec, defs, *out)
}

// childMain runs one pass and prints its passResult as JSON.
func childMain(ctx context.Context, o childOpts) int {
	pr, err := runChild(ctx, o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mcbench: %s: %v\n", o.def.name, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(pr); err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		return 1
	}
	return 0
}

// childTimeout bounds one child: far above any pass, well below the
// three minutes a whole run may take.
const childTimeout = 170 * time.Second

// spawn re-executes this binary as a child for one pass and decodes its
// report. The child's standard error passes through.
func spawn(ctx context.Context, def workloadDef, seed int64, pass int, seconds float64, trace int, setupOnly bool, out string) (passResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return passResult{}, err
	}
	ctx, cancel := context.WithTimeout(ctx, childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", def.name, "-seed", strconv.FormatInt(seed, 10),
		"-pass", strconv.Itoa(pass), "-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-setup-only="+strconv.FormatBool(setupOnly), "-out", out)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL} // no child outlives the parent
	stdout, err := cmd.Output()
	if err != nil {
		return passResult{}, fmt.Errorf("child: %w", err)
	}
	var pr passResult
	if err := json.Unmarshal(bytes.TrimSpace(stdout), &pr); err != nil {
		return passResult{}, fmt.Errorf("child report: %w", err)
	}
	return pr, nil
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// workloadReport is one workload's outcome in a run.
type workloadReport struct {
	Metrics     map[string]metricValue `json:"metrics"`
	Digest      string                 `json:"results_digest"`
	HostCalibMS float64                `json:"host_calib_ms,omitempty"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Errors      []string               `json:"errors,omitempty"`
	Passes      []passSummary          `json:"passes,omitempty"`
	SelfP50MS   map[string]float64     `json:"self_p50_ms,omitempty"`
}

// passSummary is one pass's own numbers as measured, before scaling to
// the reference speed, kept in the result file so that drift between
// passes, and its source, stay visible.
type passSummary struct {
	SetupS       float64 `json:"setup_s"`
	CellsPerS    float64 `json:"cells_per_s"`
	LatencyP50MS float64 `json:"latency_p50_ms"`
	CPUMSPerCell float64 `json:"cpu_ms_per_cell"`
	PeakRSSMB    float64 `json:"peak_rss_mb"`
	HostCalibMS  float64 `json:"host_calib_ms"`
}

// runRecord is the result file mcbench compare reads.
type runRecord struct {
	Start     time.Time                 `json:"start"`
	Seed      int64                     `json:"seed"`
	Trace     int                       `json:"trace"`
	Seconds   float64                   `json:"seconds"`
	GoVersion string                    `json:"go_version"`
	NumCPU    int                       `json:"num_cpu"`
	Workloads map[string]workloadReport `json:"workloads"`
}

// summarize folds a workload's passes into its metrics. The time-based
// metrics are scaled slice by slice to the host's reference speed (see
// hostref.go) and pooled over the slices of every pass: throughput, CPU
// cost and peak memory are medians over slices, latencies quantiles over
// requests. Set-up time, scaled by the burst that follows it and the
// share stolen during it, is the median over every child, set-up-only
// ones included. The passes' own figures, as measured, stay in the
// result file.
func summarize(prs []passResult, traced bool) workloadReport {
	wr := workloadReport{Metrics: map[string]metricValue{}}
	var rates, cpus, lat, refs, setups, rss []float64
	for _, pr := range prs {
		wr.Attempted += pr.Attempted
		wr.Failed += pr.Failed
		wr.Errors = append(wr.Errors, pr.Errors...)
		if !traced {
			setups = append(setups, pr.SetupS*refNominalMS/pr.SetupRef*(1-pr.SetupLost))
		}
		if pr.SetupOnly {
			continue
		}
		if wr.Digest == "" {
			wr.Digest = pr.Digest
		} else if pr.Digest != wr.Digest {
			wr.Failed++
			wr.Errors = append(wr.Errors, fmt.Sprintf("pass %d: results_digest %s differs from %s", pr.Pass+1, pr.Digest, wr.Digest))
		}
		ps := passSummary{SetupS: pr.SetupS}
		var cells int
		var window, cpu float64
		var passLat, passRefs, passRSS []float64
		for _, sl := range pr.Slices {
			wall, cpuSpeed := sl.speed()
			rates = append(rates, float64(sl.Cells)/sl.WindowS/wall)
			cpus = append(cpus, sl.CPUMS/float64(sl.Cells)*cpuSpeed)
			for _, l := range sl.LatencyMS {
				lat = append(lat, l*wall)
			}
			refs = append(refs, sl.RefMS)
			rss = append(rss, sl.PeakRSSMB)
			passRefs = append(passRefs, sl.RefMS)
			passRSS = append(passRSS, sl.PeakRSSMB)
			passLat = append(passLat, sl.LatencyMS...)
			cells += sl.Cells
			window += sl.WindowS
			cpu += sl.CPUMS
		}
		if cells > 0 {
			ps.CellsPerS = float64(cells) / window
			ps.CPUMSPerCell = cpu / float64(cells)
			ps.LatencyP50MS = median(passLat)
			ps.HostCalibMS = median(passRefs)
			ps.PeakRSSMB = median(passRSS)
		}
		wr.Passes = append(wr.Passes, ps)
	}
	if traced {
		for _, m := range perLayer {
			wr.Metrics[m.name] = metricValue{prs[0].Layers[m.name], m.unit}
		}
		wr.SelfP50MS = prs[0].SelfP50MS
		return wr
	}
	wr.HostCalibMS = median(refs)
	for name, v := range map[string]float64{
		"setup_s":         median(setups),
		"cells_per_s":     median(rates),
		"latency_p50_ms":  median(lat),
		"latency_tail_ms": quantile(lat, tailQ),
		"cpu_ms_per_cell": median(cpus),
		"peak_rss_mb":     median(rss),
	} {
		wr.Metrics[name] = metricValue{v, unitOf(name)}
	}
	return wr
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	panic("mcbench: no end-to-end metric " + name)
}

// crossCheck holds workloads that answer the same inputs to the same
// results: a fleet sweep must hash like a single node's sweep.
func crossCheck(ws map[string]workloadReport) {
	a, okA := ws["sweep"]
	b, okB := ws["fleet-sweep"]
	if okA && okB && a.Digest != b.Digest {
		b.Failed++
		b.Errors = append(b.Errors, "results_digest differs from the sweep workload's")
		ws["fleet-sweep"] = b
	}
}

// report prints the table and the final JSON line, writes the result
// file (and layers.json for a traced run), and returns the exit code.
func report(rec runRecord, defs []workloadDef, out string) int {
	metrics := endToEnd
	if rec.Trace == 1 {
		metrics = perLayer
	}
	final := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Metrics: map[string]metricValue{}}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "# mcbench seed %d, %s, GOMAXPROCS %d, %s\n", rec.Seed, mode(rec), runtime.GOMAXPROCS(0), rec.GoVersion)
	fmt.Fprintln(tw, "workload\tmetric\tvalue\tunit")
	for _, def := range defs {
		wr := rec.Workloads[def.name]
		final.Attempted += wr.Attempted
		final.Failed += wr.Failed
		for _, m := range metrics {
			v := wr.Metrics[m.name]
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%s\n", def.name, m.name, v.Value, v.Unit)
			key := m.name
			if len(defs) > 1 {
				key = def.name + "/" + m.name
			}
			final.Metrics[key] = v
		}
		fmt.Fprintf(tw, "%s\tfail_ratio\t%.6g\t%d/%d\n", def.name, failRatio(wr), wr.Failed, wr.Attempted)
		fmt.Fprintf(tw, "%s\thost_calib_ms\t%.6g\tms (host diagnostic)\n", def.name, wr.HostCalibMS)
		fmt.Fprintf(tw, "%s\tresults_digest\t%s\t\n", def.name, wr.Digest)
	}
	tw.Flush()
	for _, def := range defs {
		for _, e := range rec.Workloads[def.name].Errors {
			fmt.Fprintf(os.Stderr, "mcbench: %s: %s\n", def.name, e)
		}
	}
	final.Correct = final.Failed == 0
	code := 0
	if err := writeRecord(rec, out); err != nil {
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		code = 1
	}
	line, err := json.Marshal(final)
	if err != nil {
		// A NaN or Inf metric: a pass measured nothing.
		fmt.Fprintln(os.Stderr, "mcbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !final.Correct {
		return 1
	}
	return code
}

func mode(rec runRecord) string {
	if rec.Trace == 1 {
		return fmt.Sprintf("traced, %.3g s per workload", rec.Seconds)
	}
	return fmt.Sprintf("%.3g s measured per workload", rec.Seconds)
}

func failRatio(wr workloadReport) float64 {
	if wr.Attempted == 0 {
		return 1
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}

// writeRecord stores the run for mcbench compare, and for a traced run
// merges each workload's layers into out/layers.json.
func writeRecord(rec runRecord, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	file := fmt.Sprintf("result-%s-seed%d-trace%d.json", rec.Start.Format("20060102T150405.000000000"), rec.Seed, rec.Trace)
	if err := os.WriteFile(filepath.Join(out, file), b, 0o644); err != nil {
		return err
	}
	if rec.Trace != 1 {
		return nil
	}
	path := filepath.Join(out, "layers.json")
	layers := map[string]workloadReport{}
	if old, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(old, &layers); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	for name, wr := range rec.Workloads {
		layers[name] = wr
	}
	if b, err = json.MarshalIndent(layers, "", "  "); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
