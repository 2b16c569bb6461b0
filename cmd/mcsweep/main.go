// Command mcsweep runs a strategy × K × τ × capacity grid over a trace
// in parallel and prints the results as an aligned table or CSV.
//
// Usage:
//
//	mcsweep -trace trace.txt -k 8,16,32 -tau 0,2,8 \
//	        -strategies 'S(LRU),sP[even](LRU),dP[ucp](LRU)' -csv
//	mcsweep -trace trace.txt -k 16 -tau 2 \
//	        -capacity 'step(to=75%,at=1024);step(to=50%,at=1024)' \
//	        -strategies 'S(LRU),eP[fair](LRU)'
//
// -capacity adds a K(t) schedule dimension to the grid (semicolon-
// separated, since schedule specs contain commas); each spec resolves
// against each K of the grid. Empty means fixed capacity only.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"mcpaging/internal/metrics"
	"mcpaging/internal/sim"
	"mcpaging/internal/sweep"
	"mcpaging/internal/telemetry"
	"mcpaging/internal/trace"
)

func main() {
	var (
		tracePath  = flag.String("trace", "", "input trace (required)")
		kList      = flag.String("k", "16", "comma-separated cache sizes")
		tauList    = flag.String("tau", "0,4", "comma-separated fetch delays")
		specList   = flag.String("strategies", "S(LRU),sP[even](LRU),dP(LRU)", "comma-separated strategy specs")
		capList    = flag.String("capacity", "", "semicolon-separated K(t) schedule specs (grid dimension; empty = fixed capacity)")
		seed       = flag.Int64("seed", 1, "seed for RAND policies")
		workers    = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		csv        = flag.Bool("csv", false, "emit CSV instead of an aligned table")
		heatmap    = flag.String("heatmap", "", "render a K×τ heatmap for this strategy spec instead of the flat table")
		metric     = flag.String("metric", "faults", "heatmap metric: faults|rate|jain|makespan")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		telem      = flag.Bool("telemetry", false, "export windowed telemetry for every grid point under -telemetry-dir/k<K>_tau<τ>_<spec>/")
		telemDir   = flag.String("telemetry-dir", "telemetry", "telemetry export directory")
		telemWin   = flag.Int64("telemetry-window", 0, "telemetry window width in time steps (0 = default)")
	)
	flag.Parse()
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "mcsweep: -trace is required")
		os.Exit(2)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatal(err)
			}
		}()
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	rs, err := trace.ReadAuto(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	ks, err := parseInts(*kList)
	if err != nil {
		fatal(err)
	}
	taus, err := parseInts(*tauList)
	if err != nil {
		fatal(err)
	}
	grid := sweep.Grid{
		R:          rs,
		Ks:         ks,
		Taus:       taus,
		Capacities: splitNonEmptyOn(*capList, ";"),
		Specs:      splitNonEmpty(*specList),
		Seed:       *seed,
		Workers:    *workers,
	}
	if *telem {
		pages := len(rs.Universe())
		grid.Observe = func(pt sweep.Point) (sim.Observer, func(sim.Result) error) {
			name := fmt.Sprintf("k%d_tau%d_%s", pt.K, pt.Tau, telemetry.SanitizeLabel(pt.Spec))
			if pt.Capacity != "" {
				name += "_" + telemetry.SanitizeLabel(pt.Capacity)
			}
			sess, err := telemetry.Start(telemetry.SessionConfig{
				Dir: filepath.Join(*telemDir, name),
				Collector: telemetry.Config{
					Cores:  rs.NumCores(),
					Params: pt.Params,
					Window: *telemWin,
				},
				Manifest: telemetry.Manifest{
					Tool:         "mcsweep",
					Source:       *tracePath,
					Strategy:     pt.Spec,
					StrategyName: pt.Strategy,
					Cores:        rs.NumCores(),
					Requests:     rs.TotalLen(),
					Pages:        pages,
					K:            pt.K,
					Tau:          pt.Tau,
					Capacity:     pt.Capacity,
					Seed:         *seed,
					Window:       *telemWin,
				},
			})
			if err != nil {
				return nil, func(sim.Result) error { return err }
			}
			return sess.Observer(), sess.Close
		}
	}
	pts, err := sweep.Run(grid)
	if err != nil {
		fatal(err)
	}
	title := fmt.Sprintf("sweep over %s (p=%d, n=%d)", *tracePath, rs.NumCores(), rs.TotalLen())
	var tbl *metrics.Table
	if *heatmap != "" {
		tbl, err = sweep.Heatmap(title, *heatmap, *metric, pts)
		if err != nil {
			fatal(err)
		}
	} else {
		tbl = sweep.Table(title, pts)
	}
	if *csv {
		err = tbl.CSV(os.Stdout)
	} else {
		err = tbl.Render(os.Stdout)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsweep:", err)
	os.Exit(1)
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, t := range splitNonEmpty(s) {
		v, err := strconv.Atoi(t)
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", t)
		}
		out = append(out, v)
	}
	return out, nil
}

func splitNonEmpty(s string) []string { return splitNonEmptyOn(s, ",") }

// splitNonEmptyOn splits on sep and drops empty items; capacity specs
// use ";" because the schedule grammar itself contains commas.
func splitNonEmptyOn(s, sep string) []string {
	var out []string
	for _, t := range strings.Split(s, sep) {
		t = strings.TrimSpace(t)
		if t != "" {
			out = append(out, t)
		}
	}
	return out
}
