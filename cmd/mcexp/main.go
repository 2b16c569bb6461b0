// Command mcexp runs the experiment suite that reproduces the paper's
// results (see DESIGN.md §4 and EXPERIMENTS.md). Each experiment
// instantiates a lemma/theorem's construction and reports a table whose
// shape must match the claim.
//
// Usage:
//
//	mcexp                 # run everything at full size, experiments concurrently
//	mcexp -exp E7         # one experiment
//	mcexp -quick          # reduced sizes (seconds instead of minutes)
//	mcexp -list           # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"mcpaging/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "", "run a single experiment (e.g. E7); empty = all")
		quick      = flag.Bool("quick", false, "reduced workload sizes")
		seed       = flag.Int64("seed", 1, "random seed")
		list       = flag.Bool("list", false, "list experiment IDs and exit")
		format     = flag.String("format", "text", "output format: text or md (markdown)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		telemDir   = flag.String("telemetry-dir", "", "when set, export windowed telemetry for every experiment simulation under this directory")
		telemWin   = flag.Int64("telemetry-window", 0, "telemetry window width in time steps (0 = default)")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
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
	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	if *telemDir != "" {
		cfg = cfg.WithTelemetry(*telemDir, *telemWin)
	}
	render := (*experiments.Result).Render
	if *format == "md" {
		render = (*experiments.Result).RenderMarkdown
	}
	if *exp == "" {
		if err := experiments.RunAll(cfg, os.Stdout, render); err != nil {
			fatal(err)
		}
		return
	}
	r, err := experiments.Get(*exp)
	if err != nil {
		fatal(err)
	}
	res, err := r(cfg)
	if err != nil {
		fatal(err)
	}
	if err := render(res, os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcexp:", err)
	os.Exit(1)
}
