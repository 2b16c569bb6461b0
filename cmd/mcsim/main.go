// Command mcsim replays a trace against a cache-management strategy
// under the multicore paging model and reports per-core and aggregate
// statistics.
//
// Usage:
//
//	mcsim -trace trace.txt -k 16 -tau 4 -strategy 'S(LRU)'
//	mcsim -trace trace.txt -k 16 -tau 4 -strategy 'sP[even](LRU)'
//	mcsim -trace trace.txt -k 16 -tau 4 -strategy 'sP[opt](LRU)'
//	mcsim -trace trace.txt -k 16 -tau 4 -strategy 'dP[ucp](ARC)'
//	mcsim -trace trace.txt -k 16 -tau 4 -all
//	mcsim -trace trace.txt -k 16 -tau 4 -strategy 'S(LRU)' -telemetry -telemetry-dir out/
//
// Strategy syntax: partition family × eviction policy. Families:
// S(<policy>) shared; sP[even](<policy>) evenly partitioned;
// sP[opt](<policy>) offline-optimal static partition (LRU or FITF
// curves); dP[<controller>](<policy>) dynamic partition, where the
// controller is the Lemma 3 global-LRU donor rule (dP or
// dP[lru-global]), the fairness-oriented FairShare rule (dP[fair]), or
// utility-based partitioning (dP[ucp]); eP[<controller>](<policy>)
// elastic partition — the same controllers re-deriving quotas under a
// time-varying capacity schedule (see -capacity). Every dynamic
// controller composes with every policy: LRU FIFO CLOCK LFU MRU MARK
// RMARK RAND FITF ARC SLRU LRU2 TINYLFU (plus FWF in the shared
// family). -list-strategies prints the full registry.
//
// Capacity schedule syntax (-capacity, resolved against -k):
//
//	fixed                                   constant K (the default)
//	step(to=8,at=1024)                      one-shot resize at time `at`
//	step(to=50%,at=1024)                    targets may be percentages of K
//	ramp(to=8,end=4096)                     linear drift toward `to`
//	periodic(lo=8,period=2048,duty=0.5)     square-wave shrink storms
//	trace(path=sched.txt)                   explicit "time k" plateau file
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mcpaging/internal/core"
	"mcpaging/internal/metrics"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/sweep"
	"mcpaging/internal/telemetry"
	"mcpaging/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "input trace (required)")
		k         = flag.Int("k", 16, "shared cache size K")
		tau       = flag.Int("tau", 4, "fetch delay τ")
		capSpec   = flag.String("capacity", "", "K(t) capacity schedule spec (see doc comment; empty = fixed K)")
		strat     = flag.String("strategy", "S(LRU)", "strategy spec (see doc comment)")
		all       = flag.Bool("all", false, "run a standard portfolio of strategies")
		seed      = flag.Int64("seed", 1, "seed for RAND policies")
		perCore   = flag.Bool("per-core", false, "print per-core breakdown")
		events    = flag.String("events", "", "write a CSV of every service event to this file (single-strategy runs)")
		addrShift = flag.Int("addr-shift", -1, "treat the input as a raw address trace ('<core> <addr>' lines) with this page shift (e.g. 12); -1 = normal trace format")
		telem     = flag.Bool("telemetry", false, "collect windowed per-core telemetry and export it under -telemetry-dir")
		telemDir  = flag.String("telemetry-dir", "telemetry", "telemetry export directory (per-strategy subdirectories with -all)")
		telemWin  = flag.Int64("telemetry-window", 0, "telemetry window width in time steps (0 = default)")
		listStrat = flag.Bool("list-strategies", false, "list every buildable strategy spec and exit")
	)
	flag.Parse()
	if *listStrat {
		tbl := metrics.NewTable("strategies", "spec", "family", "policy", "description")
		for _, c := range strategyspec.List() {
			tbl.AddRow(c.Spec, c.Family, c.Policy, c.Desc)
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if *tracePath == "" {
		fmt.Fprintln(os.Stderr, "mcsim: -trace is required")
		os.Exit(2)
	}
	f, err := os.Open(*tracePath)
	if err != nil {
		fatal(err)
	}
	var rs core.RequestSet
	if *addrShift >= 0 {
		rs, err = trace.ReadAddressTrace(f, uint(*addrShift))
	} else {
		rs, err = trace.ReadAuto(f)
	}
	f.Close()
	if err != nil {
		fatal(err)
	}
	specs := []string{*strat}
	if *all {
		specs = strategyspec.Portfolio()
	}
	var caps []string
	if *capSpec != "" {
		caps = []string{*capSpec}
	}
	jobs, err := sweep.Grid{R: rs, Ks: []int{*k}, Taus: []int{*tau}, Capacities: caps, Specs: specs, Seed: *seed}.Jobs()
	if err != nil {
		fatal(err)
	}
	title := fmt.Sprintf("trace=%s p=%d n=%d K=%d τ=%d", *tracePath, rs.NumCores(), rs.TotalLen(), *k, *tau)
	if *capSpec != "" {
		title += " capacity=" + *capSpec
	}
	tbl := metrics.NewTable(title,
		"strategy", "faults", "fault_rate", "jain", "makespan")
	for _, job := range jobs {
		st, err := strategyspec.Build(job.Spec, rs, job.K, job.Seed)
		if err != nil {
			fatal(err)
		}
		var obs sim.Observer
		var evFile *os.File
		if *events != "" && len(specs) == 1 {
			evFile, err = os.Create(*events)
			if err != nil {
				fatal(err)
			}
			w := bufio.NewWriter(evFile)
			defer func() { w.Flush(); evFile.Close() }()
			if *capSpec != "" {
				// Elastic runs carry two extra columns; fixed-capacity
				// output stays byte-identical to earlier versions.
				fmt.Fprintln(w, "time,core,index,page,fault,join,tick,victim,capacity,k")
				obs = func(e sim.Event) {
					fmt.Fprintf(w, "%d,%d,%d,%d,%v,%v,%v,%d,%v,%d\n",
						e.Time, e.Core, e.Index, e.Page, e.Fault, e.Join, e.Tick, e.Victim, e.Capacity, e.K)
				}
			} else {
				fmt.Fprintln(w, "time,core,index,page,fault,join,tick,victim")
				obs = func(e sim.Event) {
					fmt.Fprintf(w, "%d,%d,%d,%d,%v,%v,%v,%d\n",
						e.Time, e.Core, e.Index, e.Page, e.Fault, e.Join, e.Tick, e.Victim)
				}
			}
		}
		var sess *telemetry.Session
		if *telem {
			dir := *telemDir
			if len(specs) > 1 {
				dir = filepath.Join(dir, telemetry.SanitizeLabel(job.Spec))
			}
			sess, err = telemetry.Start(telemetry.SessionConfig{
				Dir: dir,
				Collector: telemetry.Config{
					Cores:  rs.NumCores(),
					Params: job.Params,
					Window: *telemWin,
				},
				CaptureEvents: true,
				Manifest: telemetry.Manifest{
					Tool:         "mcsim",
					Source:       *tracePath,
					Strategy:     job.Spec,
					StrategyName: st.Name(),
					Cores:        rs.NumCores(),
					Requests:     rs.TotalLen(),
					Pages:        len(rs.Universe()),
					K:            *k,
					Tau:          *tau,
					Capacity:     *capSpec,
					Seed:         *seed,
					Window:       *telemWin,
				},
			})
			if err != nil {
				fatal(err)
			}
			obs = sim.MultiObserver(obs, sess.Observer())
		}
		res, err := sim.Run(core.Instance{R: rs, P: job.Params}, st, obs)
		if err != nil {
			if sess != nil {
				sess.Abort()
			}
			fatal(err)
		}
		if sess != nil {
			if err := sess.Close(res); err != nil {
				fatal(err)
			}
		}
		tbl.AddRow(st.Name(), res.TotalFaults(),
			float64(res.TotalFaults())/float64(rs.TotalLen()),
			metrics.JainIndex(res.Faults), res.Makespan)
		if *perCore {
			sub := metrics.NewTable("  per-core ("+st.Name()+")", "core", "faults", "hits", "finish", "slowdown")
			slow := metrics.Slowdowns(rs, res)
			for j := range rs {
				sub.AddRow(j, res.Faults[j], res.Hits[j], res.Finish[j], slow[j])
			}
			defer sub.Render(os.Stdout)
		}
	}
	if err := tbl.Render(os.Stdout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mcsim:", err)
	os.Exit(1)
}
