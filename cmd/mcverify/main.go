// mcverify runs the statistical verification suite: every claim of a
// committed manifest (default verify/claims.json) is sampled over its
// workload family and judged HOLDS / REFUTED / INCONCLUSIVE, with
// sign-test p-values, bootstrap effect intervals and replayable
// counterexample seeds (see docs/verify.md).
//
//	mcverify                         full run, table to stdout
//	mcverify -quick                  bounded per-PR CI budget
//	mcverify -o verdicts.jsonl       machine-readable JSONL report
//	mcverify -update-baseline        refresh verify/baseline.json
//	mcverify -list-families          list workload families and exit
//
// Exit status: 0 when every claim matches expectations, 1 when any
// claim is REFUTED or regresses against the committed baseline
// (HOLDS > INCONCLUSIVE > REFUTED), 2 on usage or manifest errors —
// the CI gate keys off 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"mcpaging/internal/metrics"
	"mcpaging/internal/verify"
	"mcpaging/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mcverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	manifestPath := fs.String("manifest", "verify/claims.json", "claim manifest to prove")
	quick := fs.Bool("quick", false, "bounded sample counts (per-PR CI budget)")
	scale := fs.Float64("scale", 0, "multiply sample counts (nightly uses > 1)")
	out := fs.String("o", "", "write the JSONL verdict report to this file")
	baselinePath := fs.String("baseline", "verify/baseline.json", "verdict baseline to gate against (empty to skip)")
	updateBaseline := fs.Bool("update-baseline", false, "run quick and full modes and rewrite the baseline")
	workers := fs.Int("workers", 4, "claims proved concurrently")
	claimFilter := fs.String("claims", "", "only prove claims whose name contains this substring")
	listFamilies := fs.Bool("list-families", false, "list the workload families and exit")
	verbose := fs.Bool("v", false, "print one line per finished claim")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *listFamilies {
		for _, f := range workload.ListFamilies() {
			fmt.Fprintf(stdout, "%-8s %s (params: %s)\n", f.Name, f.Desc, strings.Join(f.Params, ", "))
		}
		return 0
	}

	m, err := verify.LoadManifest(*manifestPath)
	if err != nil {
		fmt.Fprintln(stderr, "mcverify:", err)
		return 2
	}
	if *claimFilter != "" {
		var kept []verify.Claim
		for _, c := range m.Claims {
			if strings.Contains(c.Name, *claimFilter) {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			fmt.Fprintf(stderr, "mcverify: no claim matches %q\n", *claimFilter)
			return 2
		}
		m.Claims = kept
	}

	var mu sync.Mutex
	progress := func(v verify.Verdict) {
		if !*verbose {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		fmt.Fprintf(stderr, "mcverify: %-32s %-12s p=%.4g effect=%.4g\n", v.Claim, v.Status, v.PValue, v.EffectMean)
	}
	opts := verify.Options{
		Quick:       *quick,
		SampleScale: *scale,
		Workers:     *workers,
		Progress:    progress,
	}

	if *updateBaseline {
		return doUpdateBaseline(m, opts, *baselinePath, stdout, stderr)
	}

	verdicts, err := verify.NewProver(opts).ProveAll(m)
	if err != nil {
		fmt.Fprintln(stderr, "mcverify:", err)
		return 2
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "mcverify:", err)
			return 2
		}
		if err := verify.WriteReport(f, verdicts); err != nil {
			fmt.Fprintln(stderr, "mcverify:", err)
			return 2
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(stderr, "mcverify:", err)
			return 2
		}
	}
	printTable(stdout, verdicts)

	bad := false
	if verify.AnyRefuted(verdicts) {
		fmt.Fprintln(stderr, "mcverify: REFUTED claims present")
		bad = true
	}
	if *baselinePath != "" {
		if b, err := verify.LoadBaseline(*baselinePath); err == nil {
			for _, r := range b.Compare(verdicts, *quick) {
				fmt.Fprintln(stderr, "mcverify: confidence regression:", r)
				bad = true
			}
		} else if !os.IsNotExist(err) && !strings.Contains(err.Error(), "no such file") {
			fmt.Fprintln(stderr, "mcverify:", err)
			return 2
		}
	}
	if bad {
		return 1
	}
	return 0
}

// doUpdateBaseline proves the manifest in both modes and rewrites the
// baseline file with the exact expected statuses.
func doUpdateBaseline(m *verify.Manifest, opts verify.Options, path string, stdout, stderr io.Writer) int {
	b := &verify.Baseline{}
	for _, quick := range []bool{true, false} {
		o := opts
		o.Quick = quick
		verdicts, err := verify.NewProver(o).ProveAll(m)
		if err != nil {
			fmt.Fprintln(stderr, "mcverify:", err)
			return 2
		}
		b.Merge(verdicts, quick)
		if !quick {
			printTable(stdout, verdicts)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "mcverify:", err)
		return 2
	}
	if err := verify.WriteBaseline(f, b); err != nil {
		fmt.Fprintln(stderr, "mcverify:", err)
		return 2
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(stderr, "mcverify:", err)
		return 2
	}
	fmt.Fprintln(stderr, "mcverify: baseline updated:", path)
	return 0
}

// printTable renders the human-readable verdict table.
func printTable(w io.Writer, verdicts []verify.Verdict) {
	t := metrics.NewTable("verification verdicts",
		"claim", "status", "samples", "wins/losses/ties", "p-value", "effect (95% CI)")
	for _, v := range verdicts {
		t.AddRow(v.Claim, string(v.Status), v.Samples,
			fmt.Sprintf("%d/%d/%d", v.Wins, v.Losses, v.Ties),
			fmt.Sprintf("%.4g", v.PValue),
			fmt.Sprintf("%.4g [%.4g, %.4g]", v.EffectMean, v.EffectLo, v.EffectHi))
	}
	t.Render(w)
}
