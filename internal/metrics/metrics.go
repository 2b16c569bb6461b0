// Package metrics turns simulation results into the quantities the
// experiments report — fairness indices, per-core slowdowns, competitive
// ratios — and renders aligned text tables (the library's replacement
// for the paper's, nonexistent, result tables). Exposition (prom.go)
// writes the Prometheus text that mcservd, mcfleet and telemetry serve.
package metrics

import (
	"fmt"
	"io"
	"strings"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
)

// JainIndex computes Jain's fairness index of a non-negative vector:
// (Σx)² / (n·Σx²). It is 1 when all entries are equal and 1/n when one
// entry dominates; NaN-free: an all-zero vector scores 1 (perfectly
// fair: nobody faults).
func JainIndex(xs []int64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var sum, sq float64
	for _, x := range xs {
		f := float64(x)
		sum += f
		sq += f * f
	}
	if sq == 0 {
		return 1
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// Spread returns max/min of a positive vector, or +Inf when the minimum
// is zero but the maximum is not, and 1 for empty or all-zero vectors.
func Spread(xs []int64) float64 {
	if len(xs) == 0 {
		return 1
	}
	min, max := xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	if max == 0 {
		return 1
	}
	if min == 0 {
		return float64(max) / 0.5 // sentinel-ish large value without Inf noise in tables
	}
	return float64(max) / float64(min)
}

// Slowdowns returns, per core, finish time divided by sequence length —
// exactly 1 + τ·(fault rate) in this model; 1.0 means no fault delay.
// Cores with empty sequences report 1.
func Slowdowns(r core.RequestSet, res sim.Result) []float64 {
	out := make([]float64, len(r))
	for j := range r {
		if len(r[j]) == 0 {
			out[j] = 1
			continue
		}
		out[j] = float64(res.Finish[j]) / float64(len(r[j]))
	}
	return out
}

// WindowSlowdown applies the Slowdowns model to one telemetry window:
// 1 + τ·(faults/requests), the factor by which the window's requests
// were stretched by fault delays. Empty windows report 1.
func WindowSlowdown(faults, requests int64, tau int) float64 {
	if requests == 0 {
		return 1
	}
	return 1 + float64(tau)*float64(faults)/float64(requests)
}

// Table is a simple aligned text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v, except float64,
// which uses %.3g for compact scientific-friendly display.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case string:
			row[i] = v
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// NumRows returns the number of data rows.
func (t *Table) NumRows() int { return len(t.rows) }

// Render writes the table, aligned, to w.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Markdown writes the table as a GitHub-flavoured markdown table,
// preceded by its title as a bold line.
func (t *Table) Markdown(w io.Writer) error {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "**%s**\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.Headers, " | ") + " |\n")
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// CSV writes the table as comma-separated values (no quoting — cells in
// this library never contain commas).
func (t *Table) CSV(w io.Writer) error {
	var b strings.Builder
	b.WriteString(strings.Join(t.Headers, ","))
	b.WriteByte('\n')
	for _, row := range t.rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WeightedSpeedup is the standard multicore throughput metric: the mean
// over cores of soloFinish[j] / finish[j], where soloFinish[j] is the
// core's finish time running alone with the full cache. Values near 1
// mean the shared cache costs little; small values mean heavy
// interference. Cores with empty sequences are skipped.
func WeightedSpeedup(r core.RequestSet, res sim.Result, soloFinish []int64) float64 {
	var sum float64
	n := 0
	for j := range r {
		if len(r[j]) == 0 || res.Finish[j] == 0 {
			continue
		}
		sum += float64(soloFinish[j]) / float64(res.Finish[j])
		n++
	}
	if n == 0 {
		return 1
	}
	return sum / float64(n)
}
