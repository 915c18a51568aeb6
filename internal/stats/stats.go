// Package stats provides the small numeric and formatting helpers used
// by the experiment harness: means, normalization, and fixed-width text
// tables in the style of the paper's tables and figures.
package stats

import (
	"fmt"
	"strings"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Ratio returns num/den, or fallback when den is zero.
func Ratio(num, den int64, fallback float64) float64 {
	if den == 0 {
		return fallback
	}
	return float64(num) / float64(den)
}

// PercentRemoved expresses "removed x% of the penalty" for a normalized
// value (0.64 -> 36).
func PercentRemoved(normalized float64) float64 {
	return (1 - normalized) * 100
}

// GapPct is the relative optimality gap (cost - bound) / cost in
// percent, clamped at zero (a bound never exceeds its tour, but rounding
// can graze it). A non-positive cost has no gap.
func GapPct(cost, bound int64) float64 {
	if cost <= 0 {
		return 0
	}
	g := float64(cost-bound) / float64(cost) * 100
	if g < 0 {
		return 0
	}
	return g
}

// Table renders rows of cells as an aligned text table. The first row is
// the header; a separator line is drawn beneath it.
type Table struct {
	rows [][]string
}

// NewTable starts a table with the given header.
func NewTable(header ...string) *Table {
	t := &Table{}
	t.rows = append(t.rows, header)
	return t
}

// Row appends a data row; cells may be fewer than the header's (padded).
func (t *Table) Row(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Rowf appends a row of formatted cells.
func (t *Table) Rowf(format string, args ...any) {
	t.Row(strings.Split(fmt.Sprintf(format, args...), "|")...)
}

// String renders the table.
func (t *Table) String() string {
	cols := 0
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", width[i], c)
		}
		sb.WriteString("\n")
	}
	writeRow(t.rows[0])
	total := 0
	for i, w := range width {
		total += w
		if i > 0 {
			total += 2
		}
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteString("\n")
	for _, r := range t.rows[1:] {
		writeRow(r)
	}
	return sb.String()
}

// FormatCount renders large counts with M/K suffixes, like the paper's
// "11.8M" style.
func FormatCount(n int64) string {
	switch {
	case n >= 10_000_000:
		return fmt.Sprintf("%.1fM", float64(n)/1e6)
	case n >= 1_000_000:
		return fmt.Sprintf("%.2fM", float64(n)/1e6)
	case n >= 10_000:
		return fmt.Sprintf("%.1fK", float64(n)/1e3)
	default:
		return fmt.Sprintf("%d", n)
	}
}
