package core

import (
	"fmt"
	"strings"
)

// Report is one regenerated table or figure: an identifier matching
// DESIGN.md's experiment index, a header, and formatted rows.
type Report struct {
	ID    string
	Title string
	// Header names the columns.
	Header []string
	// Rows holds formatted cells.
	Rows [][]string
	// Notes records the expected shape from the paper for side-by-side
	// comparison in EXPERIMENTS.md.
	Notes string
	// Err is non-empty for a degraded report: the experiment failed and
	// Rows describe the failure instead of results.
	Err string
}

// Failed reports whether this is a degraded report standing in for an
// experiment that could not complete.
func (r *Report) Failed() bool { return r.Err != "" }

// firstLine truncates s at its first newline, keeping degraded table rows
// single-line even when the error carries a stack trace.
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	total := len(widths) - 1
	for _, w := range widths {
		total += w + 1
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range r.Rows {
		line(row)
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", r.Notes)
	}
	return b.String()
}

// Markdown renders the report as a GitHub-flavoured markdown table.
func (r *Report) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", r.ID, r.Title)
	b.WriteString("| " + strings.Join(r.Header, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(r.Header)) + "\n")
	for _, row := range r.Rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "\n*%s*\n", r.Notes)
	}
	return b.String()
}

// fmtBytes renders a byte count with binary units.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%d B", n)
	}
}

// fmtMS renders seconds as milliseconds.
func fmtMS(sec float64) string { return fmt.Sprintf("%.2f ms", sec*1e3) }
