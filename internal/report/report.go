// Package report provides text-table formatting and the small statistics
// (geometric means, ratios) used to present experiment results in the shape
// of the paper's tables and figures.
package report

import (
	"fmt"
	"strings"
)

// Table is a titled text table.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a footnote.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString(t.Title + "\n")
	}
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(pad(c, widths[i]))
		}
		sb.WriteString("\n")
	}
	line(t.Headers)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	sb.WriteString(strings.Repeat("-", total) + "\n")
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		sb.WriteString("  note: " + n + "\n")
	}
	return sb.String()
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// F formats a float with the given precision.
func F(v float64, prec int) string { return fmt.Sprintf("%.*f", prec, v) }

// Ms formats nanoseconds as milliseconds.
func Ms(ns float64) string { return fmt.Sprintf("%.2fms", ns/1e6) }

// GB formats bytes as gigabytes.
func GB(b float64) string { return fmt.Sprintf("%.2fGB", b/1e9) }

// X formats a ratio as a multiplier.
func X(v float64) string { return fmt.Sprintf("%.2fx", v) }

// CSV renders the table as comma-separated values (quoted where needed) for
// downstream plotting.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString(",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.Headers)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}
