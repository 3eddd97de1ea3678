// Package bench is the experiment harness: it regenerates, as measured
// tables, every artifact of the paper's presentation — Table 1 (complexity
// of QDSI) as empirical validation tables, and the three motivating
// scenarios of Example 1.1 as scaling series — plus one experiment per
// constructive theorem (4.2, 4.4, 4.5/4.6, 5.4, 6.1). The maintenance
// experiments (F1b, X5.4) run on the serving engine's Watch + Commit
// path. An experiment returns an error when its answers differ from
// recomputation or its deciders disagree, so cmd/sibench exits nonzero
// and TestAllExperimentsQuick, which runs each one in quick mode, fails.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Table is a formatted experiment result.
type Table struct {
	ID     string // experiment id from DESIGN.md (e.g. "F1a")
	Title  string
	Header []string
	Notes  string
	rows   [][]string
}

// NewTable builds an empty table.
func NewTable(id, title string, header ...string) *Table {
	return &Table{ID: id, Title: title, Header: header}
}

// Row appends a row; cells are formatted with %v.
func (t *Table) Row(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Round(time.Microsecond).String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the formatted rows.
func (t *Table) Rows() [][]string { return t.rows }

// String renders the table in aligned plain text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
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
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "note: %s\n", t.Notes)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown (for
// EXPERIMENTS.md).
func (t *Table) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, t.Title)
	b.WriteString("| " + strings.Join(t.Header, " | ") + " |\n")
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = "---"
	}
	b.WriteString("| " + strings.Join(sep, " | ") + " |\n")
	for _, r := range t.rows {
		b.WriteString("| " + strings.Join(r, " | ") + " |\n")
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "\n*%s*\n", t.Notes)
	}
	return b.String()
}

// Experiment is a named experiment runner.
type Experiment struct {
	ID  string
	Run func(quick bool) ([]*Table, error)
}

// All returns every experiment in presentation order.
func All() []Experiment {
	return []Experiment{
		{"T1", Table1},
		{"F1a", F1aBoundedVsNaive},
		{"F1b", F1bIncremental},
		{"F1c", F1cViews},
		{"X4.4", X44QCntl},
		{"X4.5", X45Embedded},
		{"X5.4", X54Maintenance},
		{"X6.1", X61VQSI},
	}
}
