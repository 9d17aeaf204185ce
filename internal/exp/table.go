// Package exp is the experiment harness: one driver per experiment in
// DESIGN.md §4, each regenerating a table of the evaluation.
//
// Every experiment is decomposed into independent seeded trials. The
// classic drivers (E1Rounds, ...) run them sequentially; Runner fans the
// same trials across a worker pool and reassembles the tables
// deterministically, so for a fixed Config the output is bit-identical at
// any worker count. ResultSet carries the tables on a machine-readable
// JSON surface. Both are exercised by cmd/mdstbench and by the root-level
// benchmarks.
package exp

import (
	"fmt"
	"io"
	"strings"
)

// Table is a printable experiment result. The json tags define the stable
// machine-readable surface emitted by ResultSet.WriteJSON and mdstbench
// -json.
type Table struct {
	ID     string     `json:"id"`
	Title  string     `json:"title"`
	Claim  string     `json:"claim,omitempty"` // the paper's claim this table checks
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	Notes  []string   `json:"notes,omitempty"`
}

// Add appends a row, formatting each cell with %v (floats get %.3g).
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case bool:
			if v {
				row[i] = "yes"
			} else {
				row[i] = "no"
			}
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Note appends a footnote.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(w, "   claim: %s\n", t.Claim)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Config scales the experiments: Seeds repetitions per cell and a size
// factor in (0,1] to shrink workloads for quick runs.
type Config struct {
	Seeds int
	Scale float64
}

// Default returns the full-size configuration behind the experiment
// tables listed in README.md.
func Default() Config { return Config{Seeds: 5, Scale: 1} }

// Quick returns a configuration small enough for unit tests.
func Quick() Config { return Config{Seeds: 2, Scale: 0.25} }

func (c Config) seeds() int {
	if c.Seeds <= 0 {
		return 5
	}
	return c.Seeds
}

func (c Config) scaleFactor() float64 {
	if c.Scale <= 0 || c.Scale > 1 {
		return 1
	}
	return c.Scale
}

func (c Config) scale(n int) int {
	v := int(float64(n) * c.scaleFactor())
	if v < 8 {
		v = 8
	}
	return v
}
