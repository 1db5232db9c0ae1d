package harness

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"daredevil/internal/sim"
)

// Table is the one result shape every experiment produces: a titled grid of
// typed columns and rows of raw values (one row per stack and
// configuration), plus optional note lines printed under the grid. It has
// one text rendering (WriteText), one JSON encoding (the struct tags), and
// one SVG path (an Experiment's Chart).
type Table struct {
	Name    string   `json:"name"`
	Title   string   `json:"title"`
	Columns []Column `json:"columns"`
	// Rows hold raw values in column order: sim.Duration (nanoseconds in
	// JSON) for ms/us columns, float64 for f1/f2/pct, int or uint64 for
	// int, and anything printable for text. A nil value marks a latency
	// with no L completions in the window and renders as "blocked".
	Rows  [][]any  `json:"rows"`
	Notes []string `json:"notes"`
}

// Column is one named, typed table column.
type Column struct {
	Name   string `json:"name"`
	Format Format `json:"format"`
}

// Format says how a column's raw values print.
type Format string

// Column formats.
const (
	FmtMs   Format = "ms"   // sim.Duration as milliseconds, 3 decimals
	FmtUs   Format = "us"   // sim.Duration as microseconds, 2 decimals
	FmtF1   Format = "f1"   // float64, 1 decimal
	FmtF2   Format = "f2"   // float64, 2 decimals
	FmtInt  Format = "int"  // integer
	FmtPct  Format = "pct"  // float64 fraction as a whole percentage
	FmtText Format = "text" // printed as is (strings, stack kinds, instants)
)

// Add appends one row; it panics when the value count does not match the
// columns, which is a bug in the experiment, not in its input.
func (t *Table) Add(vals ...any) {
	if len(vals) != len(t.Columns) {
		panic(fmt.Sprintf("harness: table %q row has %d values for %d columns", t.Title, len(vals), len(t.Columns)))
	}
	t.Rows = append(t.Rows, vals)
}

// cell renders one raw value.
func (c Column) cell(v any) string {
	if v == nil {
		return "blocked"
	}
	switch c.Format {
	case FmtMs:
		return fmt.Sprintf("%.3f", v.(sim.Duration).Milliseconds())
	case FmtUs:
		return fmt.Sprintf("%.2f", v.(sim.Duration).Microseconds())
	case FmtF1:
		return fmt.Sprintf("%.1f", v.(float64))
	case FmtF2:
		return fmt.Sprintf("%.2f", v.(float64))
	case FmtPct:
		return fmt.Sprintf("%.0f%%", 100*v.(float64))
	}
	return fmt.Sprint(v)
}

// WriteText renders the title, the aligned grid, and the notes.
func (t Table) WriteText(w io.Writer) {
	fmt.Fprintf(w, "\n== %s ==\n", t.Title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	cells := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cells[i] = c.Name
	}
	fmt.Fprintln(tw, strings.Join(cells, "\t"))
	for _, row := range t.Rows {
		for i, c := range t.Columns {
			cells[i] = c.cell(row[i])
		}
		fmt.Fprintln(tw, strings.Join(cells, "\t"))
	}
	tw.Flush()
	if len(t.Notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range t.Notes {
			fmt.Fprintln(w, n)
		}
	}
}

// Row returns the first row whose leading values print the same as keys
// (so a StackKind key matches its name and 7 matches 7.0), or false.
func (t Table) Row(keys ...any) (Row, bool) {
	for _, vals := range t.Rows {
		match := true
		for i, k := range keys {
			if fmt.Sprint(vals[i]) != fmt.Sprint(k) {
				match = false
				break
			}
		}
		if match {
			return Row{t.Columns, vals}, true
		}
	}
	return Row{}, false
}

// At returns row i.
func (t Table) At(i int) Row { return Row{t.Columns, t.Rows[i]} }

// Row is one table row with by-name column access. The typed getters panic
// on a column name the table does not have.
type Row struct {
	cols []Column
	vals []any
}

// Value returns the raw value under the named column.
func (r Row) Value(col string) any {
	for i, c := range r.cols {
		if c.Name == col {
			return r.vals[i]
		}
	}
	panic(fmt.Sprintf("harness: no column %q", col))
}

// Blocked reports whether the named latency had no L completions.
func (r Row) Blocked(col string) bool { return r.Value(col) == nil }

// Dur returns a duration value; a blocked value reads as zero.
func (r Row) Dur(col string) sim.Duration {
	if v := r.Value(col); v != nil {
		return v.(sim.Duration)
	}
	return 0
}

// Float returns a float64 value.
func (r Row) Float(col string) float64 { return r.Value(col).(float64) }

// Int returns an integer value.
func (r Row) Int(col string) int64 {
	switch v := r.Value(col).(type) {
	case int:
		return int64(v)
	case uint64:
		return int64(v)
	}
	panic(fmt.Sprintf("harness: column %q is not an integer", col))
}

// Text returns the value as printed.
func (r Row) Text(col string) string { return fmt.Sprint(r.Value(col)) }
