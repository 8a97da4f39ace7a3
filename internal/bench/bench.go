// Package bench is the reproduction harness: one experiment per table and
// figure of the paper's evaluation, each emitting the same rows/series the
// paper reports. cmd/alabench renders them; the repository-level Go
// benchmarks wrap them; EXPERIMENTS.md records paper-expected vs measured.
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// Table is one experiment's output: a titled grid of formatted values plus
// free-form notes (assumptions, paper-expected values, caveats).
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
	// Timed lists the cells, as {row, column}, that hold this host's
	// wall-clock measurements: they differ between runs of one build, so
	// Diff lets them differ.
	Timed [][2]int
}

// AddRow appends a formatted row; values are stringified with %v unless
// already strings.
func (t *Table) AddRow(vals ...interface{}) {
	row := make([]string, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case string:
			row[i] = x
		case float64:
			row[i] = formatFloat(x)
		default:
			row[i] = fmt.Sprintf("%v", v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// formatFloat renders measurement values compactly.
func formatFloat(x float64) string {
	switch {
	case x == 0:
		return "0"
	case x >= 0.01 && x < 1e6:
		return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%.4f", x), "0"), ".")
	default:
		return fmt.Sprintf("%.3e", x)
	}
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	line := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := line(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := line(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := line(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// RenderCSV writes comma-separated values (notes become # comments).
func (t *Table) RenderCSV(w io.Writer) error {
	esc := func(s string) string {
		if strings.ContainsAny(s, ",\"\n") {
			return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
		}
		return s
	}
	cols := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = esc(c)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		cells := make([]string, len(row))
		for i, c := range row {
			cells[i] = esc(c)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "# %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// Config tunes experiment scale.
type Config struct {
	// Quick shrinks sweeps for smoke tests and CI; full scale reproduces
	// the paper's ranges.
	Quick bool
	// Progress, if non-nil, receives one-line status updates.
	Progress io.Writer
	// Jobs bounds how many independent sweep points (and, via RunMany,
	// experiments) run concurrently. 0 means GOMAXPROCS; 1 forces the
	// sequential order. Tables are byte-identical across settings (wall-
	// clock measurement columns excepted).
	Jobs int
}

// progressMu serializes progress lines from concurrent sweep points.
var progressMu sync.Mutex

func (c Config) logf(format string, args ...interface{}) {
	if c.Progress != nil {
		progressMu.Lock()
		defer progressMu.Unlock()
		fmt.Fprintf(c.Progress, format+"\n", args...)
	}
}

// Experiment is a registered reproduction target.
type Experiment struct {
	ID    string
	Title string
	Run   func(Config) (*Table, error)
	// Varies marks an experiment whose numbers differ between runs of one
	// build (live HTTP traffic and its scheduling); Check skips it.
	Varies bool
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic("bench: duplicate experiment " + e.ID)
	}
	registry[e.ID] = e
}

// All returns registered experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}
