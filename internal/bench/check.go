package bench

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"strings"
)

// Checking a saved run. experiments_full.txt is the rendered output of
// `alabench -e all`; Check reruns every section such a file holds and
// reports each cell or note that no longer matches, so a paper table
// cannot drift from the code that produces it unnoticed. Two things vary
// between runs of one build and are skipped: the cells an experiment
// marks host-timed (Table.Timed), and the experiments marked Varies.

// markTimed declares column col of the last added row a host wall-clock
// measurement.
func (t *Table) markTimed(col int) {
	t.Timed = append(t.Timed, [2]int{len(t.Rows) - 1, col})
}

func (t *Table) timed(row, col int) bool {
	for _, c := range t.Timed {
		if c == [2]int{row, col} {
			return true
		}
	}
	return false
}

// ParseTables reads tables back from Render's text form: a "== id: title
// ==" header, the column names, a dashed separator whose runs give each
// column's span, the rows, then "# " notes; a blank line ends a table.
func ParseTables(r io.Reader) ([]*Table, error) {
	var (
		tables []*Table
		t      *Table
		spans  [][2]int
		state  int // 0 between tables, 1 columns next, 2 separator next, 3 rows, 4 notes
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for line := 1; sc.Scan(); line++ {
		text := sc.Text()
		switch {
		case text == "":
			state = 0
		case state == 0:
			head, ok := strings.CutPrefix(text, "== ")
			head, ok2 := strings.CutSuffix(head, " ==")
			id, title, ok3 := strings.Cut(head, ": ")
			if !ok || !ok2 || !ok3 {
				return nil, fmt.Errorf("bench: line %d: want a \"== id: title ==\" header, got %q", line, text)
			}
			t = &Table{ID: id, Title: title}
			tables = append(tables, t)
			state = 1
		case state == 1:
			t.Columns = []string{text} // split once the separator gives the spans
			state = 2
		case state == 2:
			spans = columnSpans(text)
			if len(spans) == 0 {
				return nil, fmt.Errorf("bench: line %d: %s: want a dashed separator, got %q", line, t.ID, text)
			}
			t.Columns = splitSpans(t.Columns[0], spans)
			state = 3
		case strings.HasPrefix(text, "# "):
			t.Notes = append(t.Notes, strings.TrimPrefix(text, "# "))
			state = 4
		case state == 3:
			t.Rows = append(t.Rows, splitSpans(text, spans))
		default:
			return nil, fmt.Errorf("bench: line %d: %s: row after the notes: %q", line, t.ID, text)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if state == 1 || state == 2 {
		return nil, fmt.Errorf("bench: %s: table ends before its separator", t.ID)
	}
	return tables, nil
}

// columnSpans returns the rune offsets [start, end) of each dash run.
func columnSpans(sep string) [][2]int {
	var spans [][2]int
	start := -1
	for i, c := range []rune(sep + " ") {
		switch {
		case c == '-' && start < 0:
			start = i
		case c == ' ' && start >= 0:
			spans = append(spans, [2]int{start, i})
			start = -1
		case c != '-' && c != ' ':
			return nil
		}
	}
	return spans
}

// splitSpans cuts a rendered line into cells. Render pads each cell to its
// column's width in runes, so rune offsets hold past multi-byte cells; the
// last column takes the rest of the line.
func splitSpans(line string, spans [][2]int) []string {
	rs := []rune(line)
	cells := make([]string, len(spans))
	for i, sp := range spans {
		lo, hi := min(sp[0], len(rs)), min(sp[1], len(rs))
		if i == len(spans)-1 {
			hi = len(rs)
		}
		cells[i] = strings.TrimSpace(string(rs[lo:hi]))
	}
	return cells
}

// Diff compares a saved table with a fresh run of its experiment and
// returns one line per difference, naming the table, row and column.
// Cells the fresh run marks host-timed may differ.
func Diff(saved, run *Table) []string {
	// Compare the run as it renders, so both sides went through the same
	// padding and trimming.
	var buf bytes.Buffer
	if err := run.Render(&buf); err != nil {
		return []string{fmt.Sprintf("%s: rendering the run: %v", run.ID, err)}
	}
	parsed, err := ParseTables(&buf)
	if err != nil || len(parsed) != 1 {
		return []string{fmt.Sprintf("%s: the run does not parse back: %v", run.ID, err)}
	}
	fresh := parsed[0]
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, saved.ID+": "+fmt.Sprintf(format, args...))
	}
	if saved.Title != fresh.Title {
		add("title %q, run %q", saved.Title, fresh.Title)
	}
	if !slices.Equal(saved.Columns, fresh.Columns) {
		add("columns %q, run %q", saved.Columns, fresh.Columns)
		return diffs
	}
	if len(saved.Rows) != len(fresh.Rows) {
		add("%d rows, run %d", len(saved.Rows), len(fresh.Rows))
	}
	for r := 0; r < min(len(saved.Rows), len(fresh.Rows)); r++ {
		for c, col := range saved.Columns {
			if a, b := saved.Rows[r][c], fresh.Rows[r][c]; a != b && !run.timed(r, c) {
				add("row %d (%s) column %q: %q, run %q", r+1, saved.Rows[r][0], col, a, b)
			}
		}
	}
	if len(saved.Notes) != len(fresh.Notes) {
		add("%d notes, run %d", len(saved.Notes), len(fresh.Notes))
	}
	for i := 0; i < min(len(saved.Notes), len(fresh.Notes)); i++ {
		if saved.Notes[i] != fresh.Notes[i] {
			add("note %d: %q, run %q", i+1, saved.Notes[i], fresh.Notes[i])
		}
	}
	return diffs
}

// Check reruns the experiment of every table saved in r, except those
// marked Varies, and returns the differences Diff finds, in file order.
func Check(cfg Config, r io.Reader) ([]string, error) {
	saved, err := ParseTables(r)
	if err != nil {
		return nil, err
	}
	var (
		exps  []Experiment
		check []*Table
	)
	for _, t := range saved {
		e, ok := ByID(t.ID)
		if !ok {
			return nil, fmt.Errorf("bench: saved table %q names no experiment", t.ID)
		}
		if e.Varies {
			cfg.logf("check: %s skipped (varies between runs)", t.ID)
			continue
		}
		exps = append(exps, e)
		check = append(check, t)
	}
	runs, err := RunMany(cfg, exps)
	if err != nil {
		return nil, err
	}
	var diffs []string
	for i, t := range check {
		diffs = append(diffs, Diff(t, runs[i])...)
	}
	return diffs, nil
}
