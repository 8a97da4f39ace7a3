package bench

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// checkTable is a small table with a multi-byte cell ahead of the last
// column, a blank trailing cell, a host-timed cell and a note.
func checkTable() *Table {
	t := &Table{ID: "demo", Title: "Demo: a table", Columns: []string{"N", "mark", "wall (s)", "value"}}
	t.AddRow(4, "—", "1.000e-03", "2.5")
	t.markTimed(2)
	t.AddRow(16, "yes", "4.000e-03", "")
	t.markTimed(2)
	t.Notes = append(t.Notes, "a note")
	return t
}

// saved renders t and parses it back, as Check reads a saved file.
func saved(t *testing.T, tb *Table) *Table {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	tables, err := ParseTables(&buf)
	if err != nil || len(tables) != 1 {
		t.Fatalf("parse: %v (%d tables)", err, len(tables))
	}
	return tables[0]
}

func TestDiffIdenticalTablePasses(t *testing.T) {
	run := checkTable()
	s := saved(t, run)
	if s.Rows[0][1] != "—" || s.Rows[1][3] != "" || s.Rows[0][3] != "2.5" {
		t.Fatalf("cells did not parse back: %q", s.Rows)
	}
	if d := Diff(s, run); len(d) != 0 {
		t.Fatalf("identical table differs: %q", d)
	}
}

func TestDiffOneCellEditFails(t *testing.T) {
	run := checkTable()
	s := saved(t, run)
	s.Rows[1][0] = "17"
	d := Diff(s, run)
	if len(d) != 1 || !strings.Contains(d[0], "demo") || !strings.Contains(d[0], "row 2") || !strings.Contains(d[0], `"N"`) {
		t.Fatalf("one-cell edit: %q, want one difference naming demo, row 2 and column N", d)
	}
	s = saved(t, run)
	s.Notes[0] = "another note"
	if d := Diff(s, run); len(d) != 1 || !strings.Contains(d[0], "note 1") {
		t.Fatalf("note edit: %q, want one difference naming note 1", d)
	}
}

func TestDiffHostTimedCellMayDiffer(t *testing.T) {
	run := checkTable()
	s := saved(t, run)
	s.Rows[0][2] = "9.999e+00"
	if d := Diff(s, run); len(d) != 0 {
		t.Fatalf("host-timed cell flagged: %q", d)
	}
	// The same column of an unmarked row is compared.
	run.Timed = run.Timed[:1]
	s.Rows[1][2] = "9.999e+00"
	if d := Diff(s, run); len(d) != 1 || !strings.Contains(d[0], "row 2") {
		t.Fatalf("unmarked cell: %q, want one difference in row 2", d)
	}
}

// TestParseSavedExperiments reads the committed full run: every table must
// parse and name a registered experiment.
func TestParseSavedExperiments(t *testing.T) {
	f, err := os.Open("../../experiments_full.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tables, err := ParseTables(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(All()) {
		t.Fatalf("%d saved tables, %d experiments", len(tables), len(All()))
	}
	for _, tb := range tables {
		if _, ok := ByID(tb.ID); !ok {
			t.Errorf("saved table %q names no experiment", tb.ID)
		}
		for r, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("%s row %d: %d cells, %d columns", tb.ID, r+1, len(row), len(tb.Columns))
			}
		}
	}
}
