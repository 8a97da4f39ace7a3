package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"adcres", "calib", "dda", "decomp", "engines", "federation", "fig10", "fig11", "fig12", "fig7", "fig8", "fig9", "multigrid", "noise", "parallel", "table1", "table2", "table3"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("%d experiments registered, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("experiment %d = %s want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	if _, ok := ByID("fig8"); !ok {
		t.Fatal("ByID failed")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("ByID found a ghost")
	}
}

func TestTableRendering(t *testing.T) {
	tb := &Table{
		ID:      "x",
		Title:   "demo",
		Columns: []string{"a", "b"},
		Notes:   []string{"note, with comma"},
	}
	tb.AddRow(1, "two")
	tb.AddRow(3.5, `quo"ted`)
	var txt bytes.Buffer
	if err := tb.Render(&txt); err != nil {
		t.Fatal(err)
	}
	out := txt.String()
	if !strings.Contains(out, "demo") || !strings.Contains(out, "two") || !strings.Contains(out, "# note") {
		t.Fatalf("render output:\n%s", out)
	}
	var csv bytes.Buffer
	if err := tb.RenderCSV(&csv); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), `"quo""ted"`) {
		t.Fatalf("CSV escaping wrong:\n%s", csv.String())
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		0:    "0",
		1.5:  "1.5",
		0.25: "0.25",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v)=%q want %q", in, got, want)
		}
	}
	if got := formatFloat(1e-9); !strings.Contains(got, "e-") {
		t.Errorf("tiny value %q not scientific", got)
	}
}

func TestFitExponent(t *testing.T) {
	xs := []float64{10, 100, 1000}
	ys := []float64{2e2, 2e4, 2e6} // y = 2·x²
	if e := fitExponent(xs, ys); e < 1.99 || e > 2.01 {
		t.Fatalf("exponent %v want 2", e)
	}
}

// parse pulls a float out of a rendered cell.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func runQuick(t *testing.T, id string) *Table {
	t.Helper()
	e, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %s missing", id)
	}
	tb, err := e.Run(Config{Quick: true})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if tb.ID != id || len(tb.Rows) == 0 {
		t.Fatalf("%s: empty table", id)
	}
	return tb
}

func TestEnginesQuickShape(t *testing.T) {
	tb := runQuick(t, "engines")
	// Two engines per grid size, and every fused solution must be
	// bit-identical to the interpreter's.
	if len(tb.Rows)%2 != 0 {
		t.Fatalf("want 2 rows per grid size, got %d rows", len(tb.Rows))
	}
	for _, row := range tb.Rows {
		if match := row[4]; match != "—" && match != "yes" {
			t.Fatalf("engine %s diverged from interpreter: %s", row[1], match)
		}
	}
}

func TestFig7QuickShape(t *testing.T) {
	tb := runQuick(t, "fig7")
	// CG's final error must be the smallest of the five methods.
	last := tb.Rows[len(tb.Rows)-1]
	cg := parse(t, last[1])
	for i, name := range []string{"steepest", "sor", "gs", "jacobi"} {
		v := parse(t, last[2+i])
		if cg > v {
			t.Fatalf("CG error %v not below %s error %v", cg, name, v)
		}
	}
	// Jacobi converges slowest.
	jac := parse(t, last[5])
	gs := parse(t, last[4])
	if jac < gs {
		t.Fatalf("Jacobi (%v) should trail Gauss-Seidel (%v)", jac, gs)
	}
}

func TestFig8QuickShape(t *testing.T) {
	tb := runQuick(t, "fig8")
	if len(tb.Rows) < 3 {
		t.Fatalf("%d rows", len(tb.Rows))
	}
	// Analog simulated time grows with N, roughly linearly: the ratio of
	// times between the largest and smallest N tracks the N ratio.
	first, last := tb.Rows[0], tb.Rows[len(tb.Rows)-1]
	n0, n1 := parse(t, first[0]), parse(t, last[0])
	a0, a1 := parse(t, first[4]), parse(t, last[4])
	growth := (a1 / a0) / (n1 / n0)
	if growth < 0.3 || growth > 4 {
		t.Fatalf("analog time growth %v not ~linear in N (N %v->%v, t %v->%v)", growth, n0, n1, a0, a1)
	}
	// The model's 80 kHz line is 4x faster than its 20 kHz line.
	m20, m80 := parse(t, last[5]), parse(t, last[6])
	if r := m20 / m80; r < 3.9 || r > 4.1 {
		t.Fatalf("bandwidth ratio %v", r)
	}
}

func TestFig9QuickShape(t *testing.T) {
	tb := runQuick(t, "fig9")
	// Every populated row: higher bandwidth column is faster.
	for _, row := range tb.Rows {
		if row[2] == "" || row[3] == "" {
			continue
		}
		if parse(t, row[2]) <= parse(t, row[3]) {
			t.Fatalf("20 kHz (%s) not slower than 80 kHz (%s)", row[2], row[3])
		}
	}
}

func TestFig10And11QuickShape(t *testing.T) {
	p := runQuick(t, "fig10")
	a := runQuick(t, "fig11")
	// Power and area grow with N within a design; blank cells only at
	// high bandwidth + large N.
	for _, tb := range []*Table{p, a} {
		var prev float64
		for _, row := range tb.Rows {
			if row[1] == "" {
				t.Fatalf("%s: base design blank at N=%s", tb.ID, row[0])
			}
			v := parse(t, row[1])
			if v <= prev {
				t.Fatalf("%s: base series not increasing", tb.ID)
			}
			prev = v
		}
		lastRow := tb.Rows[len(tb.Rows)-1]
		if lastRow[len(lastRow)-1] != "" {
			t.Fatalf("%s: 1.3 MHz design should exceed the die cap at N=%s", tb.ID, lastRow[0])
		}
	}
}

func TestFig12QuickShape(t *testing.T) {
	tb := runQuick(t, "fig12")
	for _, row := range tb.Rows {
		if row[1] == "" || row[2] == "" {
			t.Fatal("GPU columns empty")
		}
		// fp64 convergence costs more than the 1/256 stop.
		if parse(t, row[2]) < parse(t, row[1]) {
			t.Fatalf("fp64 CG energy (%s) below 1/256 stop energy (%s)", row[2], row[1])
		}
		// 80 kHz energy <= 20 kHz energy when both present (efficiency
		// improves up to 80 kHz). Columns: 3 = 20 kHz, 4 = 80 kHz.
		if row[3] != "" && row[4] != "" {
			if parse(t, row[4]) > parse(t, row[3])*1.001 {
				t.Fatalf("80 kHz (%s J) less efficient than 20 kHz (%s J)", row[4], row[3])
			}
		}
	}
}

func TestTable1Quick(t *testing.T) {
	tb := runQuick(t, "table1")
	if len(tb.Rows) < 15 {
		t.Fatalf("only %d ISA rows", len(tb.Rows))
	}
	// The analogAvg row must show the settled value 0.5.
	found := false
	for _, row := range tb.Rows {
		if row[1] == "analogAvg" && strings.Contains(row[3], "0.5") {
			found = true
		}
	}
	if !found {
		t.Fatal("analogAvg row missing settled value ~0.5")
	}
}

func TestTable2Quick(t *testing.T) {
	tb := runQuick(t, "table2")
	if len(tb.Rows) != 5 {
		t.Fatalf("%d component rows", len(tb.Rows))
	}
	if tb.Rows[0][0] != "integrator" || !strings.Contains(tb.Rows[0][1], "28") {
		t.Fatalf("integrator row %v", tb.Rows[0])
	}
}

func TestTable3Quick(t *testing.T) {
	tb := runQuick(t, "table3")
	if len(tb.Rows) != 18 {
		t.Fatalf("%d rows want 18 (6 quantities x 3 dims)", len(tb.Rows))
	}
	// 2-D analog conv. time: paper, model and measured all ≈ 1.
	for _, row := range tb.Rows {
		if row[0] == "2" && row[1] == "analog conv. time" {
			m := parse(t, row[4])
			// Quick mode sweeps tiny grids where sin²(πh/2) is far from
			// its small-angle limit and the chunk bracketing adds ±30%
			// noise, so accept a wide band; the full run tightens to ~1.
			if m < 0.35 || m > 1.6 {
				t.Fatalf("2-D measured analog time exponent %v want ~1", m)
			}
		}
	}
}

func TestAblationsQuick(t *testing.T) {
	adc := runQuick(t, "adcres")
	// More bits -> fewer refinement passes (weakly monotone).
	first := parse(t, adc.Rows[0][1])
	last := parse(t, adc.Rows[len(adc.Rows)-1][1])
	if last > first {
		t.Fatalf("refinements rose with ADC bits: %v -> %v", first, last)
	}

	cal := runQuick(t, "calib")
	for _, row := range cal.Rows {
		raw, calErr := parse(t, row[1]), parse(t, row[2])
		if calErr > raw {
			t.Fatalf("calibration made things worse: %v -> %v", raw, calErr)
		}
	}

	mg := runQuick(t, "multigrid")
	if len(mg.Rows) != 2 {
		t.Fatalf("%d multigrid rows", len(mg.Rows))
	}
	// The analog-coarse variant still converges to a tight residual.
	if !strings.Contains(mg.Rows[1][0], "analog") {
		t.Fatalf("second row not analog: %v", mg.Rows[1])
	}
	if parse(t, mg.Rows[1][3]) > 1e-7 {
		t.Fatalf("analog-coarse residual %s", mg.Rows[1][3])
	}

	dec := runQuick(t, "decomp")
	if len(dec.Rows) < 2 {
		t.Fatalf("%d decomp rows", len(dec.Rows))
	}
	if parse(t, dec.Rows[1][2]) > parse(t, dec.Rows[0][2]) {
		t.Fatalf("sweeps rose with block size: %v", dec.Rows)
	}
}

func TestFederationQuickShape(t *testing.T) {
	tb := runQuick(t, "federation")
	if len(tb.Rows) != 3 {
		t.Fatalf("%d policy rows want 3", len(tb.Rows))
	}
	// Affinity routing must beat random routing on cluster cache hit rate —
	// that is the whole point of the federation tier.
	affinity := parse(t, tb.Rows[0][2])
	random := parse(t, tb.Rows[1][2])
	if affinity <= random {
		t.Fatalf("affinity hit rate %v not above affinity-disabled %v", affinity, random)
	}
}

func TestDDACompareQuick(t *testing.T) {
	tb := runQuick(t, "dda")
	if len(tb.Rows) != 3 {
		t.Fatalf("%d substrate rows", len(tb.Rows))
	}
	// All three substrates land within 1% of the true solution.
	for _, row := range tb.Rows {
		if parse(t, row[1]) > 0.01 {
			t.Fatalf("%s error %s", row[0], row[1])
		}
	}
}
