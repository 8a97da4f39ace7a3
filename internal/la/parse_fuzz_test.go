package la

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// FuzzReadMatrixMarket: the parser never panics, and any matrix it
// accepts has at least as many entries as its order and round-trips
// through WriteMatrixMarket to the same CSR.
func FuzzReadMatrixMarket(f *testing.F) {
	const gen = "%%MatrixMarket matrix coordinate real general\n"
	const sym = "%%MatrixMarket matrix coordinate real symmetric\n"
	for _, s := range []string{
		gen + "% comment\n3 3 4\n1 1 2.0\n1 2 -1.0\n2 2 2.0\n3 3 2.0\n",
		sym + "3 3 4\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 3 2.0\n",
		sym + "2 2 1\n2 1 1\n",
		gen + "2 2 -1\n",
		gen + "2 2 1000000000\n1 1 1\n2 2 1\n",
		gen + "1000000000 1000000000 1\n1 1 1\n",
		gen + "2 2 3\n1 1 1\n1 1 NaN\n2 2 +Inf\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		a, err := ReadMatrixMarket(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteMatrixMarket(&buf, a); err != nil {
			t.Fatal(err)
		}
		back, err := ReadMatrixMarket(&buf)
		if err != nil {
			t.Fatalf("written form rejected: %v\n%s", err, buf.String())
		}
		sameCSR(t, a, back)
	})
}

// FuzzReadSystem: the same property for the triplet system format, whose
// right-hand side must round-trip too.
func FuzzReadSystem(f *testing.F) {
	for _, s := range []string{
		"# Equation 2\nn 2\na 0 0 2\na 0 1 -1\na 1 0 -1\na 1 1 2\nb 0 1\nb 1 0.5\n",
		"n 2\na 0 1 1\na 1 0 1\n",
		"n -1\na 0 0 1\n",
		"n 2000000000\na 0 0 1\n",
		"n 2\na 0 0 1\na 0 0 1\n",
		"n 1\na 0 0 -0\nb 0 NaN\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		a, b, err := ReadSystem(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteSystem(&buf, a, b); err != nil {
			t.Fatal(err)
		}
		back, bb, err := ReadSystem(&buf)
		if err != nil {
			t.Fatalf("written form rejected: %v\n%s", err, buf.String())
		}
		sameCSR(t, a, back)
		for i := range b {
			if !sameFloat(b[i], bb[i]) {
				t.Fatalf("b[%d]: %v became %v", i, b[i], bb[i])
			}
		}
	})
}

// sameCSR fails unless got has want's order, sparsity pattern and values
// (NaN matching NaN), and want has at least as many entries as its order.
func sameCSR(t *testing.T, want, got *CSR) {
	t.Helper()
	if want.Dim() > want.NNZ() {
		t.Fatalf("accepted order %d with only %d entries", want.Dim(), want.NNZ())
	}
	if got.Dim() != want.Dim() || got.NNZ() != want.NNZ() {
		t.Fatalf("order/nnz %d/%d became %d/%d", want.Dim(), want.NNZ(), got.Dim(), got.NNZ())
	}
	for i := 0; i < want.Dim(); i++ {
		var cols []int
		var vals []float64
		want.VisitRow(i, func(j int, v float64) { cols, vals = append(cols, j), append(vals, v) })
		k := 0
		got.VisitRow(i, func(j int, v float64) {
			if k >= len(cols) {
				t.Fatalf("row %d gained entry (%d, %v)", i, j, v)
			}
			if j != cols[k] || !sameFloat(v, vals[k]) {
				t.Fatalf("row %d entry %d: (%d, %v) became (%d, %v)", i, k, cols[k], vals[k], j, v)
			}
			k++
		})
	}
}

func sameFloat(x, y float64) bool { return x == y || math.IsNaN(x) && math.IsNaN(y) }
