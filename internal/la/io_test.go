package la

import (
	"bytes"
	"strings"
	"testing"
)

func TestReadSystemBasic(t *testing.T) {
	in := `# 2x2 system from Equation 2
n 2
a 0 0 2
a 0 1 -1
a 1 0 -1
a 1 1 2
b 0 1
b 1 0.5
`
	a, b, err := ReadSystem(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if a.Dim() != 2 || a.At(0, 1) != -1 {
		t.Fatalf("matrix wrong: %v", a.Dense())
	}
	if !b.Equal(VectorOf(1, 0.5), 0) {
		t.Fatalf("b=%v", b)
	}
}

func TestReadSystemErrors(t *testing.T) {
	cases := []string{
		"a 0 0 1\n",               // missing n
		"n 0\n",                   // non-positive order
		"n x\n",                   // bad order
		"n 2\na 0 0\n",            // short matrix record
		"n 1\na 0 5 1\n",          // out of range col
		"n 1\na 0 0 1\nb 7 1\n",   // out of range rhs
		"n 2\nb 0\n",              // short rhs record
		"n 2\nq 0 0 1\n",          // unknown record
		"n 2\na 0 0 notanum\n",    // bad float
		"n 2000000000\na 0 0 1\n", // order the entries cannot back
		"n 3\na 0 0 1\na 1 1 1\n", // empty row
		"n 2\na 0 0 1\na 0 0 1\n", // empty row behind a duplicate
	}
	for _, c := range cases {
		var err error
		if grew := allocatedBy(func() { _, _, err = ReadSystem(strings.NewReader(c)) }); grew > maxRejectAlloc {
			t.Errorf("input %q: allocated %d bytes before refusing", c, grew)
		}
		if err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
}

func TestSystemRoundTrip(t *testing.T) {
	g, _ := NewGrid(2, 3)
	a := PoissonMatrix(g)
	b := NewVector(a.Dim())
	for i := range b {
		b[i] = float64(i) - 3.5
	}
	var buf bytes.Buffer
	if err := WriteSystem(&buf, a, b); err != nil {
		t.Fatal(err)
	}
	a2, b2, err := ReadSystem(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Dim() != a.Dim() || a2.NNZ() != a.NNZ() {
		t.Fatalf("round trip dim/nnz %d/%d vs %d/%d", a2.Dim(), a2.NNZ(), a.Dim(), a.NNZ())
	}
	for i := 0; i < a.Dim(); i++ {
		a.VisitRow(i, func(j int, v float64) {
			if a2.At(i, j) != v {
				t.Fatalf("(%d,%d) %v != %v", i, j, a2.At(i, j), v)
			}
		})
	}
	if !b2.Equal(b, 0) {
		t.Fatalf("b round trip %v vs %v", b2, b)
	}
}

func TestWriteSystemDimensionError(t *testing.T) {
	a := Tridiag(3, -1, 2, -1)
	if err := WriteSystem(&bytes.Buffer{}, a, NewVector(2)); err == nil {
		t.Fatal("expected dimension error")
	}
}
