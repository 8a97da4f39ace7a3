package la

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

func TestReadMatrixMarketGeneral(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
1 2 -1.0
2 2 2.0
3 3 2.0
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 3 || m.NNZ() != 4 {
		t.Fatalf("dim=%d nnz=%d", m.Dim(), m.NNZ())
	}
	if m.At(0, 1) != -1 || m.At(1, 0) != 0 {
		t.Fatal("general file should not be symmetrized")
	}
}

func TestReadMatrixMarketSymmetric(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 2.0
2 1 -1.0
2 2 2.0
3 3 2.0
`
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != -1 || m.At(1, 0) != -1 {
		t.Fatal("symmetric expansion missing")
	}
	if m.NNZ() != 5 {
		t.Fatalf("nnz=%d want 5", m.NNZ())
	}
	if !m.IsSymmetric(0) {
		t.Fatal("not symmetric after expansion")
	}
}

func TestReadMatrixMarketErrors(t *testing.T) {
	cases := []string{
		"",
		"%%NotMM matrix coordinate real general\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix array real general\n",
		"%%MatrixMarket matrix coordinate complex general\n",
		"%%MatrixMarket matrix coordinate real hermitian\n",
		"%%MatrixMarket matrix coordinate real general\n2 3 1\n1 1 1\n", // not square
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1\n", // nnz mismatch
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",   // short entry
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx y z\n", // junk entry
		"%%MatrixMarket matrix coordinate real general\n1 1 1\n5 5 1\n", // out of range
		"%%MatrixMarket matrix coordinate real general\nnot a size line\n1 1 1\n",
		// Headers the body does not back: each would ask for gigabytes
		// (or panic in make) if anything were sized by it.
		"%%MatrixMarket matrix coordinate real general\n2 2 -1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1000000000\n1 1 1\n2 2 1\n",
		"%%MatrixMarket matrix coordinate real general\n1000000000 1000000000 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real symmetric\n2000000000 2000000000 1\n2 1 1\n",
		"%%MatrixMarket matrix coordinate real general\n3 3 2\n1 1 1\n2 2 1\n", // empty row
	}
	for i, c := range cases {
		var err error
		if grew := allocatedBy(func() { _, err = ReadMatrixMarket(strings.NewReader(c)) }); grew > maxRejectAlloc {
			t.Errorf("case %d: allocated %d bytes before refusing", i, grew)
		}
		if err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

// maxRejectAlloc bounds what a parser may allocate before refusing one
// of these short inputs: its line buffer and change, far below what any
// allocation sized by a bad header would take.
const maxRejectAlloc = 64 << 10

// allocatedBy reports the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func TestMatrixMarketRoundTrip(t *testing.T) {
	g, _ := NewGrid(2, 4)
	a := PoissonMatrix(g)
	var buf bytes.Buffer
	if err := WriteMatrixMarket(&buf, a); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMatrixMarket(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Dim() != a.Dim() || back.NNZ() != a.NNZ() {
		t.Fatalf("round trip dims %d/%d", back.Dim(), back.NNZ())
	}
	for i := 0; i < a.Dim(); i++ {
		a.VisitRow(i, func(j int, v float64) {
			if back.At(i, j) != v {
				t.Fatalf("(%d,%d): %v != %v", i, j, back.At(i, j), v)
			}
		})
	}
}

// TestReadMatrixMarketSymmetricOffDiagonalOnly: the order is checked
// against the entries after symmetric expansion, so [[0,1],[1,0]] stored
// as its one lower-triangle entry still parses.
func TestReadMatrixMarketSymmetricOffDiagonalOnly(t *testing.T) {
	in := "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n2 1 1\n"
	m, err := ReadMatrixMarket(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 2 || m.At(0, 1) != 1 || m.At(1, 0) != 1 || m.At(0, 0) != 0 {
		t.Fatalf("got %v", m.Dense())
	}
}
