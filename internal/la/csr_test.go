package la

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewCSRBasics(t *testing.T) {
	m := MustCSR(3, []COOEntry{
		{0, 0, 2}, {0, 1, -1},
		{1, 0, -1}, {1, 1, 2}, {1, 2, -1},
		{2, 1, -1}, {2, 2, 2},
	})
	if m.Dim() != 3 || m.NNZ() != 7 {
		t.Fatalf("dim=%d nnz=%d", m.Dim(), m.NNZ())
	}
	if m.At(1, 2) != -1 || m.At(0, 2) != 0 {
		t.Fatalf("At wrong: %v %v", m.At(1, 2), m.At(0, 2))
	}
	if m.RowNNZ(1) != 3 || m.MaxRowNNZ() != 3 {
		t.Fatalf("RowNNZ=%d MaxRowNNZ=%d", m.RowNNZ(1), m.MaxRowNNZ())
	}
}

func TestNewCSRDuplicatesSum(t *testing.T) {
	m := MustCSR(2, []COOEntry{{0, 0, 1}, {0, 0, 2}, {1, 1, 5}})
	if m.At(0, 0) != 3 {
		t.Fatalf("duplicate sum gave %v", m.At(0, 0))
	}
	if m.NNZ() != 2 {
		t.Fatalf("nnz=%d want 2", m.NNZ())
	}
}

func TestNewCSROutOfRange(t *testing.T) {
	if _, err := NewCSR(2, []COOEntry{{2, 0, 1}}); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := NewCSR(2, []COOEntry{{0, -1, 1}}); err == nil {
		t.Fatal("expected range error for negative col")
	}
}

func TestCSRApplyMatchesDense(t *testing.T) {
	m := Tridiag(6, -1, 2, -1)
	d := m.Dense()
	x := VectorOf(1, -2, 3, -4, 5, -6)
	got, want := NewVector(6), NewVector(6)
	m.Apply(got, x)
	d.Apply(want, x)
	if !got.Equal(want, 1e-14) {
		t.Fatalf("CSR %v vs dense %v", got, want)
	}
}

func TestCSRVisitRowOrdered(t *testing.T) {
	m := MustCSR(3, []COOEntry{{1, 2, 5}, {1, 0, 3}, {1, 1, 4}})
	var cols []int
	m.VisitRow(1, func(j int, a float64) { cols = append(cols, j) })
	if len(cols) != 3 || cols[0] != 0 || cols[1] != 1 || cols[2] != 2 {
		t.Fatalf("VisitRow order %v", cols)
	}
}

func TestCSRDiag(t *testing.T) {
	m := Tridiag(3, -1, 7, -1)
	if !m.Diag().Equal(VectorOf(7, 7, 7), 0) {
		t.Fatalf("Diag=%v", m.Diag())
	}
}

func TestCSRScaleCloneIndependence(t *testing.T) {
	m := Tridiag(3, -1, 2, -1)
	s := m.Scaled(2)
	if m.At(0, 0) != 2 || s.At(0, 0) != 4 {
		t.Fatalf("Scaled: orig=%v scaled=%v", m.At(0, 0), s.At(0, 0))
	}
	c := m.Clone()
	c.Scale(10)
	if m.At(1, 0) != -1 {
		t.Fatal("Clone aliased values")
	}
}

func TestCSRFromDenseRoundTrip(t *testing.T) {
	d := DenseOf([]float64{1, 0, 2}, []float64{0, 0, 0}, []float64{-3, 4, 0})
	m := CSRFromDense(d)
	if m.NNZ() != 4 {
		t.Fatalf("nnz=%d want 4", m.NNZ())
	}
	back := m.Dense()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if back.At(i, j) != d.At(i, j) {
				t.Fatalf("round trip (%d,%d): %v != %v", i, j, back.At(i, j), d.At(i, j))
			}
		}
	}
}

func TestCSRSymmetric(t *testing.T) {
	if !Tridiag(5, -1, 2, -1).IsSymmetric(0) {
		t.Fatal("symmetric tridiag not detected")
	}
	if Tridiag(5, -1, 2, -2).IsSymmetric(0) {
		t.Fatal("asymmetric tridiag reported symmetric")
	}
}

func TestCSRGershgorin(t *testing.T) {
	lo, hi := Tridiag(8, -1, 4, -1).GershgorinBounds()
	if lo != 2 || hi != 6 {
		t.Fatalf("bounds [%v,%v] want [2,6]", lo, hi)
	}
}

func TestCSRSubmatrix(t *testing.T) {
	g, _ := NewGrid(2, 3)
	m := PoissonMatrix(g) // 9x9 2-D Poisson
	// First 1-D strip (row y=0): indices 0,1,2 — should be the tridiagonal block.
	sub := m.Submatrix([]int{0, 1, 2})
	h2 := 1 / (g.H() * g.H())
	want := Tridiag(3, -h2, 4*h2, -h2)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if math.Abs(sub.At(i, j)-want.At(i, j)) > 1e-9 {
				t.Fatalf("submatrix (%d,%d)=%v want %v", i, j, sub.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestCSROffBlockApply(t *testing.T) {
	g, _ := NewGrid(2, 3)
	m := PoissonMatrix(g)
	idx := []int{0, 1, 2}
	x := NewVector(9)
	for i := range x {
		x[i] = float64(i + 1)
	}
	// dst[p] should pick up only couplings to rows 3..8 (the -1/h² to y=1).
	dst := NewVector(3)
	m.OffBlockApply(dst, idx, x)
	h2 := 1 / (g.H() * g.H())
	want := VectorOf(-h2*x[3], -h2*x[4], -h2*x[5])
	if !dst.Equal(want, 1e-9) {
		t.Fatalf("OffBlockApply=%v want %v", dst, want)
	}
	// Consistency: A_sub·x_sub + offblock == (A·x) restricted to idx.
	full := NewVector(9)
	m.Apply(full, x)
	sub := m.Submatrix(idx)
	inner := NewVector(3)
	sub.Apply(inner, VectorOf(x[0], x[1], x[2]))
	for p, gidx := range idx {
		if math.Abs(inner[p]+dst[p]-full[gidx]) > 1e-9 {
			t.Fatalf("block split inconsistent at %d: %v + %v != %v", p, inner[p], dst[p], full[gidx])
		}
	}
}

func randomSparse(r *rand.Rand, n int) *CSR {
	var entries []COOEntry
	for i := 0; i < n; i++ {
		entries = append(entries, COOEntry{i, i, 4 + r.Float64()})
		for k := 0; k < 2; k++ {
			entries = append(entries, COOEntry{i, r.Intn(n), r.NormFloat64()})
		}
	}
	return MustCSR(n, entries)
}

// Property: CSR.Apply agrees with Dense.Apply on random sparse matrices.
func TestPropCSRDenseAgreement(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(20)
		m := randomSparse(r, n)
		d := m.Dense()
		x := randomVector(r, n)
		a, b := NewVector(n), NewVector(n)
		m.Apply(a, x)
		d.Apply(b, x)
		return a.Equal(b, 1e-10)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Submatrix + OffBlockApply exactly partition A·x for any
// contiguous block, on random sparse matrices.
func TestPropBlockPartition(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		m := randomSparse(r, n)
		lo := r.Intn(n - 1)
		hi := lo + 1 + r.Intn(n-lo-1)
		idx := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			idx = append(idx, i)
		}
		x := randomVector(r, n)
		full := NewVector(n)
		m.Apply(full, x)
		sub := m.Submatrix(idx)
		xs := NewVector(len(idx))
		for p, g := range idx {
			xs[p] = x[g]
		}
		inner := NewVector(len(idx))
		sub.Apply(inner, xs)
		off := NewVector(len(idx))
		m.OffBlockApply(off, idx, x)
		for p, g := range idx {
			if math.Abs(inner[p]+off[p]-full[g]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// sortAssembled is NewCSR's general path, kept verbatim as the reference
// for its row-major shortcut: copy, sort by (row, col), sum duplicates.
func sortAssembled(n int, entries []COOEntry) *CSR {
	sorted := append([]COOEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{n: n, rowPtr: make([]int, n+1)}
	for k := 0; k < len(sorted); {
		e := sorted[k]
		v := e.Val
		k++
		for k < len(sorted) && sorted[k].Row == e.Row && sorted[k].Col == e.Col {
			v += sorted[k].Val
			k++
		}
		m.colIdx = append(m.colIdx, e.Col)
		m.values = append(m.values, v)
		m.rowPtr[e.Row+1]++
	}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m
}

// identicalCSR reports whether two CSRs are bit-identical: order, pattern,
// and every stored value's bits (so -0 and explicit zeros count), with
// an empty matrix's nil slices told apart from empty ones.
func identicalCSR(a, b *CSR) bool {
	if a.n != b.n || !reflect.DeepEqual(a.rowPtr, b.rowPtr) || !reflect.DeepEqual(a.colIdx, b.colIdx) || len(a.values) != len(b.values) || (a.values == nil) != (b.values == nil) {
		return false
	}
	for k := range a.values {
		if math.Float64bits(a.values[k]) != math.Float64bits(b.values[k]) {
			return false
		}
	}
	return true
}

// TestNewCSRRowMajorShortcut holds NewCSR's row-major shortcut to its
// general path: strictly row-major triplets (explicit ±0 among them) and
// a shuffled copy build bit-identical CSRs, the row-major build
// allocates only the matrix itself, and inputs with duplicates or out of
// order build what the general path always built.
func TestNewCSRRowMajorShortcut(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(24)
		var rowMajor []COOEntry
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if r.Float64() < 0.3 {
					v := r.NormFloat64()
					switch r.Intn(8) {
					case 0:
						v = 0
					case 1:
						v = math.Copysign(0, -1)
					}
					rowMajor = append(rowMajor, COOEntry{Row: i, Col: j, Val: v})
				}
			}
		}
		shuffled := append([]COOEntry(nil), rowMajor...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		fast := MustCSR(n, rowMajor)
		if !identicalCSR(fast, MustCSR(n, shuffled)) || !identicalCSR(fast, sortAssembled(n, rowMajor)) {
			t.Fatalf("trial %d (n=%d, %d entries): row-major and shuffled builds differ", trial, n, len(rowMajor))
		}
		if len(rowMajor) > 0 {
			if allocs := testing.AllocsPerRun(3, func() { MustCSR(n, rowMajor) }); allocs > 4 {
				t.Fatalf("trial %d: row-major build made %v allocations, want the matrix's 4", trial, allocs)
			}
		}

		// Duplicates (a repeated entry, split values) and out-of-order
		// input go through the sort.
		messy := append([]COOEntry(nil), shuffled...)
		for k := r.Intn(4); k > 0 && len(rowMajor) > 0; k-- {
			e := rowMajor[r.Intn(len(rowMajor))]
			e.Val = r.NormFloat64()
			messy = append(messy, e)
		}
		if len(rowMajor) > 1 && r.Intn(2) == 0 {
			messy = append(append([]COOEntry(nil), rowMajor...), rowMajor[len(rowMajor)-1])
		}
		if got := MustCSR(n, messy); !identicalCSR(got, sortAssembled(n, messy)) {
			t.Fatalf("trial %d (n=%d): %d entries with duplicates or out of order build differently from the sort path", trial, n, len(messy))
		}
	}
	if !identicalCSR(MustCSR(3, nil), sortAssembled(3, nil)) {
		t.Fatal("an empty build differs from the sort path's")
	}
}
