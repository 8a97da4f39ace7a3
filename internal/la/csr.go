package la

import (
	"fmt"
	"math"
	"sort"
)

// CSR is a compressed-sparse-row square matrix. It is the storage format
// used for the sparse systems of linear equations the paper targets
// (Section IV): discretized elliptic PDE operators where each row holds only
// the 3 (1-D), 5 (2-D), or 7 (3-D) stencil coefficients.
type CSR struct {
	n      int
	rowPtr []int     // len n+1
	colIdx []int     // len nnz, ascending within each row
	values []float64 // len nnz
}

// COOEntry is a coordinate-format triplet used to assemble CSR matrices.
// Its JSON form, {"i":row,"j":col,"v":val}, is the service's wire form of
// a matrix entry (serve.Entry).
type COOEntry struct {
	Row int     `json:"i"`
	Col int     `json:"j"`
	Val float64 `json:"v"`
}

// NewCSR assembles an n×n CSR matrix from coordinate entries. Duplicate
// (row, col) entries are summed, as in standard finite-element assembly.
// Explicit zeros that result from cancellation are kept structurally.
// Entries already in strictly row-major order (rows ascending, columns
// strictly ascending within a row, as VisitRow emits them) hold no
// duplicates, so they are stored as given, without the sorted copy.
func NewCSR(n int, entries []COOEntry) (*CSR, error) {
	rowMajor := true
	for k, e := range entries {
		if e.Row < 0 || e.Row >= n || e.Col < 0 || e.Col >= n {
			return nil, fmt.Errorf("la: CSR entry (%d,%d) out of range for n=%d: %w", e.Row, e.Col, n, ErrDimension)
		}
		if k > 0 {
			p := entries[k-1]
			rowMajor = rowMajor && (p.Row < e.Row || p.Row == e.Row && p.Col < e.Col)
		}
	}
	m := &CSR{n: n, rowPtr: make([]int, n+1)}
	if rowMajor && len(entries) > 0 {
		m.colIdx, m.values = make([]int, len(entries)), make([]float64, len(entries))
		for k, e := range entries {
			m.colIdx[k], m.values[k] = e.Col, e.Val
			m.rowPtr[e.Row+1]++
		}
	} else {
		sorted := make([]COOEntry, len(entries))
		copy(sorted, entries)
		sort.Slice(sorted, func(i, j int) bool {
			if sorted[i].Row != sorted[j].Row {
				return sorted[i].Row < sorted[j].Row
			}
			return sorted[i].Col < sorted[j].Col
		})
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
	}
	for i := 0; i < n; i++ {
		m.rowPtr[i+1] += m.rowPtr[i]
	}
	return m, nil
}

// NewCSRChecked is NewCSR for an order declared by untrusted input (a file
// header, a request's n). It refuses an order larger than the entries
// given before anything is allocated by it, so a few bytes of header
// cannot ask for gigabytes, and again after duplicates sum, so every
// matrix it accepts writes out with at least as many entries as its
// order. Either way some row is empty and the matrix singular.
func NewCSRChecked(n int, entries []COOEntry) (*CSR, error) {
	if n > len(entries) {
		return nil, fmt.Errorf("la: order %d exceeds the %d matrix entries given (a row would be empty): %w", n, len(entries), ErrDimension)
	}
	m, err := NewCSR(n, entries)
	if err != nil {
		return nil, err
	}
	if n > m.NNZ() {
		return nil, fmt.Errorf("la: order %d exceeds the %d distinct matrix entries given (a row is empty): %w", n, m.NNZ(), ErrDimension)
	}
	return m, nil
}

// MustCSR is NewCSR that panics on error; for use with known-good inputs
// such as generated stencil matrices.
func MustCSR(n int, entries []COOEntry) *CSR {
	m, err := NewCSR(n, entries)
	if err != nil {
		panic(err)
	}
	return m
}

// CSRFromDense converts a square dense matrix, dropping exact zeros.
func CSRFromDense(d *Dense) *CSR {
	if d.Rows() != d.Cols() {
		panic("la: CSRFromDense requires a square matrix")
	}
	var entries []COOEntry
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if v := d.At(i, j); v != 0 {
				entries = append(entries, COOEntry{i, j, v})
			}
		}
	}
	return MustCSR(d.Rows(), entries)
}

// Dim returns the matrix order n.
func (m *CSR) Dim() int { return m.n }

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.values) }

// At returns element (i, j), zero if not stored. O(log nnz(row)).
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.rowPtr[i], m.rowPtr[i+1]
	k := lo + sort.SearchInts(m.colIdx[lo:hi], j)
	if k < hi && m.colIdx[k] == j {
		return m.values[k]
	}
	return 0
}

// Diag returns a copy of the diagonal.
func (m *CSR) Diag() Vector {
	d := NewVector(m.n)
	for i := 0; i < m.n; i++ {
		d[i] = m.At(i, i)
	}
	return d
}

// Apply computes dst = m·x.
func (m *CSR) Apply(dst, x Vector) {
	if len(x) != m.n || len(dst) != m.n {
		panic(fmt.Sprintf("la: CSR.Apply n=%d with x=%d dst=%d", m.n, len(x), len(dst)))
	}
	for i := 0; i < m.n; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			s += m.values[k] * x[m.colIdx[k]]
		}
		dst[i] = s
	}
}

// VisitRow enumerates stored entries of row i in ascending column order.
func (m *CSR) VisitRow(i int, fn func(j int, a float64)) {
	for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
		fn(m.colIdx[k], m.values[k])
	}
}

// RowNNZ returns the number of stored entries in row i.
func (m *CSR) RowNNZ(i int) int { return m.rowPtr[i+1] - m.rowPtr[i] }

// MaxRowNNZ returns the largest per-row entry count; the accelerator
// compiler uses it to size multiplier requirements.
func (m *CSR) MaxRowNNZ() int {
	best := 0
	for i := 0; i < m.n; i++ {
		if c := m.RowNNZ(i); c > best {
			best = c
		}
	}
	return best
}

// Scale multiplies every stored value by c in place.
func (m *CSR) Scale(c float64) {
	for i := range m.values {
		m.values[i] *= c
	}
}

// Scaled returns a new CSR equal to c·m.
func (m *CSR) Scaled(c float64) *CSR {
	out := m.Clone()
	out.Scale(c)
	return out
}

// Clone returns an independent copy.
func (m *CSR) Clone() *CSR {
	out := &CSR{
		n:      m.n,
		rowPtr: append([]int(nil), m.rowPtr...),
		colIdx: append([]int(nil), m.colIdx...),
		values: append([]float64(nil), m.values...),
	}
	return out
}

// Dense converts to a dense matrix (for tests and tiny systems).
func (m *CSR) Dense() *Dense {
	d := NewDense(m.n, m.n)
	for i := 0; i < m.n; i++ {
		m.VisitRow(i, func(j int, a float64) { d.Set(i, j, a) })
	}
	return d
}

// MaxAbs returns the largest |value| stored.
func (m *CSR) MaxAbs() float64 {
	var best float64
	for _, v := range m.values {
		if a := math.Abs(v); a > best {
			best = a
		}
	}
	return best
}

// IsSymmetric reports whether the stored pattern and values are symmetric
// within tol.
func (m *CSR) IsSymmetric(tol float64) bool {
	for i := 0; i < m.n; i++ {
		ok := true
		m.VisitRow(i, func(j int, a float64) {
			if math.Abs(a-m.At(j, i)) > tol {
				ok = false
			}
		})
		if !ok {
			return false
		}
	}
	return true
}

// GershgorinBounds returns eigenvalue bounds from Gershgorin discs.
func (m *CSR) GershgorinBounds() (lo, hi float64) {
	if m.n == 0 {
		return 0, 0
	}
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < m.n; i++ {
		var r, d float64
		m.VisitRow(i, func(j int, a float64) {
			if j == i {
				d = a
			} else {
				r += math.Abs(a)
			}
		})
		if d-r < lo {
			lo = d - r
		}
		if d+r > hi {
			hi = d + r
		}
	}
	return lo, hi
}

// Submatrix extracts the principal submatrix with the given (sorted,
// distinct) index set, used by the domain-decomposition layer to carve
// block subproblems out of a large system.
func (m *CSR) Submatrix(idx []int) *CSR {
	pos := make(map[int]int, len(idx))
	for p, g := range idx {
		pos[g] = p
	}
	var entries []COOEntry
	for p, g := range idx {
		m.VisitRow(g, func(j int, a float64) {
			if q, ok := pos[j]; ok {
				entries = append(entries, COOEntry{p, q, a})
			}
		})
	}
	return MustCSR(len(idx), entries)
}

// OffBlockApply accumulates into dst the contribution of columns OUTSIDE
// the index set to the rows INSIDE it: dst[p] += Σ_{j∉idx} a(g_p, j)·x[j].
// The domain-decomposition outer iteration uses this to form block
// right-hand sides b_s − A_off·x.
func (m *CSR) OffBlockApply(dst Vector, idx []int, x Vector) {
	if len(dst) != len(idx) || len(x) != m.n {
		panic("la: OffBlockApply dimension mismatch")
	}
	inside := make(map[int]bool, len(idx))
	for _, g := range idx {
		inside[g] = true
	}
	for p, g := range idx {
		var s float64
		m.VisitRow(g, func(j int, a float64) {
			if !inside[j] {
				s += a * x[j]
			}
		})
		dst[p] += s
	}
}

// OffRangeApply is OffBlockApply specialised to the contiguous index block
// [lo, hi): dst[p] += Σ_{j<lo or j≥hi} a(lo+p, j)·x[j]. It walks the CSR
// arrays directly and allocates nothing, which keeps the decomposition
// sweep loop — where block right-hand sides are rebuilt every sweep —
// allocation-free.
func (m *CSR) OffRangeApply(dst Vector, lo, hi int, x Vector) {
	if lo < 0 || hi > m.n || hi < lo || len(dst) != hi-lo || len(x) != m.n {
		panic("la: OffRangeApply dimension mismatch")
	}
	for i := lo; i < hi; i++ {
		var s float64
		for k := m.rowPtr[i]; k < m.rowPtr[i+1]; k++ {
			if j := m.colIdx[k]; j < lo || j >= hi {
				s += m.values[k] * x[j]
			}
		}
		dst[i-lo] += s
	}
}
