package la

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Matrix Market exchange format support (the de-facto standard for sparse
// test matrices), so cmd/alasolve can consume systems from the wild:
// coordinate format, real field, general or symmetric symmetry.

// ReadMatrixMarket parses a sparse square matrix in Matrix Market
// coordinate format. Symmetric files are expanded to full storage.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024) // lines up to 1 MiB; the buffer grows with them
	if !sc.Scan() {
		return nil, fmt.Errorf("la: empty MatrixMarket stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" {
		return nil, fmt.Errorf("la: not a MatrixMarket file (header %q)", sc.Text())
	}
	if header[1] != "matrix" || header[2] != "coordinate" {
		return nil, fmt.Errorf("la: only coordinate matrices supported, got %q %q", header[1], header[2])
	}
	switch header[3] {
	case "real", "integer":
	default:
		return nil, fmt.Errorf("la: unsupported field %q (want real)", header[3])
	}
	symmetric := false
	switch header[4] {
	case "general":
	case "symmetric":
		symmetric = true
	default:
		return nil, fmt.Errorf("la: unsupported symmetry %q", header[4])
	}
	// Skip comments; read size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("la: bad size line %q: %w", line, err)
		}
		break
	}
	if rows <= 0 || rows != cols {
		return nil, fmt.Errorf("la: need a square matrix, got %dx%d", rows, cols)
	}
	if nnz < 0 {
		return nil, fmt.Errorf("la: negative entry count %d", nnz)
	}
	// Nothing is sized by the header: the entries grow with the body, and
	// NewCSRChecked holds the order to them before allocating by it.
	var entries []COOEntry
	count := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("la: bad entry line %q", line)
		}
		i, err1 := strconv.Atoi(fields[0])
		j, err2 := strconv.Atoi(fields[1])
		v, err3 := strconv.ParseFloat(fields[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("la: bad entry line %q", line)
		}
		// Matrix Market is 1-based.
		entries = append(entries, COOEntry{Row: i - 1, Col: j - 1, Val: v})
		if symmetric && i != j {
			entries = append(entries, COOEntry{Row: j - 1, Col: i - 1, Val: v})
		}
		count++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("la: reading MatrixMarket: %w", err)
	}
	if count != nnz {
		return nil, fmt.Errorf("la: header promised %d entries, found %d", nnz, count)
	}
	return NewCSRChecked(rows, entries)
}

// WriteMatrixMarket emits a CSR matrix in coordinate/real/general format.
func WriteMatrixMarket(w io.Writer, a *CSR) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "%%MatrixMarket matrix coordinate real general"); err != nil {
		return err
	}
	fmt.Fprintf(bw, "%d %d %d\n", a.Dim(), a.Dim(), a.NNZ())
	for i := 0; i < a.Dim(); i++ {
		a.VisitRow(i, func(j int, v float64) {
			fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, v)
		})
	}
	return bw.Flush()
}
