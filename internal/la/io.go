package la

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadSystem parses a linear system A·u = b from a simple text format used
// by cmd/alasolve and the example programs:
//
//	# comment lines start with '#'
//	n <order>
//	a <row> <col> <value>      (repeated; duplicates sum)
//	b <row> <value>            (repeated; unset entries are zero)
//
// Indices are zero-based. The format is a minimal coordinate ("triplet")
// exchange format in the spirit of Matrix Market.
func ReadSystem(r io.Reader) (*CSR, Vector, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1024*1024) // lines up to 1 MiB; the buffer grows with them
	n := -1
	var entries []COOEntry
	var bEntries []COOEntry
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "n":
			if len(fields) != 2 {
				return nil, nil, fmt.Errorf("la: line %d: want 'n <order>'", line)
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || v <= 0 {
				return nil, nil, fmt.Errorf("la: line %d: bad order %q", line, fields[1])
			}
			n = v
		case "a":
			if len(fields) != 4 {
				return nil, nil, fmt.Errorf("la: line %d: want 'a <row> <col> <value>'", line)
			}
			i, err1 := strconv.Atoi(fields[1])
			j, err2 := strconv.Atoi(fields[2])
			v, err3 := strconv.ParseFloat(fields[3], 64)
			if err1 != nil || err2 != nil || err3 != nil {
				return nil, nil, fmt.Errorf("la: line %d: bad matrix entry", line)
			}
			entries = append(entries, COOEntry{i, j, v})
		case "b":
			if len(fields) != 3 {
				return nil, nil, fmt.Errorf("la: line %d: want 'b <row> <value>'", line)
			}
			i, err1 := strconv.Atoi(fields[1])
			v, err2 := strconv.ParseFloat(fields[2], 64)
			if err1 != nil || err2 != nil {
				return nil, nil, fmt.Errorf("la: line %d: bad rhs entry", line)
			}
			bEntries = append(bEntries, COOEntry{Row: i, Val: v})
		default:
			return nil, nil, fmt.Errorf("la: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("la: reading system: %w", err)
	}
	if n < 0 {
		return nil, nil, fmt.Errorf("la: system file missing 'n' record")
	}
	m, err := NewCSRChecked(n, entries)
	if err != nil {
		return nil, nil, err
	}
	b := NewVector(n)
	for _, e := range bEntries {
		if e.Row < 0 || e.Row >= n {
			return nil, nil, fmt.Errorf("la: rhs index %d out of range for n=%d", e.Row, n)
		}
		b[e.Row] += e.Val
	}
	return m, b, nil
}

// WriteSystem emits a system in the format read by ReadSystem.
func WriteSystem(w io.Writer, a *CSR, b Vector) error {
	if a.Dim() != len(b) {
		return fmt.Errorf("la: WriteSystem: A order %d != b length %d: %w", a.Dim(), len(b), ErrDimension)
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "n %d\n", a.Dim())
	for i := 0; i < a.Dim(); i++ {
		a.VisitRow(i, func(j int, v float64) {
			fmt.Fprintf(bw, "a %d %d %.17g\n", i, j, v)
		})
	}
	for i, v := range b {
		if v != 0 {
			fmt.Fprintf(bw, "b %d %.17g\n", i, v)
		}
	}
	return bw.Flush()
}
