package serve

import (
	"reflect"
	"strconv"
)

// The one-pass request decoder. encoding/json walks a by-value body
// twice through reflection — once to validate it, once to store it —
// and at ~209 KB a Poisson request spends most of its server time
// there. decodeOnePass reads the four request types that carry a
// matrix in one scan straight into their structs, but only bodies in a
// strict subset of JSON whose decoding it can match exactly:
//
//   - the top level is one object, followed by nothing but whitespace;
//   - every key is a known field name in its exact case, at most once
//     per object;
//   - strings hold no escapes, control characters or non-ASCII bytes;
//   - numbers follow the JSON grammar and are converted by
//     strconv.ParseInt / strconv.ParseFloat, as encoding/json converts
//     them, so any literal it would refuse (a fraction for an int, a
//     float past ±MaxFloat64) falls outside the subset;
//   - no value is null.
//
// json.Marshal of a request whose strings need no escaping (backend
// names, fingerprints, tenants) lands in the subset, so the structured
// and by-reference bodies serve.Client sends do; a system or
// MatrixMarket file, whose newlines json.Marshal escapes, does not.
// Anything outside — an error, a case-folded or repeated key, an escape,
// trailing bytes — takes encoding/json with DisallowUnknownFields, which
// therefore answers exactly as before. No allocation is sized by a
// declared n: slices grow by what the body actually holds.

// decodeOnePass decodes data into v when v is a zero *SolveRequest,
// *BatchSolveRequest, *OperatorRequest or *JobSubmitRequest and data
// lies in the subset above, and reports whether it did. It writes v
// only when it returns true.
func decodeOnePass(data []byte, v any) bool {
	d := &wireDecoder{buf: data}
	switch v := v.(type) {
	case *SolveRequest:
		return onePass(d, v, d.solve)
	case *BatchSolveRequest:
		return onePass(d, v, d.batch)
	case *OperatorRequest:
		return onePass(d, v, d.operator)
	case *JobSubmitRequest:
		return onePass(d, v, d.job)
	}
	return false
}

// onePass reads the whole body as one T and stores it in *v. It refuses
// a v that is not zero: encoding/json merges a body into whatever v
// already holds, which a fresh struct only matches when v starts empty.
func onePass[T any](d *wireDecoder, v *T, read func(*T) bool) bool {
	var r T
	if !reflect.ValueOf(v).Elem().IsZero() || !read(&r) || !d.end() {
		return false
	}
	*v = r
	return true
}

// wireDecoder scans one body; every method reports false as soon as the
// body leaves the subset.
type wireDecoder struct {
	buf []byte
	off int
}

func (d *wireDecoder) skipSpace() {
	for d.off < len(d.buf) {
		switch d.buf[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// next consumes c, after any whitespace, if it comes next.
func (d *wireDecoder) next(c byte) bool {
	d.skipSpace()
	if d.off < len(d.buf) && d.buf[d.off] == c {
		d.off++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (d *wireDecoder) end() bool {
	d.skipSpace()
	return d.off == len(d.buf)
}

// object reads one object. field decodes the value of key and returns
// that key's bit, a distinct power of two per known key, or 0 for an
// unknown key or a value outside the subset; a bit seen twice is a
// repeated key.
func (d *wireDecoder) object(field func(key []byte) uint) bool {
	if !d.next('{') {
		return false
	}
	if d.next('}') {
		return true
	}
	var seen uint
	for {
		key, ok := d.quoted()
		if !ok || !d.next(':') {
			return false
		}
		k := field(key)
		if k == 0 || seen&k != 0 {
			return false
		}
		seen |= k
		if !d.next(',') {
			return d.next('}')
		}
	}
}

// array reads one array, elem decoding each element.
func (d *wireDecoder) array(elem func() bool) bool {
	if !d.next('[') {
		return false
	}
	if d.next(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !d.next(',') {
			return d.next(']')
		}
	}
}

// quoted reads one string's bytes, a view into the body.
func (d *wireDecoder) quoted() ([]byte, bool) {
	if !d.next('"') {
		return nil, false
	}
	for i := d.off; i < len(d.buf); i++ {
		switch c := d.buf[i]; {
		case c == '"':
			s := d.buf[d.off:i]
			d.off = i + 1
			return s, true
		case c < 0x20 || c == '\\' || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

// literal reads one number in the JSON number grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (d *wireDecoder) literal() ([]byte, bool) {
	d.skipSpace()
	b, i := d.buf, d.off
	digits := func() bool {
		start := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case !digits():
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		i++
		if !digits() {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if !digits() {
			return nil, false
		}
	}
	lit := b[d.off:i]
	d.off = i
	return lit, true
}

// bit is what a field decoder hands object: b when the value decoded,
// 0 when it did not.
func bit(b uint, ok bool) uint {
	if ok {
		return b
	}
	return 0
}

func (d *wireDecoder) text(dst *string) bool {
	s, ok := d.quoted()
	*dst = string(s)
	return ok
}

func (d *wireDecoder) integer(dst *int) bool {
	lit, ok := d.literal()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(lit), 10, 64)
	*dst = int(n)
	return err == nil && int64(*dst) == n
}

func (d *wireDecoder) float(dst *float64) bool {
	lit, ok := d.literal()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	*dst = f
	return err == nil
}

// floats reads an array of numbers; `[]` decodes to an empty, non-nil
// slice, as encoding/json leaves it.
func (d *wireDecoder) floats(dst *[]float64) bool {
	out := []float64{}
	ok := d.array(func() bool {
		var f float64
		ok := d.float(&f)
		out = append(out, f)
		return ok
	})
	*dst = out
	return ok
}

func (d *wireDecoder) rows(dst *[][]float64) bool {
	out := [][]float64{}
	ok := d.array(func() bool {
		var row []float64
		ok := d.floats(&row)
		out = append(out, row)
		return ok
	})
	*dst = out
	return ok
}

func (d *wireDecoder) entries(dst *[]Entry) bool {
	out := []Entry{}
	ok := d.array(func() bool {
		out = append(out, Entry{})
		e := &out[len(out)-1]
		return d.object(func(key []byte) uint {
			switch string(key) {
			case "i":
				return bit(1<<0, d.integer(&e.Row))
			case "j":
				return bit(1<<1, d.integer(&e.Col))
			case "v":
				return bit(1<<2, d.float(&e.Val))
			}
			return 0
		})
	})
	*dst = out
	return ok
}

func (d *wireDecoder) solve(r *SolveRequest) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "backend":
			return bit(1<<0, d.text(&r.Backend))
		case "n":
			return bit(1<<1, d.integer(&r.N))
		case "A":
			return bit(1<<2, d.entries(&r.A))
		case "b":
			return bit(1<<3, d.floats(&r.B))
		case "system":
			return bit(1<<4, d.text(&r.System))
		case "matrix_market":
			return bit(1<<5, d.text(&r.MatrixMarket))
		case "fingerprint":
			return bit(1<<6, d.text(&r.Fingerprint))
		case "tol":
			return bit(1<<7, d.float(&r.Tol))
		case "timeout_ms":
			return bit(1<<8, d.integer(&r.TimeoutMs))
		case "workers":
			return bit(1<<9, d.integer(&r.Workers))
		}
		return 0
	})
}

func (d *wireDecoder) batch(r *BatchSolveRequest) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "backend":
			return bit(1<<0, d.text(&r.Backend))
		case "n":
			return bit(1<<1, d.integer(&r.N))
		case "A":
			return bit(1<<2, d.entries(&r.A))
		case "system":
			return bit(1<<3, d.text(&r.System))
		case "matrix_market":
			return bit(1<<4, d.text(&r.MatrixMarket))
		case "fingerprint":
			return bit(1<<5, d.text(&r.Fingerprint))
		case "rhs":
			return bit(1<<6, d.rows(&r.RHS))
		case "tol":
			return bit(1<<7, d.float(&r.Tol))
		case "timeout_ms":
			return bit(1<<8, d.integer(&r.TimeoutMs))
		}
		return 0
	})
}

func (d *wireDecoder) operator(r *OperatorRequest) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "n":
			return bit(1<<0, d.integer(&r.N))
		case "A":
			return bit(1<<1, d.entries(&r.A))
		case "system":
			return bit(1<<2, d.text(&r.System))
		case "matrix_market":
			return bit(1<<3, d.text(&r.MatrixMarket))
		}
		return 0
	})
}

func (d *wireDecoder) job(r *JobSubmitRequest) bool {
	return d.object(func(key []byte) uint {
		switch string(key) {
		case "tenant":
			return bit(1<<0, d.text(&r.Tenant))
		case "solve":
			r.Solve = new(SolveRequest)
			return bit(1<<1, d.solve(r.Solve))
		case "batch":
			r.Batch = new(BatchSolveRequest)
			return bit(1<<2, d.batch(r.Batch))
		}
		return 0
	})
}
