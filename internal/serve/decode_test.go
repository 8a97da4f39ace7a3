package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"analogacc/internal/la"
)

// FuzzDecodeOnePass is the one-pass decoder's differential: arbitrary
// bytes go into each of the four matrix-carrying request types, and
// whenever decodeOnePass accepts a body, encoding/json with
// DisallowUnknownFields must accept it too and produce a
// reflect.DeepEqual struct (nil and empty slices are told apart) that
// re-encodes to the same bytes (so -0 and 0 are told apart). Body.Decode
// must answer every body, accepted or not, exactly as encoding/json does:
// the same error text and the same struct.
func FuzzDecodeOnePass(f *testing.F) {
	for _, seed := range []string{
		`{"backend":"cg","n":2,"A":[{"i":0,"j":0,"v":0.8},{"i":0,"j":1,"v":0.2},{"i":1,"j":0,"v":0.2},{"i":1,"j":1,"v":0.6}],"b":[0.5,0.3],"tol":1e-8}`,
		`{"n":1,"A":[{"i":0,"j":0,"v":-0}],"b":[-0,0,-0.0]}`,
		`{"tol":1E+3,"b":[1e-400,2.5e-308,4.9e-324,1.7976931348623157e308]}`,
		`{"b":[1e400]}`,                      // past MaxFloat64
		`{"n":9223372036854775808}`,          // past MaxInt64
		`{"n":1.0}`, `{"n":1e2}`, `{"n":-0}`, // an int field takes no fraction or exponent
		`{"A":[],"b":[]}`, `{"rhs":[[],[1,2]]}`, `{"A":[{}]}`,
		`{"n":1,"n":2}`, `{"A":[{"i":0,"i":1}]}`, // repeated keys
		`{"N":2}`, `{"Backend":"cg"}`, `{"A":[{"I":0}]}`, // case-folded keys
		`{"b":null}`, `{"solve":null}`, `null`, `{"A":[null]}`,
		`{"backend":"cg"}`, `{"backend":"c\"g"}`, `{"system":"n 1\na 0 0 1\nb 0 1\n"}`, // escapes
		`{"backend":"cé"}`, "{\"backend\":\"c\xffg\"}", // non-ASCII
		"\xef\xbb\xbf{\"n\":1}",                  // a byte-order mark
		`{"n":1} `, `{"n":1}x`, `{"n":1}{"n":2}`, // trailing bytes
		`{"tenant":"t","solve":{"fingerprint":"1f","b":[1]}}`,
		`{"batch":{"n":1,"A":[{"i":0,"j":0,"v":1}],"rhs":[[1],[2]]}}`,
		`{"solve":{"n":1},"batch":{"n":1}}`,
		`{"nope":1}`, `{"n":01}`, `{"n":-}`, `{"tol":.5}`, `{"tol":1.}`, `{"tol":1e}`, `{}`, ``, ` `, `{`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkOnePass[SolveRequest](t, body)
		checkOnePass[BatchSolveRequest](t, body)
		checkOnePass[OperatorRequest](t, body)
		checkOnePass[JobSubmitRequest](t, body)
	})
}

// strictDecode is the reference: encoding/json as DecodeRequest always
// ran it.
func strictDecode(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func checkOnePass[T any](t *testing.T, body []byte) {
	t.Helper()
	var ref T
	refErr := strictDecode(body, &ref)

	var fast T
	if decodeOnePass(body, &fast) {
		if refErr != nil {
			t.Fatalf("one pass accepted %q as %T; encoding/json refuses it: %v", body, fast, refErr)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("%q as %T: one pass %+v, encoding/json %+v", body, fast, fast, ref)
		}
		fastJSON, _ := json.Marshal(fast)
		refJSON, _ := json.Marshal(ref)
		if !bytes.Equal(fastJSON, refJSON) {
			t.Fatalf("%q as %T: one pass re-encodes to %s, encoding/json to %s", body, fast, fastJSON, refJSON)
		}
	} else if !reflect.ValueOf(fast).IsZero() {
		t.Fatalf("one pass refused %q as %T but wrote %+v", body, fast, fast)
	}

	var got T
	b := Body{JSON: body}
	err := b.Decode(&got)
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("%q as %T: Body.Decode error %v, encoding/json %v", body, got, err, refErr)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Fatalf("%q as %T: Body.Decode %+v, encoding/json %+v", body, got, got, ref)
	}
}

// TestOnePassAcceptsMarshalledRequests is the converse, which keeps the
// gain: every request json.Marshal writes without escapes — here with
// every field set, strings json.Marshal need not escape and random finite
// floats — takes the one-pass path, bare and with the newline
// serve.Client's encoder appends, and decodes to what encoding/json
// reads back.
func TestOnePassAcceptsMarshalledRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		acceptsMarshalled[SolveRequest](t, rng)
		acceptsMarshalled[BatchSolveRequest](t, rng)
		acceptsMarshalled[OperatorRequest](t, rng)
		acceptsMarshalled[JobSubmitRequest](t, rng)
	}
}

func acceptsMarshalled[T any](t *testing.T, rng *rand.Rand) {
	t.Helper()
	var req T
	fillRandom(t, rng, reflect.ValueOf(&req).Elem())
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, body := range [][]byte{raw, append(raw, '\n')} {
		var fast, ref T
		if !decodeOnePass(body, &fast) {
			t.Fatalf("one pass refused json.Marshal's %T: %s", req, body)
		}
		if err := json.Unmarshal(body, &ref); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fast, ref) {
			t.Fatalf("%s as %T: one pass %+v, encoding/json %+v", body, req, fast, ref)
		}
	}
}

// fillRandom sets every field reachable from v: pointers allocated,
// slices of 0–4 elements, ints across the whole range, finite floats
// from every binade (and ±0), and strings json.Marshal writes without
// escapes.
func fillRandom(t *testing.T, rng *rand.Rand, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillRandom(t, rng, v.Field(i))
		}
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillRandom(t, rng, v.Elem())
	case reflect.Slice:
		n := rng.Intn(5)
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fillRandom(t, rng, v.Index(i))
		}
	case reflect.String:
		const alphabet = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-.:/+=#"
		s := make([]byte, 1+rng.Intn(12))
		for i := range s {
			s[i] = alphabet[rng.Intn(len(alphabet))]
		}
		v.SetString(string(s))
	case reflect.Int:
		switch rng.Intn(3) {
		case 0:
			v.SetInt(int64(rng.Intn(2048)))
		case 1:
			v.SetInt(-rng.Int63())
		default:
			v.SetInt(int64(rng.Uint64()))
		}
	case reflect.Float64:
		var x float64
		switch rng.Intn(4) {
		case 0:
			x = rng.NormFloat64()
		case 1:
			x = math.Copysign(0, float64(rng.Intn(2))-0.5)
		default:
			for x = math.NaN(); math.IsNaN(x) || math.IsInf(x, 0); {
				x = math.Float64frombits(rng.Uint64())
			}
		}
		v.SetFloat(x)
	default:
		t.Fatalf("fillRandom: no generator for %s; teach it and decodeOnePass the new field", v.Type())
	}
}

// BenchmarkDecodePoisson decodes digital-wire's by-value body (cg on the
// n = 1024 2-D Poisson operator, ~209 KB) through Body.Decode, which
// takes the one-pass path, and through encoding/json alone.
func BenchmarkDecodePoisson(b *testing.B) {
	g, err := la.NewGrid(2, 32)
	if err != nil {
		b.Fatal(err)
	}
	a := la.PoissonMatrix(g)
	body, err := json.Marshal(SolveRequest{Backend: "cg", N: a.Dim(), A: MatrixEntries(a), B: la.Constant(a.Dim(), 1), Tol: 1e-8})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("one-pass", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req SolveRequest
			if err := (&Body{JSON: body}).Decode(&req); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req SolveRequest
			if err := strictDecode(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
