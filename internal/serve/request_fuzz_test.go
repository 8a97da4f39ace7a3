package serve

import (
	"bytes"
	"compress/gzip"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
)

// Body framings FuzzDecodeRequest sends: the bytes as they are, the
// bytes gzip-compressed with Content-Encoding: gzip, and the bytes
// labelled gzip without compressing them (malformed streams).
const (
	framePlain = iota
	frameGzip
	frameRawGzip
	frames
)

// FuzzDecodeRequest sends arbitrary bodies, plain and gzip, through
// DecodeRequest into a SolveRequest under an arbitrary limit. It must not
// panic, must refuse any wire body longer than the limit, must refuse any
// body that inflates past the limit, and reports the wire size of every
// body it accepts.
func FuzzDecodeRequest(f *testing.F) {
	eq2 := []byte(`{"backend":"analog-refined","n":2,"A":[{"i":0,"j":0,"v":0.8},{"i":0,"j":1,"v":0.2},{"i":1,"j":0,"v":0.2},{"i":1,"j":1,"v":0.6}],"b":[0.5,0.3]}`)
	for _, seed := range []struct {
		body  []byte
		frame uint8
		limit uint16
	}{
		{eq2, framePlain, 4096},
		{eq2, frameGzip, 4096},
		{eq2, framePlain, 64}, // wire body over the limit
		{eq2, frameGzip, 120}, // compresses under the limit, inflates past it
		{bytes.Repeat([]byte(" "), 4000), frameGzip, 200},
		// Bodies that decode, compress under the limit and inflate past it.
		{append(eq2, bytes.Repeat([]byte(" "), 4000)...), frameGzip, 200},
		{[]byte(`{"b":[` + strings.Repeat("0,", 2000) + `0]}`), frameGzip, 200},
		{[]byte(`{"fingerprint":"1f","b":[1]}`), frameGzip, 4096}, // by reference
		{[]byte(`{"nope":1}`), framePlain, 4096},                  // unknown field
		{[]byte("\x1f\x8b\x08\x00garbage"), frameRawGzip, 4096},   // torn gzip header
		{[]byte{}, frameRawGzip, 1},
	} {
		f.Add(seed.body, seed.frame, seed.limit)
	}
	f.Fuzz(func(t *testing.T, body []byte, frame uint8, limit uint16) {
		lim := int64(limit) + 1
		wire, inflated := body, body
		switch frame % frames {
		case frameGzip:
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			zw.Write(body)
			zw.Close()
			wire = buf.Bytes()
		case frameRawGzip:
			// What the body inflates to, read one byte past the limit.
			inflated = nil
			if zr, err := gzip.NewReader(bytes.NewReader(body)); err == nil {
				inflated, _ = io.ReadAll(io.LimitReader(zr, lim+1))
			}
		}
		r := httptest.NewRequest("POST", "/v1/solve", bytes.NewReader(wire))
		if frame%frames != framePlain {
			r.Header.Set("Content-Encoding", "gzip")
		}
		var req SolveRequest
		n, err := DecodeRequest(httptest.NewRecorder(), r, lim, &req)
		if err != nil {
			return
		}
		if int64(len(wire)) > lim {
			t.Fatalf("accepted a %d-byte wire body over the %d-byte limit", len(wire), lim)
		}
		if int64(len(inflated)) > lim {
			t.Fatalf("accepted a body that inflates to %d+ bytes past the %d-byte limit", len(inflated), lim)
		}
		if n != int64(len(wire)) {
			t.Fatalf("reported %d wire bytes, sent %d", n, len(wire))
		}
	})
}

// FuzzParseFingerprint holds the wire form of a fingerprint to a round
// trip: ParseFingerprint never panics, reads back every value
// FormatFingerprint writes, and every string it accepts names a value
// whose canonical form parses back to it.
func FuzzParseFingerprint(f *testing.F) {
	for _, seed := range []struct {
		s string
		x uint64
	}{
		{"0", 0},
		{"ffffffffffffffff", ^uint64(0)},
		{"DEADbeef", 0xdeadbeef},
		{"10000000000000000", 1 << 63}, // one digit past 64 bits
		{"0x1f", 0x1f},
		{"-1", 1},
		{"", 42},
		{" 1f", 0x1f},
	} {
		f.Add(seed.s, seed.x)
	}
	f.Fuzz(func(t *testing.T, s string, x uint64) {
		if got, err := ParseFingerprint(FormatFingerprint(x)); err != nil || got != x {
			t.Fatalf("ParseFingerprint(FormatFingerprint(%#x)) = %#x, %v", x, got, err)
		}
		fp, err := ParseFingerprint(s)
		if err != nil {
			return
		}
		if back, err := ParseFingerprint(FormatFingerprint(fp)); err != nil || back != fp {
			t.Fatalf("%q parsed to %#x, whose canonical form reads back %#x, %v", s, fp, back, err)
		}
	})
}
