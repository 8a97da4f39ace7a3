package serve

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// Scratch recycling for the serve hot path. Every request and response
// body used to allocate its own encoder buffers (BENCH_7 measured ~537k
// allocs/op for a federated zipf run); the pools below recycle the two
// dominant sources — JSON body buffers on both directions of the wire,
// and the SolveResponse struct on paths whose lifecycle ends inside this
// package. Callers that hand responses across package boundaries (the
// federation router) simply never release them; a pool miss is one
// allocation, exactly the old behavior.

// jsonBufPool recycles body scratch buffers for writeJSON, request
// decoding, and client-side marshaling.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// maxPooledBuf caps what goes back in the pool so one giant batch body
// cannot pin megabytes of scratch forever.
const maxPooledBuf = 1 << 20

func getBuf() *bytes.Buffer {
	return jsonBufPool.Get().(*bytes.Buffer)
}

func putBuf(b *bytes.Buffer) {
	if b == nil || b.Cap() > maxPooledBuf {
		return
	}
	b.Reset()
	jsonBufPool.Put(b)
}

// writeJSON encodes v through a pooled buffer and writes it as one
// Content-Length-framed body, returning the body's byte count (the
// response-size histograms' input).
func writeJSON(w http.ResponseWriter, status int, v any) int {
	buf := getBuf()
	defer putBuf(buf)
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return 0
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes())
	return buf.Len()
}

// DecodeRequest strictly unmarshals one JSON request body into v,
// transparently inflating Content-Encoding: gzip uploads (ReadRequest,
// then Body.Decode). The returned count is the wire (possibly
// compressed) byte size, which is what the request-size histograms
// observe.
func DecodeRequest(w http.ResponseWriter, r *http.Request, limit int64, v any) (int64, error) {
	body, err := ReadRequest(w, r, limit)
	defer body.Release()
	if err != nil {
		return body.Wire, err
	}
	return body.Wire, body.Decode(v)
}

// Body is one request body as ReadRequest leaves it. Exported so the
// federation router decodes exactly like the server it fronts and
// forwards the same bytes.
type Body struct {
	// JSON is the plain (inflated) body, in pooled scratch: valid until
	// Release.
	JSON []byte
	// Wire is the body's size on the wire, compressed if it came gzipped.
	Wire int64

	raw, inflated *bytes.Buffer
}

// ReadRequest reads one request body into pooled scratch. limit bounds
// both the wire bytes (via MaxBytesReader, so oversized bodies close the
// connection properly) and the inflated size — a compressed body may not
// expand past what an uncompressed one could carry. On error the Body
// still reports the wire bytes read (zero when the read itself failed);
// release it either way.
func ReadRequest(w http.ResponseWriter, r *http.Request, limit int64) (Body, error) {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	b := Body{raw: getBuf()}
	if _, err := b.raw.ReadFrom(r.Body); err != nil {
		return b, err
	}
	b.Wire = int64(b.raw.Len())
	b.JSON = b.raw.Bytes()
	if strings.EqualFold(r.Header.Get("Content-Encoding"), "gzip") {
		zr, err := gzip.NewReader(bytes.NewReader(b.JSON))
		if err != nil {
			return b, fmt.Errorf("serve: gzip request body: %w", err)
		}
		b.inflated = getBuf()
		// Read one byte past the limit so "exactly at" and "over" are
		// distinguishable without trusting the gzip size trailer.
		if _, err := b.inflated.ReadFrom(&limitedReader{r: zr, n: limit + 1}); err != nil {
			return b, fmt.Errorf("serve: inflating request body: %w", err)
		}
		if int64(b.inflated.Len()) > limit {
			return b, fmt.Errorf("serve: gzip request body inflates past the %d byte limit", limit)
		}
		b.JSON = b.inflated.Bytes()
	}
	return b, nil
}

// Decode strictly unmarshals the body into v: in one pass where
// decodeOnePass accepts it, otherwise through encoding/json with
// DisallowUnknownFields, which gives the same struct wherever both
// accept and the only answer for every other body.
func (b *Body) Decode(v any) error {
	if decodeOnePass(b.JSON, v) {
		return nil
	}
	dec := json.NewDecoder(bytes.NewReader(b.JSON))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// Release returns the body's scratch to the pool; JSON is dead after it.
func (b *Body) Release() {
	putBuf(b.raw)
	putBuf(b.inflated)
	*b = Body{}
}

// limitedReader is io.LimitedReader without the io import dance: reads at
// most n bytes, then reports EOF.
type limitedReader struct {
	r interface{ Read([]byte) (int, error) }
	n int64
}

func (l *limitedReader) Read(p []byte) (int, error) {
	if l.n <= 0 {
		return 0, fmt.Errorf("serve: body limit reached")
	}
	if int64(len(p)) > l.n {
		p = p[:l.n]
	}
	n, err := l.r.Read(p)
	l.n -= int64(n)
	return n, err
}

// solveRespPool recycles SolveResponse structs for the synchronous HTTP
// path and the async executor — the two paths that can prove the
// response is dead after encoding.
var solveRespPool = sync.Pool{New: func() any { return new(SolveResponse) }}

// newSolveResponse returns a zeroed response from the pool. Nested
// stat structs are dropped, not reused: they are small, optional, and
// keeping them would leak one request's stats into another's answer on
// any missed field.
func newSolveResponse() *SolveResponse {
	r := solveRespPool.Get().(*SolveResponse)
	*r = SolveResponse{}
	return r
}

// releaseSolveResponse returns a response whose bytes are already on the
// wire (or in a journal record). Callers must not touch r afterwards.
func releaseSolveResponse(r *SolveResponse) {
	if r != nil {
		solveRespPool.Put(r)
	}
}
