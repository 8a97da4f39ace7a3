package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"analogacc/internal/la"
)

// TestOperatorRegisterThenSolveByRef is the core differential: a solve
// that references a registered operator by fingerprint must answer
// bit-identically to the same solve carrying the matrix by value.
func TestOperatorRegisterThenSolveByRef(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()
	a, b := eq2()

	info, err := client.RegisterOperator(ctx, OperatorRequest{N: 2, A: MatrixEntries(a)})
	if err != nil {
		t.Fatal(err)
	}
	if info.N != 2 || info.NNZ != 4 || info.Existed {
		t.Fatalf("registration answered %+v", info)
	}
	if info.Fingerprint != FormatFingerprint(la.Fingerprint(a)) {
		t.Fatalf("fingerprint %s does not match la.Fingerprint", info.Fingerprint)
	}
	again, err := client.RegisterOperator(ctx, OperatorRequest{N: 2, A: MatrixEntries(a)})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Existed || again.Fingerprint != info.Fingerprint {
		t.Fatalf("re-registration answered %+v, want existed=true", again)
	}

	byVal, err := client.Solve(ctx, eq2Request("analog-refined"))
	if err != nil {
		t.Fatal(err)
	}
	byRef, err := client.Solve(ctx, SolveRequest{
		Backend: "analog-refined", Fingerprint: info.Fingerprint, B: []float64(b), Tol: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(byRef.U) != len(byVal.U) {
		t.Fatalf("by-ref answered %d values, by-value %d", len(byRef.U), len(byVal.U))
	}
	for i := range byVal.U {
		if byRef.U[i] != byVal.U[i] {
			t.Fatalf("u[%d]: by-ref %v, by-value %v — must be bit-identical", i, byRef.U[i], byVal.U[i])
		}
	}

	// The operator shows up in the listing, and the metrics surface moved.
	list, err := client.ListOperators(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Operators) != 1 || list.Operators[0].Fingerprint != info.Fingerprint {
		t.Fatalf("listing answered %+v", list)
	}
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{
		"alad_registry_operators 1",
		"alad_registry_registrations_total 1",
		"alad_registry_hits_total 1",
		`alad_request_bytes_count{route="operators"} 2`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("metrics missing %q in:\n%s", needle, text)
		}
	}
}

// TestOperatorByRefValidation covers the error contract: unknown
// fingerprints answer the stable unknown_operator code (so clients can
// register-and-retry), malformed hex and mixed forms answer 400.
func TestOperatorByRefValidation(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()
	cases := []struct {
		req    SolveRequest
		code   string
		status int
	}{
		{SolveRequest{Backend: "cg", Fingerprint: "deadbeef", B: []float64{1, 1}}, CodeUnknownOperator, http.StatusNotFound},
		{SolveRequest{Backend: "cg", Fingerprint: "not-hex"}, CodeBadRequest, http.StatusBadRequest},
		{SolveRequest{Backend: "cg", Fingerprint: "deadbeef", N: 2, A: []Entry{{0, 0, 1}}}, CodeBadRequest, http.StatusBadRequest},
	}
	for _, c := range cases {
		_, err := client.Solve(ctx, c.req)
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != c.code || re.StatusCode != c.status {
			t.Errorf("req %+v: want %d/%s, got %v", c.req, c.status, c.code, err)
		}
	}
	if !IsUnknownOperator(func() error {
		_, err := client.Solve(ctx, SolveRequest{Backend: "cg", Fingerprint: "deadbeef"})
		return err
	}()) {
		t.Fatal("IsUnknownOperator does not recognize the unknown_operator code")
	}
	// A wrong-length right-hand side against a registered operator is 400.
	a, _ := eq2()
	info, err := client.RegisterOperator(ctx, OperatorRequest{N: 2, A: MatrixEntries(a)})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Solve(ctx, SolveRequest{Backend: "cg", Fingerprint: info.Fingerprint, B: []float64{1, 2, 3}})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeBadRequest {
		t.Fatalf("mismatched b answered %v, want bad_request", err)
	}
}

// TestOperatorOversizedUpload asserts the byte cap surfaces as 413
// too_large over HTTP.
func TestOperatorOversizedUpload(t *testing.T) {
	_, client, done := newTestServer(t, Config{RegistryMaxBytes: 64})
	defer done()
	a, _ := eq2()
	_, err := client.RegisterOperator(context.Background(), OperatorRequest{N: 2, A: MatrixEntries(a)})
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeTooLarge || re.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized upload answered %v, want 413 too_large", err)
	}
}

// TestOperatorBatchByRefDifferential runs the same batch by value and by
// reference and asserts every item is bit-identical — and that the batch
// response carries the wave provenance stamp consistently.
func TestOperatorBatchByRefDifferential(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()
	a, _ := eq2()
	rhs := [][]float64{{0.5, 0.3}, {1, 0}, {0, 1}, {0.25, 0.75}}

	byVal, err := client.SolveBatch(ctx, BatchSolveRequest{
		Backend: "analog-refined", N: 2, A: MatrixEntries(a), RHS: rhs, Tol: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := client.RegisterOperator(ctx, OperatorRequest{N: 2, A: MatrixEntries(a)})
	if err != nil {
		t.Fatal(err)
	}
	byRef, err := client.SolveBatch(ctx, BatchSolveRequest{
		Backend: "analog-refined", Fingerprint: info.Fingerprint, RHS: rhs, Tol: 1e-8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(byRef.Items) != len(byVal.Items) {
		t.Fatalf("by-ref answered %d items, by-value %d", len(byRef.Items), len(byVal.Items))
	}
	for k := range byVal.Items {
		vu, ru := byVal.Items[k].U, byRef.Items[k].U
		if len(vu) != len(ru) {
			t.Fatalf("item %d length mismatch", k)
		}
		for i := range vu {
			if vu[i] != ru[i] {
				t.Fatalf("item %d u[%d]: by-ref %v, by-value %v", k, i, ru[i], vu[i])
			}
		}
	}
	// Wave provenance: the stamp must agree with the per-item lane stats.
	for _, resp := range []*BatchSolveResponse{byVal, byRef} {
		maxLanes := 0
		for _, it := range resp.Items {
			if it.Analog != nil && it.Analog.Lanes > maxLanes {
				maxLanes = it.Analog.Lanes
			}
		}
		if resp.WaveLanes != maxLanes {
			t.Fatalf("wave_lanes=%d, max item lanes=%d", resp.WaveLanes, maxLanes)
		}
		if resp.Coalesced != (maxLanes >= 2) {
			t.Fatalf("coalesced=%t with %d lanes", resp.Coalesced, maxLanes)
		}
	}
}

// TestOperatorDecomposedByRef registers an operator bigger than the
// pool's largest chip (n=48 vs MaxDim 32) and solves it by reference on
// the decomposed backend, against the by-value answer.
func TestOperatorDecomposedByRef(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()
	const n = 48
	entries := make([]la.COOEntry, 0, 3*n)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		entries = append(entries, la.COOEntry{Row: i, Col: i, Val: 2})
		if i > 0 {
			entries = append(entries, la.COOEntry{Row: i, Col: i - 1, Val: -0.5})
			entries = append(entries, la.COOEntry{Row: i - 1, Col: i, Val: -0.5})
		}
		b[i] = 1
	}
	a := la.MustCSR(n, entries)

	byVal, err := client.Solve(ctx, SolveRequest{
		Backend: "decomposed", N: n, A: MatrixEntries(a), B: b, Tol: 1e-6, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	info, err := client.RegisterOperator(ctx, OperatorRequest{N: n, A: MatrixEntries(a)})
	if err != nil {
		t.Fatal(err)
	}
	byRef, err := client.Solve(ctx, SolveRequest{
		Backend: "decomposed", Fingerprint: info.Fingerprint, B: b, Tol: 1e-6, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range byVal.U {
		if byRef.U[i] != byVal.U[i] {
			t.Fatalf("u[%d]: by-ref %v, by-value %v", i, byRef.U[i], byVal.U[i])
		}
	}
	if byRef.Decompose == nil || byRef.Decompose.Blocks < 2 {
		t.Fatalf("by-ref solve skipped decomposition: %+v", byRef.Decompose)
	}
}

// TestOperatorJobPayloadRewrite submits a by-value async job and asserts
// the persisted payload was rewritten to the by-reference form (the WAL
// holds O(n), the registry holds the matrix once) — and that executing
// the rewritten payload answers the synchronous result bit-identically.
func TestOperatorJobPayloadRewrite(t *testing.T) {
	// Workers disabled so the queued payload can be inspected racelessly.
	s, client, done := newTestServer(t, Config{JobWorkers: -1})
	defer done()
	ctx := context.Background()

	req := eq2Request("analog-refined")
	st, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
	if err != nil {
		t.Fatal(err)
	}
	j, ok := s.Jobs().Get(st.ID)
	if !ok {
		t.Fatalf("job %s not found", st.ID)
	}
	var stored SolveRequest
	if err := json.Unmarshal(j.Payload, &stored); err != nil {
		t.Fatal(err)
	}
	if stored.Fingerprint == "" || len(stored.A) != 0 || stored.N != 0 {
		t.Fatalf("payload not rewritten by-reference: %s", j.Payload)
	}
	if len(stored.B) != 2 {
		t.Fatalf("rewrite lost the right-hand side: %s", j.Payload)
	}
	if ops, _ := s.registry.stats(); ops != 1 {
		t.Fatalf("submit registered %d operators, want 1", ops)
	}

	// The by-value payload is far fatter than the reference it became.
	fat, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(j.Payload) >= len(fat) {
		t.Fatalf("rewritten payload %dB not smaller than by-value %dB", len(j.Payload), len(fat))
	}

	// A server with workers executes the rewritten payload to the same
	// answer the synchronous endpoint gives.
	_, client2, done2 := newTestServer(t, Config{})
	defer done2()
	sync, err := client2.Solve(ctx, eq2Request("analog-refined"))
	if err != nil {
		t.Fatal(err)
	}
	req2 := eq2Request("analog-refined")
	st2, err := client2.SubmitJob(ctx, JobSubmitRequest{Solve: &req2})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client2.WaitJob(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	var resp SolveResponse
	if err := json.Unmarshal(final.Result, &resp); err != nil {
		t.Fatalf("job state %s: %v", final.State, err)
	}
	for i := range sync.U {
		if resp.U[i] != sync.U[i] {
			t.Fatalf("u[%d]: job %v, sync %v", i, resp.U[i], sync.U[i])
		}
	}
}

// TestOperatorClientEnsureCaching counts PUT /v1/operators round trips:
// SolveOperator registers once per endpoint, reuses the acknowledgement
// across calls, and transparently re-registers after an eviction.
func TestOperatorClientEnsureCaching(t *testing.T) {
	s, err := New(Config{Pool: testPoolConfig(), RegistryMaxOps: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var puts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && r.URL.Path == "/v1/operators" {
			puts.Add(1)
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	a, _ := eq2()
	op := PrepareOperator(a)
	var first *SolveResponse
	for i := 0; i < 3; i++ {
		resp, err := client.SolveOperator(ctx, op, eq2Request("analog-refined"))
		if err != nil {
			t.Fatalf("solve %d: %v", i, err)
		}
		if first == nil {
			first = resp
		} else {
			for k := range first.U {
				if resp.U[k] != first.U[k] {
					t.Fatalf("solve %d diverged at u[%d]", i, k)
				}
			}
		}
	}
	if puts.Load() != 1 {
		t.Fatalf("3 warm solves cost %d registrations, want 1", puts.Load())
	}

	// Evict the operator (1-op registry, a different operator displaces
	// it) and solve again: the client re-registers transparently.
	if _, _, err := s.registry.register(diagOp(4, 9)); err != nil {
		t.Fatal(err)
	}
	if _, err := client.SolveOperator(ctx, op, eq2Request("analog-refined")); err != nil {
		t.Fatalf("solve after eviction: %v", err)
	}
	if puts.Load() != 2 {
		t.Fatalf("post-eviction solve cost %d total registrations, want 2", puts.Load())
	}
}

// TestOperatorGzipWirePath hand-gzips an operator upload and PUTs it
// over raw HTTP with Content-Encoding: gzip, asserting (a) the server
// inflated it correctly — the by-ref solve answers sanely — and (b) the
// wire-byte histogram recorded the compressed size, far below the raw
// JSON. serve.Client sends plain JSON, so this is the path a client that
// compresses its own bodies takes.
func TestOperatorGzipWirePath(t *testing.T) {
	s, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	const n = 3000
	a := diagOp(n, 2)
	raw, err := json.Marshal(OperatorRequest{N: n, A: MatrixEntries(a)})
	if err != nil {
		t.Fatal(err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	zlen := int64(zbuf.Len())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPut, client.BaseURL+"/v1/operators", &zbuf)
	if err != nil {
		t.Fatal(err)
	}
	httpReq.Header.Set("Content-Type", "application/json")
	httpReq.Header.Set("Content-Encoding", "gzip")
	httpResp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(httpResp.Body)
		t.Fatalf("gzip upload answered %d: %s", httpResp.StatusCode, msg)
	}
	var info OperatorInfo
	if err := json.NewDecoder(httpResp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	sum, count := s.Metrics().RequestBytes("operators")
	if count != 1 {
		t.Fatalf("operator route saw %d requests", count)
	}
	if sum != zlen || sum >= int64(len(raw))/2 {
		t.Fatalf("wire bytes %d, want the compressed %d (raw %d)", sum, zlen, len(raw))
	}

	// Round trip: the inflated operator solves by reference (diagonal
	// system, so cg settles immediately at any n).
	resp, err := client.Solve(ctx, SolveRequest{Backend: "cg", Fingerprint: info.Fingerprint, Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.U) != n || resp.Residual > 1e-9 {
		t.Fatalf("by-ref solve of gzip-uploaded operator: n=%d residual=%v", len(resp.U), resp.Residual)
	}
}

// TestClientSendsPlainJSON is the client-side counterpart: a
// serve.Client registration far above 16 KiB arrives with no
// Content-Encoding, and the wire histogram records exactly the encoded
// JSON length.
func TestClientSendsPlainJSON(t *testing.T) {
	s, err := New(Config{Pool: testPoolConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var encodings []string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPut && r.URL.Path == "/v1/operators" {
			encodings = append(encodings, r.Header.Get("Content-Encoding"))
		}
		s.Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()
	client := NewClient(ts.URL)
	ctx := context.Background()

	const n = 3000
	reg := OperatorRequest{N: n, A: MatrixEntries(diagOp(n, 2))}
	var enc bytes.Buffer
	if err := json.NewEncoder(&enc).Encode(reg); err != nil {
		t.Fatal(err)
	}
	if enc.Len() < 64<<10 {
		t.Fatalf("test operator too small: %dB", enc.Len())
	}
	if _, err := client.RegisterOperator(ctx, reg); err != nil {
		t.Fatal(err)
	}
	if len(encodings) != 1 || encodings[0] != "" {
		t.Fatalf("registration arrived with Content-Encoding %q, want one plain upload", encodings)
	}
	sum, count := s.Metrics().RequestBytes("operators")
	if count != 1 || sum != int64(enc.Len()) {
		t.Fatalf("operator route recorded %d bytes over %d requests, want %d over 1", sum, count, enc.Len())
	}
}

// TestOperatorByRefWireBytes measures the warm-path economics the
// registry exists for: a by-reference solve request of the n=1024
// 2-D Poisson operator must carry no matrix body and far fewer wire
// bytes than its by-value twin.
func TestOperatorByRefWireBytes(t *testing.T) {
	s, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	g, err := la.NewGrid(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	a := la.PoissonMatrix(g) // n = 1024
	n := a.Dim()
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}

	byVal := SolveRequest{Backend: "cg", N: n, A: MatrixEntries(a), B: b, Tol: 1e-8}
	if _, err := client.Solve(ctx, byVal); err != nil {
		t.Fatal(err)
	}
	valBytes, _ := s.Metrics().RequestBytes("solve")

	info, err := client.RegisterOperator(ctx, OperatorRequest{N: n, A: MatrixEntries(a)})
	if err != nil {
		t.Fatal(err)
	}
	byRef := SolveRequest{Backend: "cg", Fingerprint: info.Fingerprint, B: b, Tol: 1e-8}
	refJSON, err := json.Marshal(byRef)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(refJSON), `"A"`) {
		t.Fatal("by-ref request still carries a matrix body")
	}
	if _, err := client.Solve(ctx, byRef); err != nil {
		t.Fatal(err)
	}
	bothBytes, count := s.Metrics().RequestBytes("solve")
	refBytes := bothBytes - valBytes
	if count != 2 {
		t.Fatalf("solve route saw %d requests", count)
	}
	if refBytes*2 >= valBytes {
		t.Fatalf("by-ref request %dB vs by-value %dB: no meaningful wire saving", refBytes, valBytes)
	}
	valJSON, err := json.Marshal(byVal)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(valJSON)) < 10*int64(len(refJSON)) {
		t.Fatalf("encoded by-value %dB vs by-ref %dB: under the 10x reduction bar", len(valJSON), len(refJSON))
	}
}
