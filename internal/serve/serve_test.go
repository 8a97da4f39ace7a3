package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"analogacc/internal/cli"
	"analogacc/internal/la"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *Client, func()) {
	t.Helper()
	if cfg.Pool.MinClass == 0 {
		cfg.Pool = testPoolConfig()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, NewClient(ts.URL), func() {
		ts.Close()
		s.Close()
	}
}

func eq2Request(backend string) SolveRequest {
	return SolveRequest{
		Backend: backend,
		N:       2,
		A: []Entry{
			{Row: 0, Col: 0, Val: 0.8}, {Row: 0, Col: 1, Val: 0.2},
			{Row: 1, Col: 0, Val: 0.2}, {Row: 1, Col: 1, Val: 0.6},
		},
		B:   []float64{0.5, 0.3},
		Tol: 1e-8,
	}
}

func TestServeSolveEndToEnd(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()
	if err := client.Healthz(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err := client.Solve(ctx, eq2Request("analog-refined"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.N != 2 || len(resp.U) != 2 {
		t.Fatalf("malformed response: %+v", resp)
	}
	if resp.Residual > 1e-7 {
		t.Fatalf("residual %v", resp.Residual)
	}
	if resp.Analog == nil || resp.Analog.AnalogSeconds <= 0 || resp.Analog.ChipClass != 2 {
		t.Fatalf("analog stats missing or wrong: %+v", resp.Analog)
	}
	// The solution matches the digital direct answer: u = A⁻¹b.
	want := []float64{0.24 / 0.44, 0.14 / 0.44}
	for i := range want {
		if d := resp.U[i] - want[i]; d > 1e-6 || d < -1e-6 {
			t.Fatalf("u[%d] = %v want %v", i, resp.U[i], want[i])
		}
	}

	// The metrics surface saw the solve.
	text, err := client.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{
		`alad_solves_total{backend="analog-refined"} 1`,
		"alad_analog_seconds_total",
		"alad_request_seconds_count 1",
		`alad_pool_chips_built{class="2"} 2`,
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("metrics missing %q in:\n%s", needle, text)
		}
	}
}

func TestServeDigitalBackends(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	for _, backend := range []string{"cg", "jacobi", "direct"} {
		resp, err := client.Solve(context.Background(), eq2Request(backend))
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		if resp.Residual > 1e-6 {
			t.Fatalf("%s: residual %v", backend, resp.Residual)
		}
		if resp.Analog != nil {
			t.Fatalf("%s: unexpected analog stats", backend)
		}
	}
}

func TestServeRawPayloadForms(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()
	// Triplet text form (the alasolve on-disk format).
	resp, err := client.Solve(ctx, SolveRequest{
		Backend: "cg",
		System:  "n 2\na 0 0 0.8\na 0 1 0.2\na 1 0 0.2\na 1 1 0.6\nb 0 0.5\nb 1 0.3\n",
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Residual > 1e-8 {
		t.Fatalf("system form residual %v", resp.Residual)
	}
	// MatrixMarket form with default all-ones rhs.
	mm := "%%MatrixMarket matrix coordinate real general\n2 2 4\n1 1 0.8\n1 2 0.2\n2 1 0.2\n2 2 0.6\n"
	resp, err = client.Solve(ctx, SolveRequest{Backend: "direct", MatrixMarket: mm})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.U) != 2 || resp.Residual > 1e-12 {
		t.Fatalf("mm form: %+v", resp)
	}
}

func TestServeValidation(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()
	cases := []struct {
		req  SolveRequest
		code string
	}{
		{eq2Request("typo"), CodeBadBackend},
		{SolveRequest{Backend: "cg"}, CodeBadRequest},                                        // no payload form
		{SolveRequest{Backend: "cg", N: 1, A: []Entry{{0, 0, 1}}, B: nil}, CodeBadRequest},   // missing b
		{SolveRequest{Backend: "cg", System: "n 1\na 0 0 1\nb 0 1\n", N: 1}, CodeBadRequest}, // two forms
	}
	for _, c := range cases {
		_, err := client.Solve(ctx, c.req)
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != c.code {
			t.Errorf("req %+v: want code %s, got %v", c.req, c.code, err)
		}
	}
}

// TestServeTooLargeFansOut sends an analog request bigger than the pool's
// largest size class (n=64 vs MaxDim 32). Before the decomposition path
// this bounced with 413 too_large; now the server partitions it and fans
// the blocks out over the pool as a decomposed solve.
func TestServeTooLargeFansOut(t *testing.T) {
	s, client, done := newTestServer(t, Config{})
	defer done()
	req := SolveRequest{Backend: "analog", N: 64, B: make([]float64, 64), Tol: 1e-6}
	for i := 0; i < 64; i++ {
		req.A = append(req.A, Entry{Row: i, Col: i, Val: 1})
		req.B[i] = 1
	}
	resp, err := client.Solve(context.Background(), req)
	if err != nil {
		t.Fatalf("oversized analog request should fan out, got %v", err)
	}
	if resp.Backend != cli.BackendDecomposed {
		t.Fatalf("backend = %q, want routed to %q", resp.Backend, cli.BackendDecomposed)
	}
	if resp.Residual > 1e-6 {
		t.Fatalf("residual %v", resp.Residual)
	}
	d := resp.Decompose
	if d == nil || d.Blocks < 2 || d.Sweeps < 1 || d.Chips < 1 {
		t.Fatalf("decompose stats missing or degenerate: %+v", d)
	}
	// Session pinning: matrix configurations grow with blocks, not
	// blocks×sweeps (identical diagonal blocks share one group here, so
	// even fewer configs than blocks is fine).
	if d.Configs > d.Blocks {
		t.Fatalf("%d configs for %d blocks × %d sweeps: pinning is not working", d.Configs, d.Blocks, d.Sweeps)
	}
	// The metrics surface saw the fan-out.
	snap := s.Snapshot()
	if snap.Decomposed != 1 || snap.DecompBlocks != int64(d.Blocks) || snap.DecompSweeps < 1 {
		t.Fatalf("decomposed metrics wrong: %+v", snap)
	}
	text, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, needle := range []string{
		"alad_decomposed_total 1",
		`alad_solves_total{backend="decomposed"} 1`,
		"alad_sweep_seconds_count",
	} {
		if !strings.Contains(text, needle) {
			t.Errorf("metrics missing %q", needle)
		}
	}
}

// TestServeDecomposedExplicit requests the decomposed backend directly for
// a system that would also fit a single chip, with a worker cap.
func TestServeDecomposedExplicit(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	const n = 48 // two blocks against the test pool's MaxDim 32
	req := SolveRequest{Backend: "decomposed", N: n, B: make([]float64, n), Tol: 1e-6, Workers: 2}
	for i := 0; i < n; i++ {
		req.A = append(req.A, Entry{Row: i, Col: i, Val: 2})
		if i > 0 {
			req.A = append(req.A, Entry{Row: i, Col: i - 1, Val: -0.5})
			req.A = append(req.A, Entry{Row: i - 1, Col: i, Val: -0.5})
		}
		req.B[i] = 1
	}
	resp, err := client.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Backend != cli.BackendDecomposed || resp.Residual > 1e-6 {
		t.Fatalf("backend %q residual %v", resp.Backend, resp.Residual)
	}
	d := resp.Decompose
	if d == nil || d.Blocks < 2 || d.Chips > 2 {
		t.Fatalf("decompose stats: %+v", d)
	}
}

// TestServeBackpressure fills the admission queue with solves blocked on a
// stub and asserts overload answers 429 + Retry-After instead of queueing.
func TestServeBackpressure(t *testing.T) {
	s, client, done := newTestServer(t, Config{QueueBound: 2})
	defer done()
	block := make(chan struct{})
	started := make(chan struct{}, 16)
	s.solve = func(ctx context.Context, backend string, a *la.CSR, rhs []la.Vector, p cli.SolveParams) ([]cli.Outcome, error) {
		started <- struct{}{}
		select {
		case <-block:
			return []cli.Outcome{{U: la.NewVector(a.Dim()), Note: "stub"}}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}

	const fired = 6
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		ok, busy int
	)
	// Admit exactly QueueBound requests first so the outcome is
	// deterministic: use the digital backend (no chip checkout involved).
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := client.Solve(context.Background(), eq2Request("cg"))
			mu.Lock()
			defer mu.Unlock()
			if err == nil {
				ok++
			}
		}()
	}
	<-started
	<-started
	// Queue is now full: every further request must bounce with 429.
	for i := 0; i < fired-2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := client.Solve(context.Background(), eq2Request("cg"))
			mu.Lock()
			defer mu.Unlock()
			var be *BusyError
			if errors.As(err, &be) {
				if be.RetryAfter <= 0 {
					t.Error("429 without Retry-After hint")
				}
				busy++
			} else if err == nil {
				ok++
			}
		}()
	}
	// Wait until the rejections have come back, then release the two
	// admitted solves.
	deadline := time.After(5 * time.Second)
	for {
		mu.Lock()
		n := busy
		mu.Unlock()
		if n == fired-2 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("only %d rejections arrived", n)
		case <-time.After(time.Millisecond):
		}
	}
	close(block)
	wg.Wait()
	if ok != 2 || busy != fired-2 {
		t.Fatalf("ok=%d busy=%d, want 2/%d", ok, busy, fired-2)
	}
	text, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "alad_rejected_total 4") {
		t.Errorf("metrics lost the rejections:\n%s", text)
	}
}

// TestServeDeadline asserts a request deadline aborts an in-flight solve
// cleanly: 504 with the deadline code, and the metrics see it.
func TestServeDeadline(t *testing.T) {
	s, client, done := newTestServer(t, Config{})
	defer done()
	s.solve = func(ctx context.Context, backend string, a *la.CSR, rhs []la.Vector, p cli.SolveParams) ([]cli.Outcome, error) {
		<-ctx.Done() // a solve that never settles until the deadline fires
		return nil, ctx.Err()
	}
	req := eq2Request("analog-refined")
	req.TimeoutMs = 50
	start := time.Now()
	_, err := client.Solve(context.Background(), req)
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeDeadline || re.StatusCode != 504 {
		t.Fatalf("want 504 deadline, got %v", err)
	}
	if e := time.Since(start); e > 5*time.Second {
		t.Fatalf("deadline abort took %v", e)
	}
	text, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "alad_deadline_exceeded_total 1") {
		t.Errorf("deadline metric missing:\n%s", text)
	}
	// The chip the aborted request had checked out went back to the
	// pool: a normal solve succeeds afterwards.
	s.solve = cli.SolveSystemBatch
	resp, err := client.Solve(context.Background(), eq2Request("analog-refined"))
	if err != nil || resp.Residual > 1e-7 {
		t.Fatalf("solve after deadline abort: %v %+v", err, resp)
	}
}

func TestServeBackendsEndpoint(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	text, err := client.Metrics(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text, "alad_queue_depth 0") {
		t.Errorf("queue depth gauge missing:\n%s", text)
	}
}

// TestServeRejectsHeadersBeyondBody: a by-value request whose declared
// order or entry count the body does not back answers 400 bad_request
// instead of allocating by the header (gigabytes from ~50 bytes, or a
// panic in make for a negative count) on every by-value route.
func TestServeRejectsHeadersBeyondBody(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()
	const mm = "%%MatrixMarket matrix coordinate real general\n"
	one := []Entry{{Row: 0, Col: 0, Val: 1}}
	mmSolve := func(file string) func() error {
		return func() error {
			_, err := client.Solve(ctx, SolveRequest{Backend: "cg", MatrixMarket: file})
			return err
		}
	}
	cases := []struct {
		name string
		send func() error
	}{
		{"mm-negative-count", mmSolve(mm + "2 2 -1\n")},
		{"mm-huge-count", mmSolve(mm + "2 2 1000000000\n1 1 1\n2 2 1\n")},
		{"mm-huge-order", mmSolve(mm + "1000000000 1000000000 1\n1 1 1\n")},
		{"system-huge-order", func() error {
			_, err := client.Solve(ctx, SolveRequest{Backend: "cg", System: "n 2000000000\na 0 0 1\nb 0 1\n"})
			return err
		}},
		{"operator-huge-order", func() error {
			_, err := client.RegisterOperator(ctx, OperatorRequest{N: 2000000000, A: one})
			return err
		}},
		{"batch-huge-order", func() error {
			_, err := client.SolveBatch(ctx, BatchSolveRequest{Backend: "cg", N: 2000000000, A: one, RHS: [][]float64{{1}}})
			return err
		}},
		{"block-huge-order", func() error {
			_, err := client.SolveBlock(ctx, BlockSolveRequest{N: 2000000000, A: one, Items: []BlockWireItem{{RHS: []float64{1}}}})
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var re *RemoteError
			if err := c.send(); !errors.As(err, &re) || re.Code != CodeBadRequest || re.StatusCode != http.StatusBadRequest {
				t.Fatalf("answered %v, want 400 %s", err, CodeBadRequest)
			}
		})
	}
}
