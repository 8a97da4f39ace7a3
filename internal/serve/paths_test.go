package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"analogacc/internal/jobs"
	"analogacc/internal/la"
)

// crossPathSystem is a seeded, strictly diagonally dominant system of
// order n with k right-hand sides.
func crossPathSystem(seed int64, n, k int) (*la.CSR, [][]float64) {
	rng := rand.New(rand.NewSource(seed))
	var entries []la.COOEntry
	for i := 0; i < n; i++ {
		row := 0.0
		for _, j := range []int{i - 1, i + 1} {
			if j < 0 || j >= n {
				continue
			}
			v := -0.1 - 0.2*rng.Float64()
			entries = append(entries, la.COOEntry{Row: i, Col: j, Val: v})
			row -= v
		}
		entries = append(entries, la.COOEntry{Row: i, Col: i, Val: row + 0.5 + 0.5*rng.Float64()})
	}
	rhs := make([][]float64, k)
	for r := range rhs {
		rhs[r] = make([]float64, n)
		for i := range rhs[r] {
			rhs[r][i] = rng.Float64() - 0.5
		}
	}
	return la.MustCSR(n, entries), rhs
}

// TestCrossPathBitIdentity holds every analog execution path to the solo
// answer: each right-hand side of one seeded system goes through a solo
// request (a wave of one), a coalesced wave, a k-RHS batch, a 1-RHS
// batch, an async solve job and an async batch job — each by value and
// by reference, each on a fresh server with the same pool seed — and
// every u must be bit-identical to the by-value solo answer.
func TestCrossPathBitIdentity(t *testing.T) {
	const (
		n   = 6
		k   = 3
		tol = 1e-8
	)
	a, rhs := crossPathSystem(42, n, k)
	entries := MatrixEntries(a)
	fpHex := FormatFingerprint(la.Fingerprint(a))
	ctx := context.Background()

	// fresh boots a server with the shared pool seed, registering the
	// operator first when the path runs by reference.
	fresh := func(t *testing.T, byRef bool) (*Server, *Client, func()) {
		t.Helper()
		s, client, done := newTestServer(t, Config{
			Pool: PoolConfig{ChipsPerClass: 2, WarmSizes: []int{n}, MinClass: 2, MaxDim: 32, Seed: 11},
		})
		if byRef {
			if _, err := client.RegisterOperator(ctx, OperatorRequest{N: n, A: entries}); err != nil {
				done()
				t.Fatal(err)
			}
		}
		return s, client, done
	}
	solo := func(byRef bool, b []float64) SolveRequest {
		if byRef {
			return SolveRequest{Fingerprint: fpHex, B: b, Tol: tol}
		}
		return SolveRequest{N: n, A: entries, B: b, Tol: tol}
	}
	batch := func(byRef bool, rows [][]float64) BatchSolveRequest {
		if byRef {
			return BatchSolveRequest{Fingerprint: fpHex, RHS: rows, Tol: tol}
		}
		return BatchSolveRequest{N: n, A: entries, RHS: rows, Tol: tol}
	}
	// job submits one async job and decodes its result into out.
	job := func(t *testing.T, client *Client, req JobSubmitRequest, out any) {
		t.Helper()
		st, err := client.SubmitJob(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		final, err := client.WaitJob(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != string(jobs.StateDone) {
			t.Fatalf("job %s ended %s: %+v", st.ID, final.State, final.Error)
		}
		if err := json.Unmarshal(final.Result, out); err != nil {
			t.Fatal(err)
		}
	}
	// oneWave checks a solo answer's provenance: it rode a wave of lanes.
	oneWave := func(t *testing.T, resp *SolveResponse, lanes int) []float64 {
		t.Helper()
		if resp.WaveLanes != lanes || resp.Coalesced != (lanes > 1) {
			t.Fatalf("rode wave_lanes=%d coalesced=%t, want a %d-lane wave", resp.WaveLanes, resp.Coalesced, lanes)
		}
		return resp.U
	}

	paths := []struct {
		name string
		run  func(t *testing.T, byRef bool) [][]float64
	}{
		{"solo", func(t *testing.T, byRef bool) [][]float64 {
			us := make([][]float64, k)
			for i := range rhs {
				_, client, done := fresh(t, byRef)
				resp, err := client.Solve(ctx, solo(byRef, rhs[i]))
				if err != nil {
					done()
					t.Fatal(err)
				}
				us[i] = oneWave(t, resp, 1)
				done()
			}
			return us
		}},
		{"coalesced", func(t *testing.T, byRef bool) [][]float64 {
			s, client, done := fresh(t, byRef)
			defer done()
			reqs := make([]SolveRequest, k)
			for i := range rhs {
				reqs[i] = solo(byRef, rhs[i])
			}
			resps, errs := solveInOneWave(t, s, client, a, reqs)
			us := make([][]float64, k)
			for i := range rhs {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				us[i] = oneWave(t, resps[i], k)
			}
			return us
		}},
		{"batch", func(t *testing.T, byRef bool) [][]float64 {
			_, client, done := fresh(t, byRef)
			defer done()
			resp, err := client.SolveBatch(ctx, batch(byRef, rhs))
			if err != nil {
				t.Fatal(err)
			}
			us := make([][]float64, len(resp.Items))
			for i, it := range resp.Items {
				us[i] = it.U
			}
			return us
		}},
		{"batch-of-1", func(t *testing.T, byRef bool) [][]float64 {
			us := make([][]float64, k)
			for i := range rhs {
				_, client, done := fresh(t, byRef)
				resp, err := client.SolveBatch(ctx, batch(byRef, rhs[i:i+1]))
				done()
				if err != nil {
					t.Fatal(err)
				}
				if len(resp.Items) != 1 {
					t.Fatalf("batch of one answered %d items", len(resp.Items))
				}
				us[i] = resp.Items[0].U
			}
			return us
		}},
		{"solve-job", func(t *testing.T, byRef bool) [][]float64 {
			us := make([][]float64, k)
			for i := range rhs {
				_, client, done := fresh(t, byRef)
				req := solo(byRef, rhs[i])
				var resp SolveResponse
				job(t, client, JobSubmitRequest{Solve: &req}, &resp)
				done()
				us[i] = oneWave(t, &resp, 1)
			}
			return us
		}},
		{"batch-job", func(t *testing.T, byRef bool) [][]float64 {
			_, client, done := fresh(t, byRef)
			defer done()
			req := batch(byRef, rhs)
			var resp BatchSolveResponse
			job(t, client, JobSubmitRequest{Batch: &req}, &resp)
			us := make([][]float64, len(resp.Items))
			for i, it := range resp.Items {
				us[i] = it.U
			}
			return us
		}},
	}

	// The reference: each right-hand side solved alone, by value.
	want := paths[0].run(t, false)
	for _, p := range paths {
		for _, byRef := range []bool{false, true} {
			form := "value"
			if byRef {
				form = "ref"
			}
			t.Run(fmt.Sprintf("%s/by-%s", p.name, form), func(t *testing.T) {
				got := p.run(t, byRef)
				if len(got) != k {
					t.Fatalf("%d answers, want %d", len(got), k)
				}
				for i := range want {
					if len(got[i]) != n {
						t.Fatalf("rhs %d: %d values, want %d", i, len(got[i]), n)
					}
					for j := range want[i] {
						if got[i][j] != want[i][j] {
							t.Fatalf("rhs %d u[%d]: %v, solo answer %v — must be bit-identical",
								i, j, got[i][j], want[i][j])
						}
					}
				}
			})
		}
	}
}
