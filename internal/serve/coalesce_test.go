package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"analogacc/internal/cli"
	"analogacc/internal/la"
)

// operatorRequest builds a distinct-fingerprint 2×2 solve: the diagonal
// varies with k, the right-hand side with lane.
func operatorRequest(k, lane int) SolveRequest {
	return SolveRequest{
		Backend: "analog-refined",
		N:       2,
		A: []Entry{
			{Row: 0, Col: 0, Val: 0.8 + float64(k)*0.01}, {Row: 0, Col: 1, Val: 0.2},
			{Row: 1, Col: 0, Val: 0.2}, {Row: 1, Col: 1, Val: 0.6},
		},
		B:   []float64{0.5 + float64(lane)*0.01, 0.3 - float64(lane)*0.005},
		Tol: 1e-8,
	}
}

// enrolled counts the members of the coalescer's forming waves. A wave
// that fills is unlinked at once, so its members stop counting.
func enrolled(s *Server) int {
	s.coalesce.mu.Lock()
	defer s.coalesce.mu.Unlock()
	n := 0
	for _, g := range s.coalesce.groups {
		n += len(g.members)
	}
	return n
}

// solveInOneWave sends reqs, all for the operator a, on their own
// goroutines and returns each answer. Every chip that serves a is held
// until all of them have enrolled, so they ride one wave however the
// scheduler runs them: the first opens a wave that stalls in checkout,
// and each later one boards it before the next is sent (the last of a
// full wave shows as the wave leaving groups). The held chips then go
// back in checkout order, so the wave gets the chip a fresh server's
// first solve would.
func solveInOneWave(t *testing.T, s *Server, client *Client, a *la.CSR, reqs []SolveRequest) ([]*SolveResponse, []error) {
	t.Helper()
	held := checkoutAll(t, s.pool, a)
	if len(held) == 0 {
		t.Fatal("no chips to hold")
	}
	release := func() {
		for _, c := range held {
			s.pool.Checkin(c)
		}
		held = nil
	}
	defer release() // a failed enrollment must not strand the requests
	resps := make([]*SolveResponse, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = client.Solve(context.Background(), reqs[i])
		}(i)
		want := i + 1
		if want == s.coalesce.maxLanes {
			want = 0
		}
		for deadline := time.Now().Add(10 * time.Second); enrolled(s) != want; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("request %d never enrolled: %d members waiting, want %d", i, enrolled(s), want)
			}
		}
	}
	release()
	wg.Wait()
	return resps, errs
}

// TestCoalesceBitIdentity is the differential guarantee extended to the
// coalesced path: every lane of a B-wide wave must answer bit-identically
// to a solo solve of the same right-hand side on an identically fresh
// server. Wave widths cover a pair, a partial wave, and a full close.
func TestCoalesceBitIdentity(t *testing.T) {
	for _, lanes := range []int{2, 7, 16} {
		lanes := lanes
		t.Run(fmt.Sprintf("lanes=%d", lanes), func(t *testing.T) {
			t.Parallel()
			s, client, done := newTestServer(t, Config{})
			defer done()
			ctx := context.Background()

			a, _ := eq2()
			reqs := make([]SolveRequest, lanes)
			for i := range reqs {
				reqs[i] = operatorRequest(0, i)
			}
			resps, errs := solveInOneWave(t, s, client, a, reqs)

			for i := 0; i < lanes; i++ {
				if errs[i] != nil {
					t.Fatalf("lane %d: %v", i, errs[i])
				}
				if resps[i].WaveLanes != lanes || resps[i].Coalesced != (lanes > 1) {
					t.Fatalf("lane %d provenance: coalesced=%t wave_lanes=%d, want %t/%d",
						i, resps[i].Coalesced, resps[i].WaveLanes, lanes > 1, lanes)
				}

				// The solo reference: the same request alone as the first
				// analog solve of a fresh server — a one-lane wave from the
				// exact chip entry state the wide wave saw.
				_, soloClient, soloDone := newTestServer(t, Config{})
				solo, err := soloClient.Solve(ctx, operatorRequest(0, i))
				if err != nil {
					soloDone()
					t.Fatalf("solo lane %d: %v", i, err)
				}
				if solo.WaveLanes != 1 || solo.Coalesced {
					soloDone()
					t.Fatalf("solo lane %d rode wave_lanes=%d coalesced=%t, want a one-lane wave",
						i, solo.WaveLanes, solo.Coalesced)
				}
				if len(solo.U) != len(resps[i].U) {
					soloDone()
					t.Fatalf("lane %d: solo %d values, coalesced %d", i, len(solo.U), len(resps[i].U))
				}
				for j := range solo.U {
					if solo.U[j] != resps[i].U[j] {
						soloDone()
						t.Fatalf("lane %d u[%d]: coalesced %v != solo %v", i, j, resps[i].U[j], solo.U[j])
					}
				}
				soloDone()
			}
		})
	}
}

// TestCoalesceDeadlineMixing proves the wave runs under the *latest*
// member deadline: a short-deadline lane abandoning mid-settle must not
// cancel its companions. The injected batch solver holds the wave well
// past the short deadline.
func TestCoalesceDeadlineMixing(t *testing.T) {
	s, client, done := newTestServer(t, Config{})
	defer done()
	s.solve = func(ctx context.Context, backend string, a *la.CSR, rhs []la.Vector, p cli.SolveParams) ([]cli.Outcome, error) {
		select {
		case <-time.After(300 * time.Millisecond):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return cli.SolveSystemBatch(ctx, backend, a, rhs, p)
	}

	long, short := operatorRequest(0, 1), operatorRequest(0, 0)
	long.TimeoutMs = 5000
	short.TimeoutMs = 50 // expires while the wave is still settling
	a, _ := eq2()
	resps, errs := solveInOneWave(t, s, client, a, []SolveRequest{long, short})
	longist, longErr := resps[0], errs[0]
	shortResp, shortErr := resps[1], errs[1]

	if longErr != nil {
		t.Fatalf("long-deadline lane failed — the short lane cancelled the wave: %v", longErr)
	}
	if longist.WaveLanes != 2 {
		t.Fatalf("long lane rode a %d-lane wave, want 2 (requests did not coalesce)", longist.WaveLanes)
	}
	if shortErr == nil {
		t.Fatalf("short-deadline lane answered %+v, want a deadline error", shortResp)
	}
	var rerr *RemoteError
	if !errors.As(shortErr, &rerr) || rerr.StatusCode != 504 {
		t.Fatalf("short-deadline lane error %v, want 504", shortErr)
	}
}

// TestCoalesceChurn hammers the coalescer from many goroutines across
// several operators with mixed deadlines — the -race workout ci.sh runs
// with -count=2. Every in-deadline answer must be a correct solve with
// coherent wave provenance.
func TestCoalesceChurn(t *testing.T) {
	s, client, done := newTestServer(t, Config{QueueBound: 128})
	defer done()
	ctx := context.Background()

	const (
		operators = 4
		requests  = 96
		workers   = 16
	)
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		failures []string
		deadline int
	)
	sem := make(chan struct{}, workers)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			req := operatorRequest(i%operators, i)
			if i%7 == 0 {
				req.TimeoutMs = 1 // sometimes too short on a contended pool: 504 is legal
			}
			resp, err := client.Solve(ctx, req)
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				var rerr *RemoteError
				if errors.As(err, &rerr) && rerr.StatusCode == 504 {
					deadline++
					return
				}
				failures = append(failures, fmt.Sprintf("request %d: %v", i, err))
				return
			}
			if resp.Residual > 1e-6 {
				failures = append(failures, fmt.Sprintf("request %d residual %v", i, resp.Residual))
			}
			if resp.WaveLanes < 1 || resp.Coalesced != (resp.WaveLanes > 1) {
				failures = append(failures, fmt.Sprintf("request %d provenance coalesced=%t wave_lanes=%d",
					i, resp.Coalesced, resp.WaveLanes))
			}
		}(i)
	}
	wg.Wait()

	for _, f := range failures {
		t.Error(f)
	}
	if w := s.metrics.Waves(); w == 0 {
		t.Fatal("no waves recorded under churn")
	}
	t.Logf("churn: %d requests, %d deadline-expired, %d waves, %d coalesced",
		requests, deadline, s.metrics.Waves(), s.metrics.CoalescedRequests())
}

// TestCoalesceBoarderKeepsOwnDeadline pins that a request boarding a wave
// while it waits for a chip is bound by its own deadline, not by those of
// the members enrolled before it. With both class-2 chips held, A
// (100 ms) opens a wave that stalls in checkout; B (10 s) boards 20 ms
// later; the chips come back only after A has expired. A answers 504,
// and B must be served.
func TestCoalesceBoarderKeepsOwnDeadline(t *testing.T) {
	s, client, done := newTestServer(t, Config{})
	defer done()
	a, _ := eq2()
	held := checkoutAll(t, s.pool, a)
	if len(held) == 0 {
		t.Fatal("no class-2 chips to hold")
	}
	ctx := context.Background()
	var aErr, bErr error
	var bResp *SolveResponse
	aDone, bDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(aDone)
		req := operatorRequest(0, 0)
		req.TimeoutMs = 100
		_, aErr = client.Solve(ctx, req)
	}()
	time.Sleep(20 * time.Millisecond)
	go func() {
		defer close(bDone)
		req := operatorRequest(0, 1)
		req.TimeoutMs = 10000
		bResp, bErr = client.Solve(ctx, req)
	}()
	<-aDone
	var rerr *RemoteError
	if !errors.As(aErr, &rerr) || rerr.StatusCode != 504 {
		t.Fatalf("A (100 ms) answered %v with every chip held, want 504", aErr)
	}
	for _, c := range held {
		s.pool.Checkin(c)
	}
	<-bDone
	if bErr != nil {
		t.Fatalf("B (10 s) failed after A expired — it inherited A's deadline: %v", bErr)
	}
	if bResp.Residual > 1e-6 {
		t.Fatalf("B residual %v", bResp.Residual)
	}
}
