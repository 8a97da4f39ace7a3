package serve

import (
	"context"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// Bench suite 8: dynamic micro-batching on a hot operator. Sixteen
// workers hammer one fingerprint through the full HTTP path against a
// 4-chip pool. Coalescing folds the sixteen solo streams into shared
// lane waves — one checkout and one settle per wave instead of per
// request — so solves/s is the headline, with wave occupancy and the
// coalesced fraction reported alongside. SolveRoundTrip measures the
// serve path's per-request allocations (the sync.Pool scratch recycling
// shows up in its allocs/op).

func benchServer(b *testing.B) (*Server, *Client, func()) {
	b.Helper()
	s, err := New(Config{
		Pool:       PoolConfig{ChipsPerClass: 1, WarmSizes: []int{16}, MinClass: 2, MaxDim: 32},
		QueueBound: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	return s, NewClient(ts.URL), func() {
		ts.Close()
		s.Close()
	}
}

// benchHotRequest is the hot operator: a 16-variable diagonally-dominant
// tridiagonal system, big enough that chip settle time (not HTTP
// overhead) is what concurrency 16 contends on.
func benchHotRequest() SolveRequest {
	const n = 16
	req := SolveRequest{Backend: "analog-refined", N: n, Tol: 1e-8}
	for i := 0; i < n; i++ {
		req.A = append(req.A, Entry{Row: i, Col: i, Val: 4})
		if i > 0 {
			req.A = append(req.A, Entry{Row: i, Col: i - 1, Val: -1})
		}
		if i < n-1 {
			req.A = append(req.A, Entry{Row: i, Col: i + 1, Val: -1})
		}
		req.B = append(req.B, 1+float64(i%7))
	}
	return req
}

func runHotOperatorBench(b *testing.B) {
	s, client, done := benchServer(b)
	defer done()
	ctx := context.Background()
	req := benchHotRequest()
	if _, err := client.Solve(ctx, req); err != nil {
		b.Fatal(err)
	}

	const workers = 16
	var coalesced atomic.Int64
	work := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range work {
				resp, err := client.Solve(ctx, req)
				if err != nil {
					b.Error(err)
					return
				}
				if resp.Coalesced {
					coalesced.Add(1)
				}
			}
		}()
	}
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		work <- struct{}{}
	}
	close(work)
	wg.Wait()
	elapsed := time.Since(start)
	b.StopTimer()

	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "solves/s")
	b.ReportMetric(float64(coalesced.Load())/float64(b.N), "coalesced_frac")
	if waves := s.metrics.Waves(); waves > 0 {
		b.ReportMetric(s.Snapshot().WaveMeanLanes, "wave_lanes_mean")
	}
}

// BenchmarkHotOperator16Coalesced is the tentpole measurement: one hot
// fingerprint at concurrency 16, its waves formed at chip checkout.
func BenchmarkHotOperator16Coalesced(b *testing.B) {
	runHotOperatorBench(b)
}

// BenchmarkSolveRoundTrip is the allocation probe: one synchronous HTTP
// solve per op, single stream. -benchmem's allocs/op shows the pooled
// encode/decode scratch (compare the federated 537k allocs/op noted in
// BENCH_7 before pooling).
func BenchmarkSolveRoundTrip(b *testing.B) {
	_, client, done := benchServer(b)
	defer done()
	ctx := context.Background()
	req := benchHotRequest()
	if _, err := client.Solve(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := client.Solve(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
