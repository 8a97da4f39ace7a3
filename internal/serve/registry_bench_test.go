package serve

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"analogacc/internal/la"
)

// Bench suite 9: the operator registry's wire economics. Three probes:
// RegistryRequestBytes measures the encoded request-body shrink when the
// n=1024 2-D Poisson operator travels by fingerprint instead of by
// value; HotOperatorByValue/ByRef drive the same hot operator through
// the full HTTP path both ways and report p50/p99 latency plus solves/s
// (the by-ref run also counts actual wire bytes per request); and
// JobWALBytes measures the durable queue's bytes-per-job after the
// submit-time payload rewrite, against the by-value payload each job
// would have persisted before the registry existed, while
// JobWALBytesLoopByValue/ByRef measure it for jobs that run one at a
// time.

// benchPoisson1024 is the acceptance workload: the 32×32 2-D Poisson
// operator (n=1024, ~5 nnz/row), far beyond the analog pool but exactly
// what the digital backends chew through — so the wire, not the solve,
// is what by-reference requests save.
func benchPoisson1024(b *testing.B) (*la.CSR, []float64) {
	b.Helper()
	g, err := la.NewGrid(2, 32)
	if err != nil {
		b.Fatal(err)
	}
	a := la.PoissonMatrix(g)
	rhs := make([]float64, a.Dim())
	for i := range rhs {
		rhs[i] = 1 + float64(i%7)
	}
	return a, rhs
}

// BenchmarkRegistryRequestBytes1024 reports the encoded request sizes:
// by-value (matrix + rhs) vs by-reference (fingerprint + rhs), plus the
// reduction ratio. The acceptance bar is ≥10x at n=1024.
func BenchmarkRegistryRequestBytes1024(b *testing.B) {
	a, rhs := benchPoisson1024(b)
	byVal := SolveRequest{Backend: "cg", N: a.Dim(), A: MatrixEntries(a), B: rhs, Tol: 1e-8}
	byRef := SolveRequest{Backend: "cg", Fingerprint: FormatFingerprint(la.Fingerprint(a)), B: rhs, Tol: 1e-8}
	var valBytes, refBytes int
	for i := 0; i < b.N; i++ {
		vj, err := json.Marshal(byVal)
		if err != nil {
			b.Fatal(err)
		}
		rj, err := json.Marshal(byRef)
		if err != nil {
			b.Fatal(err)
		}
		valBytes, refBytes = len(vj), len(rj)
	}
	b.ReportMetric(float64(valBytes), "byvalue_bytes")
	b.ReportMetric(float64(refBytes), "byref_bytes")
	b.ReportMetric(float64(valBytes)/float64(refBytes), "byte_ratio")
}

func runRegistryHotBench(b *testing.B, byRef bool) {
	s, err := New(Config{
		Pool:       PoolConfig{ChipsPerClass: 1, WarmSizes: []int{2}, MinClass: 2, MaxDim: 32},
		QueueBound: 128,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	client := NewClient(ts.URL)
	ctx := context.Background()

	a, rhs := benchPoisson1024(b)
	req := SolveRequest{Backend: "cg", N: a.Dim(), A: MatrixEntries(a), B: rhs, Tol: 1e-8}
	if byRef {
		info, err := client.RegisterOperator(ctx, OperatorRequest{N: a.Dim(), A: MatrixEntries(a)})
		if err != nil {
			b.Fatal(err)
		}
		req = SolveRequest{Backend: "cg", Fingerprint: info.Fingerprint, B: rhs, Tol: 1e-8}
	}
	if _, err := client.Solve(ctx, req); err != nil {
		b.Fatal(err)
	}
	baseBytes, baseCount := s.Metrics().RequestBytes("solve")

	lat := make([]time.Duration, 0, b.N)
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if _, err := client.Solve(ctx, req); err != nil {
			b.Fatal(err)
		}
		lat = append(lat, time.Since(t0))
	}
	elapsed := time.Since(start)
	b.StopTimer()

	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "solves/s")
	b.ReportMetric(float64(lat[len(lat)/2].Microseconds()), "p50_us")
	b.ReportMetric(float64(lat[len(lat)*99/100].Microseconds()), "p99_us")
	sum, count := s.Metrics().RequestBytes("solve")
	if n := count - baseCount; n > 0 {
		b.ReportMetric(float64(sum-baseBytes)/float64(n), "wire_bytes/req")
	}
}

// BenchmarkHotOperatorByValue re-ships the n=1024 operator on every
// request — the pre-registry wire path.
func BenchmarkHotOperatorByValue(b *testing.B) { runRegistryHotBench(b, false) }

// BenchmarkHotOperatorByRef registers once and solves by fingerprint —
// the warm path the registry buys.
func BenchmarkHotOperatorByRef(b *testing.B) { runRegistryHotBench(b, true) }

// BenchmarkJobWALBytes submits distinct durable jobs over the same
// operator and reports the store's growth per job now that submit
// rewrites payloads by-reference: the job WAL alone, and every durable
// byte (the WAL plus the operator journal beside it), next to the
// by-value payload size each job used to persist.
func BenchmarkJobWALBytes(b *testing.B) {
	dir := b.TempDir()
	store := filepath.Join(dir, "jobs.wal")
	s, err := New(Config{
		Pool:         PoolConfig{ChipsPerClass: 1, WarmSizes: []int{2}, MinClass: 2, MaxDim: 32},
		QueueBound:   128,
		JobStore:     store,
		JobWorkers:   -1, // no execution: measure submission persistence only
		JobMaxQueued: 1 << 20,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	client := NewClient(ts.URL)
	ctx := context.Background()

	a, rhs := benchPoisson1024(b)
	walBefore, opsBefore := storeSizes(b, store)
	var byValueBytes int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := SolveRequest{Backend: "cg", N: a.Dim(), A: MatrixEntries(a), B: rhs, Tol: 1e-8}
		req.B = append([]float64(nil), rhs...)
		req.B[0] = float64(i + 1) // distinct rhs → distinct job, same operator
		if byValueBytes == 0 {
			raw, err := json.Marshal(req)
			if err != nil {
				b.Fatal(err)
			}
			byValueBytes = len(raw)
		}
		if _, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportStoreGrowth(b, store, walBefore, opsBefore)
	b.ReportMetric(float64(byValueBytes), "byvalue_payload_bytes")
}

// storeSizes returns the sizes of a job store's WAL and of the operator
// journal beside it.
func storeSizes(b *testing.B, store string) (wal, ops int64) {
	b.Helper()
	for _, f := range []struct {
		path string
		size *int64
	}{{store, &wal}, {store + ".ops", &ops}} {
		st, err := os.Stat(f.path)
		if err != nil {
			b.Fatal(err)
		}
		*f.size = st.Size()
	}
	return wal, ops
}

// reportStoreGrowth reports a job store's growth per job since the
// sizes walBefore and opsBefore: the WAL alone, and every durable byte
// (the WAL plus the operator journal).
func reportStoreGrowth(b *testing.B, store string, walBefore, opsBefore int64) {
	wal, ops := storeSizes(b, store)
	b.ReportMetric(float64(wal-walBefore)/float64(b.N), "wal_bytes/job")
	b.ReportMetric(float64(wal-walBefore+ops-opsBefore)/float64(b.N), "durable_bytes/job")
}

// runJobLoopBench submits durable cg jobs on the n=1024 operator one at a
// time, each after the previous one has finished, as implicit time
// stepping or `alasolve -async` in a loop does, and reports the store's
// growth per job. By reference, the operator is registered with PUT
// before the loop, outside the measured growth.
func runJobLoopBench(b *testing.B, byRef bool) {
	store := filepath.Join(b.TempDir(), "jobs.wal")
	s, err := New(Config{
		Pool:       PoolConfig{ChipsPerClass: 1, WarmSizes: []int{2}, MinClass: 2, MaxDim: 32},
		QueueBound: 128,
		JobStore:   store,
	})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		s.Close()
	}()
	client := NewClient(ts.URL)
	ctx := context.Background()

	a, rhs := benchPoisson1024(b)
	base := SolveRequest{Backend: "cg", N: a.Dim(), A: MatrixEntries(a), Tol: 1e-8}
	if byRef {
		info, err := client.RegisterOperator(ctx, OperatorRequest{N: a.Dim(), A: MatrixEntries(a)})
		if err != nil {
			b.Fatal(err)
		}
		base = SolveRequest{Backend: "cg", Fingerprint: info.Fingerprint, Tol: 1e-8}
	}
	walBefore, opsBefore := storeSizes(b, store)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := base
		req.B = append([]float64(nil), rhs...)
		req.B[0] = float64(i + 1) // distinct rhs → distinct job, same operator
		st, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
		if err != nil {
			b.Fatal(err)
		}
		final, err := client.WaitJob(ctx, st.ID)
		if err != nil {
			b.Fatal(err)
		}
		if final.State != "done" {
			b.Fatalf("job %d ended %s: %+v", i, final.State, final.Error)
		}
	}
	b.StopTimer()
	reportStoreGrowth(b, store, walBefore, opsBefore)
}

// BenchmarkJobWALBytesLoopByValue runs the job loop with the operator
// sent by value on every submission.
func BenchmarkJobWALBytesLoopByValue(b *testing.B) { runJobLoopBench(b, false) }

// BenchmarkJobWALBytesLoopByRef runs the job loop by fingerprint against
// an operator registered with PUT.
func BenchmarkJobWALBytesLoopByRef(b *testing.B) { runJobLoopBench(b, true) }
