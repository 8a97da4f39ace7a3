package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"analogacc/internal/cli"
	"analogacc/internal/jobs"
	"analogacc/internal/la"
)

// TestJobSubmitWaitResult drives the async lifecycle over HTTP: submit,
// long-poll to completion, and check the stored result is exactly what
// the synchronous endpoint answers for the same system.
func TestJobSubmitWaitResult(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	sync, err := client.Solve(ctx, eq2Request("analog-refined"))
	if err != nil {
		t.Fatal(err)
	}

	req := eq2Request("analog-refined")
	st, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Kind != JobKindSolve {
		t.Fatalf("submit answered %+v", st)
	}

	final, err := client.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != string(jobs.StateDone) {
		t.Fatalf("job finished in state %s (error %+v)", final.State, final.Error)
	}
	var resp SolveResponse
	if err := json.Unmarshal(final.Result, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.U) != len(sync.U) {
		t.Fatalf("job answered %d values, sync %d", len(resp.U), len(sync.U))
	}
	for i := range resp.U {
		if resp.U[i] != sync.U[i] {
			t.Fatalf("u[%d]: job %v, sync %v — async result must be bit-identical", i, resp.U[i], sync.U[i])
		}
	}
}

// TestJobDedupOverHTTP submits the same system twice: the second answer
// must reuse the first job's ID and be flagged deduplicated.
func TestJobDedupOverHTTP(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	req := eq2Request("analog-refined")
	first, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
	if err != nil {
		t.Fatal(err)
	}
	second, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
	if err != nil {
		t.Fatal(err)
	}
	if second.ID != first.ID || !second.Deduped {
		t.Fatalf("duplicate submit answered %+v, want deduped %s", second, first.ID)
	}
	if _, err := client.WaitJob(ctx, first.ID); err != nil {
		t.Fatal(err)
	}

	// A different tolerance is different work: no dedup.
	changed := eq2Request("analog-refined")
	changed.Tol = 1e-6
	third, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &changed})
	if err != nil {
		t.Fatal(err)
	}
	if third.ID == first.ID || third.Deduped {
		t.Fatalf("changed request deduped onto %s", first.ID)
	}
}

// TestJobCancelAndList exercises cancel on a queued job (workers
// disabled so nothing picks it up) and the list filters.
func TestJobCancelAndList(t *testing.T) {
	_, client, done := newTestServer(t, Config{JobWorkers: -1})
	defer done()
	ctx := context.Background()

	req := eq2Request("analog-refined")
	st, err := client.SubmitJob(ctx, JobSubmitRequest{Tenant: "alice", Solve: &req})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != string(jobs.StateQueued) {
		t.Fatalf("submitted job in state %s with no workers", st.State)
	}

	cancelled, err := client.CancelJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if cancelled.State != string(jobs.StateCancelled) {
		t.Fatalf("cancel answered state %s", cancelled.State)
	}

	list, err := client.ListJobs(ctx, "alice", string(jobs.StateCancelled))
	if err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != st.ID {
		t.Fatalf("list = %+v, want just %s", list, st.ID)
	}
	if list, _ := client.ListJobs(ctx, "", string(jobs.StateQueued)); len(list) != 0 {
		t.Fatalf("queued filter matched %+v", list)
	}

	if _, err := client.Job(ctx, "j-missing", 0); err == nil {
		t.Fatal("unknown job ID answered without error")
	} else {
		var re *RemoteError
		if !errors.As(err, &re) || re.Code != CodeNotFound {
			t.Fatalf("unknown job error = %v, want %s", err, CodeNotFound)
		}
	}
}

// TestJobBacklogAndQuota checks both 429 paths: the shared backlog bound
// and the per-tenant quota, each with a Retry-After hint.
func TestJobBacklogAndQuota(t *testing.T) {
	_, client, done := newTestServer(t, Config{JobWorkers: -1, JobMaxQueued: 2, JobTenantQuota: 1})
	defer done()
	ctx := context.Background()

	submit := func(tenant string, tol float64) (*JobStatus, error) {
		req := eq2Request("analog-refined")
		req.Tol = tol
		return client.SubmitJob(ctx, JobSubmitRequest{Tenant: tenant, Solve: &req})
	}

	if _, err := submit("alice", 1e-3); err != nil {
		t.Fatal(err)
	}
	// Alice's second live job bounces off her quota.
	_, err := submit("alice", 1e-4)
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Code != CodeQuota {
		t.Fatalf("quota submit: %v, want quota BusyError", err)
	}
	// Bob is unaffected by alice's quota.
	if _, err := submit("bob", 1e-5); err != nil {
		t.Fatal(err)
	}
	// The backlog (2) is now full for everyone.
	_, err = submit("carol", 1e-6)
	if !errors.As(err, &busy) || busy.Code != CodeBusy {
		t.Fatalf("backlog submit: %v, want busy BusyError", err)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("429 carried no Retry-After hint: %+v", busy)
	}
}

// TestJobFailureRecordsAPICode routes a failing solve through a job and
// checks the stored error carries the synchronous path's stable code.
func TestJobFailureRecordsAPICode(t *testing.T) {
	s, client, done := newTestServer(t, Config{})
	defer done()
	s.solve = func(context.Context, string, *la.CSR, []la.Vector, cli.SolveParams) ([]cli.Outcome, error) {
		return nil, fmt.Errorf("injected solve failure")
	}
	ctx := context.Background()

	req := eq2Request("analog-refined")
	st, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
	if err != nil {
		t.Fatal(err)
	}
	final, err := client.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != string(jobs.StateFailed) {
		t.Fatalf("job state %s, want failed", final.State)
	}
	if final.Error == nil || final.Error.Code != CodeSolveFailed {
		t.Fatalf("job error %+v, want code %s", final.Error, CodeSolveFailed)
	}
}

// TestJobCancelledMidSolve cancels a job while its solve is running and
// checks the record says so in both fields: state cancelled, and the
// error code cancelled — not internal, which is for server faults.
func TestJobCancelledMidSolve(t *testing.T) {
	s, client, done := newTestServer(t, Config{})
	defer done()
	started := make(chan struct{}, 1)
	s.solve = func(ctx context.Context, _ string, _ *la.CSR, _ []la.Vector, _ cli.SolveParams) ([]cli.Outcome, error) {
		started <- struct{}{}
		<-ctx.Done()
		return nil, ctx.Err()
	}
	ctx := context.Background()

	req := eq2Request("analog-refined")
	st, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never reached its solve")
	}
	if _, err := client.CancelJob(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := client.WaitJob(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != string(jobs.StateCancelled) {
		t.Fatalf("job state %s, want cancelled", final.State)
	}
	if final.Error == nil || final.Error.Code != CodeCancelled {
		t.Fatalf("job error %+v, want code %s", final.Error, CodeCancelled)
	}
}

// TestJobsCountAsDetachedLanes holds a running job of each kind inside
// its solve and checks /v1/peer/stats reports it as one extra lane — a
// batch job holds a chip just as a solve job does, so federation
// saturation gating must see both — and that the gauge returns to zero.
func TestJobsCountAsDetachedLanes(t *testing.T) {
	for _, kind := range []string{JobKindSolve, JobKindBatch} {
		t.Run(kind, func(t *testing.T) {
			s, client, done := newTestServer(t, Config{})
			defer done()
			started, release := make(chan struct{}, 1), make(chan struct{})
			hold := func(ctx context.Context) error {
				started <- struct{}{}
				select {
				case <-release:
					return nil
				case <-ctx.Done():
					return ctx.Err()
				}
			}
			s.solve = func(ctx context.Context, backend string, a *la.CSR, rhs []la.Vector, p cli.SolveParams) ([]cli.Outcome, error) {
				if err := hold(ctx); err != nil {
					return nil, err
				}
				return cli.SolveSystemBatch(ctx, backend, a, rhs, p)
			}
			ctx := context.Background()

			sub := JobSubmitRequest{}
			if kind == JobKindSolve {
				req := eq2Request("analog-refined")
				sub.Solve = &req
			} else {
				req := eq2BatchRequest("analog-refined")
				sub.Batch = &req
			}
			st, err := client.SubmitJob(ctx, sub)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-started:
			case <-time.After(10 * time.Second):
				t.Fatal("job never reached its solve")
			}
			stats, err := client.PeerStats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if stats.ExtraLanes != 1 {
				t.Fatalf("running %s job: extra_lanes=%d, want 1", kind, stats.ExtraLanes)
			}
			close(release)
			final, err := client.WaitJob(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if final.State != string(jobs.StateDone) {
				t.Fatalf("job ended %s: %+v", final.State, final.Error)
			}
			if stats, err := client.PeerStats(ctx); err != nil || stats.ExtraLanes != 0 {
				t.Fatalf("after the job: extra_lanes=%v (err %v), want 0", stats, err)
			}
		})
	}
}

// TestJobGroupRidesOneWave queues sixteen same-operator solo analog jobs
// before a single worker starts: they are accepted by a server that
// executes nothing, and the store is then reopened with one worker. It
// leases them as one group, and the group joins the coalescer in one
// step, so all sixteen ride one 16-lane wave however the scheduler runs
// them — each answering bit-identically to its right-hand side solved
// alone as the first analog solve of a fresh server.
func TestJobGroupRidesOneWave(t *testing.T) {
	const lanes = 16
	store := filepath.Join(t.TempDir(), "jobs.wal")
	_, client, done := newTestServer(t, Config{JobWorkers: -1, JobStore: store})
	ctx := context.Background()
	ids := make([]string, lanes)
	for i := range ids {
		req := operatorRequest(0, i)
		st, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
		if err != nil {
			done()
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	done()

	_, client, done = newTestServer(t, Config{JobWorkers: 1, JobStore: store})
	defer done()
	for i, id := range ids {
		final, err := client.WaitJob(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != string(jobs.StateDone) {
			t.Fatalf("job %d ended %s: %+v", i, final.State, final.Error)
		}
		var resp SolveResponse
		if err := json.Unmarshal(final.Result, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.WaveLanes != lanes || !resp.Coalesced {
			t.Fatalf("job %d rode wave_lanes=%d coalesced=%t, want one %d-lane wave", i, resp.WaveLanes, resp.Coalesced, lanes)
		}
		_, soloClient, soloDone := newTestServer(t, Config{})
		solo, err := soloClient.Solve(ctx, operatorRequest(0, i))
		soloDone()
		if err != nil {
			t.Fatalf("solo %d: %v", i, err)
		}
		if len(solo.U) != len(resp.U) {
			t.Fatalf("job %d: %d values, solo %d", i, len(resp.U), len(solo.U))
		}
		for j := range solo.U {
			if resp.U[j] != solo.U[j] {
				t.Fatalf("job %d u[%d]: %v, solo %v — must be bit-identical", i, j, resp.U[j], solo.U[j])
			}
		}
	}
}

// TestAdaptiveRetryAfter checks the hint scales with queue depth and the
// service-time moving average, and respects its floor.
func TestAdaptiveRetryAfter(t *testing.T) {
	s, _, done := newTestServer(t, Config{QueueBound: 4})
	defer done()

	// No latency history: the hint is the configured floor.
	if got := s.retryAfter(); got != time.Second {
		t.Fatalf("idle hint = %v, want 1s floor", got)
	}

	// One 2s observation sets the EWMA to 2s; with two admitted requests
	// the expected wait is (2+1)×2s.
	s.metrics.ObserveLatency(2 * time.Second)
	s.slots <- struct{}{}
	s.slots <- struct{}{}
	if got, want := s.retryAfter(), 6*time.Second; got != want {
		t.Fatalf("loaded hint = %v, want %v", got, want)
	}
	<-s.slots
	<-s.slots

	// The hint is capped: an EWMA spike cannot tell clients to vanish.
	s.metrics.ObserveLatency(10 * time.Minute)
	if got := s.retryAfter(); got > 30*time.Second {
		t.Fatalf("hint %v exceeds the 30s ceiling", got)
	}
}

// TestClientRetriesBusy checks the opt-in retry loop: a server that
// answers 429 once and then succeeds is transparent to a client with
// MaxRetries ≥ 1, while the default client surfaces BusyError.
func TestClientRetriesBusy(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprintf(w, `{"code":"busy","error":"injected"}`)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"u":[1],"n":1,"backend":"lu"}`)
	}))
	defer ts.Close()

	// Default client: backpressure is surfaced, not swallowed.
	plain := NewClient(ts.URL)
	_, err := plain.Solve(context.Background(), SolveRequest{N: 1})
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("default client: %v, want BusyError", err)
	}
	if busy.RetryAfter != time.Second {
		t.Fatalf("BusyError hint %v, want 1s", busy.RetryAfter)
	}

	calls.Store(0)
	retrying := NewClient(ts.URL)
	retrying.MaxRetries = 2
	resp, err := retrying.Solve(context.Background(), SolveRequest{N: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.U) != 1 || calls.Load() != 2 {
		t.Fatalf("retrying client: resp %+v after %d calls", resp, calls.Load())
	}

	// A cancelled context ends the backoff sleep promptly.
	calls.Store(0)
	alwaysBusy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer alwaysBusy.Close()
	c := NewClient(alwaysBusy.URL)
	c.MaxRetries = 5
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Solve(ctx, SolveRequest{N: 1})
	if err == nil {
		t.Fatal("always-busy server succeeded")
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("context-aware backoff slept %v", waited)
	}
}

// TestJobLongPollReturnsEarly checks ?wait= answers as soon as the job
// is terminal instead of holding the full window.
func TestJobLongPollReturnsEarly(t *testing.T) {
	_, client, done := newTestServer(t, Config{})
	defer done()
	ctx := context.Background()

	req := eq2Request("analog-refined")
	st, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	final, err := client.Job(ctx, st.ID, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if waited := time.Since(start); waited > 10*time.Second {
		t.Fatalf("long-poll held %v for a fast job", waited)
	}
	if final.State != string(jobs.StateDone) {
		t.Fatalf("long-poll answered state %s", final.State)
	}
}

// TestJobPinSurvivesRegistryChurn is the regression for the accepted-
// then-orphaned job: submit rewrites a by-value payload to a
// by-reference one, so the job must keep its operator however the
// registry churns before it runs — otherwise registry churn between
// accept and execute turns a durably accepted job into a terminal
// unknown_operator failure. The job queue holds the operator for the
// live job (Stats().Operators), independent of the registry.
func TestJobPinSurvivesRegistryChurn(t *testing.T) {
	s, client, done := newTestServer(t, Config{JobWorkers: -1, RegistryMaxOps: 1})
	defer done()
	ctx := context.Background()

	req := eq2Request("analog-refined")
	st, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
	if err != nil {
		t.Fatal(err)
	}
	// A duplicate submit dedups onto the queued job and holds nothing
	// more.
	req2 := eq2Request("analog-refined")
	dup, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req2})
	if err != nil {
		t.Fatal(err)
	}
	if dup.ID != st.ID {
		t.Fatalf("duplicate submit created a second job %s (want dedup onto %s)", dup.ID, st.ID)
	}
	if got := s.Snapshot().Jobs.Operators; got != 1 {
		t.Fatalf("jobs_operators = %d after submit, want 1", got)
	}

	// Churn the 1-op registry far past its cap: the job's operator is the
	// first eviction victim.
	for i := 0; i < 8; i++ {
		if _, _, err := s.registry.register(diagOp(4, float64(i+2))); err != nil {
			t.Fatal(err)
		}
	}

	j := s.jobs.Lease("test-worker")
	if j == nil || j.ID != st.ID {
		t.Fatalf("lease answered %+v, want job %s", j, st.ID)
	}
	if _, resident := s.registry.lookup(j.Operator); resident {
		t.Fatal("registry churn left the job's operator resident; the case shows nothing")
	}
	if err := s.jobs.Start(j.ID, "test-worker"); err != nil {
		t.Fatal(err)
	}
	task := &jobs.Task{Ctx: ctx, Job: j}
	s.executeJobs([]*jobs.Task{task})
	raw, code, msg := task.Result, task.ErrCode, task.ErrMsg
	if code != "" {
		t.Fatalf("job failed after registry churn: %s: %s", code, msg)
	}
	var resp SolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatal(err)
	}
	sync, err := client.Solve(ctx, eq2Request("analog-refined"))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.U) != len(sync.U) {
		t.Fatalf("job answered %d unknowns, sync %d", len(resp.U), len(sync.U))
	}
	for i := range resp.U {
		if resp.U[i] != sync.U[i] {
			t.Fatalf("job result diverged from sync solve at %d: %v vs %v", i, resp.U[i], sync.U[i])
		}
	}

	// The terminal transition releases the operator.
	if err := s.jobs.Complete(j.ID, "test-worker", raw); err != nil {
		t.Fatal(err)
	}
	if got := s.Snapshot().Jobs.Operators; got != 0 {
		t.Fatalf("jobs_operators = %d after job completion, want 0 (operator leaked)", got)
	}
}

// TestJobPinReleasedOnCancel checks the other terminal edge: cancelling
// a queued job releases its operator.
func TestJobPinReleasedOnCancel(t *testing.T) {
	s, client, done := newTestServer(t, Config{JobWorkers: -1, RegistryMaxOps: 1})
	defer done()
	ctx := context.Background()

	req := eq2Request("analog-refined")
	st, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.jobs.Stats().Operators; got != 1 {
		t.Fatalf("%d operators held after submit, want 1", got)
	}
	if _, err := client.CancelJob(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if got := s.jobs.Stats().Operators; got != 0 {
		t.Fatalf("%d operators held after cancel, want 0", got)
	}
}

// TestJobPinRestoredAcrossRestart crash-replays a queued job into a
// server whose 1-op registry replays only the newest registration: the
// job's operator comes back from the job WAL, not the registry, and the
// replayed job still executes.
func TestJobPinRestoredAcrossRestart(t *testing.T) {
	store := filepath.Join(t.TempDir(), "jobs.wal")
	cfg := Config{Pool: testPoolConfig(), JobWorkers: -1, JobStore: store}
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	cl1 := NewClient(ts1.URL)
	ctx := context.Background()

	req := eq2Request("analog-refined")
	st, err := cl1.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.registry.register(diagOp(4, 7)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s1.registry.register(diagOp(6, 8)); err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg.RegistryMaxOps = 1
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.jobs.Stats().Operators; got != 1 {
		t.Fatalf("%d operators held after replay, want 1", got)
	}
	j := s2.jobs.Lease("w")
	if j == nil || j.ID != st.ID {
		t.Fatalf("lease after replay answered %+v, want job %s", j, st.ID)
	}
	if err := s2.jobs.Start(j.ID, "w"); err != nil {
		t.Fatal(err)
	}
	task := &jobs.Task{Ctx: ctx, Job: j}
	s2.executeJobs([]*jobs.Task{task})
	raw, code, msg := task.Result, task.ErrCode, task.ErrMsg
	if code != "" {
		t.Fatalf("replayed job failed under a 1-op registry: %s: %s", code, msg)
	}
	if err := s2.jobs.Complete(j.ID, "w", raw); err != nil {
		t.Fatal(err)
	}
	if got := s2.jobs.Stats().Operators; got != 0 {
		t.Fatalf("%d operators held after completion, want 0", got)
	}
}

// TestJobOnReleasedOperatorWritesNoFrame runs submit-and-wait loops on
// one operator, by value and by reference (registered with PUT): the
// first job journals the operator's frame, and a job submitted after the
// previous one finished journals none, because the queue keeps the
// released operator whose frame is already in the WAL.
func TestJobOnReleasedOperatorWritesNoFrame(t *testing.T) {
	for _, byRef := range []bool{false, true} {
		s, client, done := newTestServer(t, Config{JobStore: filepath.Join(t.TempDir(), "jobs.wal")})
		ctx := context.Background()
		base := eq2Request("cg")
		if byRef {
			info, err := client.RegisterOperator(ctx, OperatorRequest{N: base.N, A: base.A})
			if err != nil {
				t.Fatal(err)
			}
			base = SolveRequest{Backend: "cg", Fingerprint: info.Fingerprint, Tol: base.Tol}
		}
		var frames []int64
		for i := 0; i < 3; i++ {
			req := base
			req.B = []float64{0.5, float64(i + 1)}
			before := s.jobs.Stats().WALRecords
			st, err := client.SubmitJob(ctx, JobSubmitRequest{Solve: &req})
			if err != nil {
				t.Fatal(err)
			}
			final, err := client.WaitJob(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if final.State != string(jobs.StateDone) {
				t.Fatalf("by-ref %v, job %d ended %s: %s", byRef, i, final.State, final.Error)
			}
			frames = append(frames, s.jobs.Stats().WALRecords-before)
		}
		if frames[0] != frames[1]+1 || frames[2] != frames[1] {
			t.Fatalf("by-ref %v: jobs journaled %v frames, want the first one more (its operator) and the rest equal", byRef, frames)
		}
		done()
	}
}
