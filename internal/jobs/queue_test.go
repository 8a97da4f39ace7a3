package jobs

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock is a hand-advanced clock for deterministic lease expiry.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func TestStateMachineEdges(t *testing.T) {
	legal := map[[2]State]bool{
		{StateQueued, StateLeased}:     true,
		{StateQueued, StateCancelled}:  true,
		{StateLeased, StateRunning}:    true,
		{StateLeased, StateQueued}:     true,
		{StateLeased, StateCancelled}:  true,
		{StateLeased, StateFailed}:     true,
		{StateRunning, StateDone}:      true,
		{StateRunning, StateFailed}:    true,
		{StateRunning, StateCancelled}: true,
		{StateRunning, StateQueued}:    true,
	}
	all := []State{StateQueued, StateLeased, StateRunning, StateDone, StateFailed, StateCancelled}
	for _, from := range all {
		for _, to := range all {
			if got := validNext(from, to); got != legal[[2]State{from, to}] {
				t.Errorf("validNext(%s, %s) = %v", from, to, got)
			}
		}
	}
}

func TestLeaseExpiryRequeueDeterminism(t *testing.T) {
	clock := newFakeClock()
	q := mustOpen(t, Config{LeaseTTL: time.Second, Clock: clock.Now})
	var ids []string
	for i := 0; i < 3; i++ {
		ids = append(ids, mustSubmit(t, q, "a", uint64(i+1), "p").ID)
	}
	// Lease all three to workers that then go silent.
	for i := 0; i < 3; i++ {
		j := q.Lease(fmt.Sprintf("w%d", i))
		if j == nil || j.ID != ids[i] {
			t.Fatalf("lease %d: got %+v, want %s", i, j, ids[i])
		}
	}
	if n := q.ExpireLeases(); n != 0 {
		t.Fatalf("expired %d leases before the TTL", n)
	}
	// One renewal keeps a lease alive across the first expiry horizon.
	clock.Advance(700 * time.Millisecond)
	if err := q.Renew(ids[1], "w1"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(600 * time.Millisecond) // w0, w2 expired; w1 renewed
	if n := q.ExpireLeases(); n != 2 {
		t.Fatalf("expired %d leases, want 2", n)
	}
	// Re-queues preserve submit order: ids[0] before ids[2]. The re-lease
	// is attempt 2 — attempt counts survive the round trip.
	j := q.Lease("w3")
	if j == nil || j.ID != ids[0] || j.Attempts != 2 {
		t.Fatalf("first re-lease: %+v, want %s on attempt 2", j, ids[0])
	}
	if j2 := q.Lease("w4"); j2 == nil || j2.ID != ids[2] {
		t.Fatalf("second re-lease: %+v, want %s", j2, ids[2])
	}
	// The renewed lease is untouched.
	if g, _ := q.Get(ids[1]); g.State != StateLeased || g.LeaseOwner != "w1" {
		t.Fatalf("renewed lease disturbed: %+v", g)
	}
	if s := q.Stats(); s.LeaseExpired != 2 {
		t.Fatalf("lease expired counter = %d, want 2", s.LeaseExpired)
	}
}

func TestDuplicateSubmitDedup(t *testing.T) {
	q := mustOpen(t, Config{LeaseTTL: time.Second})
	j := mustSubmit(t, q, "a", 42, "p")

	// Dedup against a live (queued) job.
	dup, err := q.Submit(Submission{Tenant: "a", Kind: "solve", Fingerprint: 42, Payload: []byte("p")})
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped || dup.ID != j.ID {
		t.Fatalf("live dedup: %+v", dup)
	}

	// Complete it; dedup now serves the stored result without re-running.
	if got := q.Lease("w0"); got == nil || got.ID != j.ID {
		t.Fatal("lease failed")
	}
	if err := q.Start(j.ID, "w0"); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(j.ID, "w0", []byte("the answer")); err != nil {
		t.Fatal(err)
	}
	dup2, err := q.Submit(Submission{Tenant: "b", Kind: "solve", Fingerprint: 42, Payload: []byte("p")})
	if err != nil {
		t.Fatal(err)
	}
	if !dup2.Deduped || dup2.ID != j.ID || dup2.State != StateDone || string(dup2.Result) != "the answer" {
		t.Fatalf("done dedup: %+v", dup2)
	}
	if s := q.Stats(); s.Deduped != 2 || s.Submitted != 1 {
		t.Fatalf("stats: %+v", s)
	}

	// A different kind with the same fingerprint is NOT deduplicated.
	other, err := q.Submit(Submission{Tenant: "a", Kind: "batch", Fingerprint: 42, Payload: []byte("p")})
	if err != nil {
		t.Fatal(err)
	}
	if other.Deduped {
		t.Fatal("cross-kind dedup")
	}
	if got := q.Lease("w1"); got == nil || got.ID != other.ID {
		t.Fatalf("lease: %+v", got)
	}
	if err := q.Start(other.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(other.ID, "w1", []byte("r2")); err != nil {
		t.Fatal(err)
	}

	// A failed job does not answer duplicates: the retry runs.
	jf := mustSubmit(t, q, "a", 99, "p")
	if got := q.Lease("w1"); got == nil || got.ID != jf.ID {
		t.Fatalf("lease: %+v", got)
	}
	if err := q.Fail(jf.ID, "w1", "solve_failed", "boom"); err != nil {
		t.Fatal(err)
	}
	again, err := q.Submit(Submission{Tenant: "a", Kind: "solve", Fingerprint: 99, Payload: []byte("p")})
	if err != nil {
		t.Fatal(err)
	}
	if again.Deduped || again.ID == jf.ID {
		t.Fatalf("failed job answered a duplicate: %+v", again)
	}
}

// TestOpenCreatesJournalDirectory: `alad -store /var/lib/alad/jobs.wal`
// on a fresh host must not require the operator to mkdir first.
func TestOpenCreatesJournalDirectory(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nested", "dir", "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	j := mustSubmit(t, q, "a", 3, "p")
	q.Close()

	q2 := mustOpen(t, testConfig(t, path))
	defer q2.Close()
	if got, ok := q2.Get(j.ID); !ok || got.State != StateQueued {
		t.Fatalf("after restart: job %+v, ok %v", got, ok)
	}
}

func TestDedupSurvivesRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	j := mustSubmit(t, q, "a", 7, "p")
	q.Lease("w0")
	if err := q.Start(j.ID, "w0"); err != nil {
		t.Fatal(err)
	}
	if err := q.Complete(j.ID, "w0", []byte("r")); err != nil {
		t.Fatal(err)
	}
	q.Close()

	q2 := mustOpen(t, testConfig(t, path))
	dup, err := q2.Submit(Submission{Tenant: "a", Kind: "solve", Fingerprint: 7, Payload: []byte("p")})
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped || dup.ID != j.ID || string(dup.Result) != "r" {
		t.Fatalf("dedup after restart: %+v", dup)
	}
}

func TestCrashReplayReclaimsLeases(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	j1 := mustSubmit(t, q, "a", 1, "p1")
	j2 := mustSubmit(t, q, "a", 2, "p2")
	q.Lease("w0")
	if err := q.Start(j1.ID, "w0"); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no Complete — reopen the journal cold.
	q2 := mustOpen(t, testConfig(t, path))
	g1, _ := q2.Get(j1.ID)
	if g1 == nil || g1.State != StateQueued || g1.Attempts != 1 || g1.LeaseOwner != "" {
		t.Fatalf("orphaned lease not reclaimed: %+v", g1)
	}
	if s := q2.Stats(); s.LeaseExpired != 1 || s.Queued != 2 {
		t.Fatalf("stats after crash replay: %+v", s)
	}
	// Replay order: j1 (earlier submit) leases before j2.
	if got := q2.Lease("w0"); got == nil || got.ID != j1.ID {
		t.Fatalf("first lease after replay: %+v, want %s", got, j1.ID)
	}
	if got := q2.Lease("w0"); got == nil || got.ID != j2.ID {
		t.Fatalf("second lease after replay: %+v, want %s", got, j2.ID)
	}
}

func TestCancelRequestedSurvivesCrash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "jobs.wal")
	q := mustOpen(t, testConfig(t, path))
	j := mustSubmit(t, q, "a", 1, "p")
	q.Lease("w0")
	if _, err := q.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	// Crash before the worker acknowledges: recovery must land the job
	// in cancelled, not re-run work nobody wants.
	q2 := mustOpen(t, testConfig(t, path))
	g, _ := q2.Get(j.ID)
	if g == nil || g.State != StateCancelled {
		t.Fatalf("cancel lost in crash: %+v", g)
	}
}

func TestCancelLifecycle(t *testing.T) {
	q := mustOpen(t, Config{LeaseTTL: time.Second})
	// Queued: cancels immediately.
	j1 := mustSubmit(t, q, "a", 1, "p")
	got, err := q.Cancel(j1.ID)
	if err != nil || got.ID != j1.ID {
		t.Fatal(err)
	}
	if g, _ := q.Get(j1.ID); g.State != StateCancelled {
		t.Fatalf("queued cancel: %+v", g)
	}
	if q.Lease("w0") != nil {
		t.Fatal("cancelled job leased")
	}

	// Running: the registered context hook fires, the worker's Fail is
	// recorded as cancelled.
	j2 := mustSubmit(t, q, "a", 2, "p")
	q.Lease("w0")
	if err := q.Start(j2.ID, "w0"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	q.registerCancel(j2.ID, cancel)
	if _, err := q.Cancel(j2.ID); err != nil {
		t.Fatal(err)
	}
	if ctx.Err() == nil {
		t.Fatal("cancel hook not invoked")
	}
	if err := q.Fail(j2.ID, "w0", "cancelled", "ctx cancelled"); err != nil {
		t.Fatal(err)
	}
	if g, _ := q.Get(j2.ID); g.State != StateCancelled {
		t.Fatalf("running cancel: %+v", g)
	}
	if s := q.Stats(); s.CancelledTot != 2 || s.FailedTotal != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestTenantFairSchedulingAndQuota(t *testing.T) {
	q := mustOpen(t, Config{LeaseTTL: time.Second, TenantQuota: 4})
	var a, b []string
	for i := 0; i < 4; i++ {
		a = append(a, mustSubmit(t, q, "alice", uint64(10+i), "p").ID)
	}
	for i := 0; i < 2; i++ {
		b = append(b, mustSubmit(t, q, "bob", uint64(20+i), "p").ID)
	}
	// Round-robin: alice and bob alternate while both have work, then
	// alice drains her backlog.
	want := []string{a[0], b[0], a[1], b[1], a[2], a[3]}
	for i, id := range want {
		j := q.Lease("w")
		if j == nil || j.ID != id {
			t.Fatalf("lease %d: got %+v, want %s", i, j, id)
		}
	}

	// alice holds 4 live jobs = her quota; the fifth submission bounces.
	if _, err := q.Submit(Submission{Tenant: "alice", Kind: "solve", Fingerprint: 30, Payload: []byte("p")}); !errors.Is(err, ErrQuota) {
		t.Fatalf("quota not enforced: %v", err)
	}
	// bob is under quota and unaffected.
	if _, err := q.Submit(Submission{Tenant: "bob", Kind: "solve", Fingerprint: 31, Payload: []byte("p")}); err != nil {
		t.Fatalf("bob blocked by alice's quota: %v", err)
	}
}

func TestBacklogBound(t *testing.T) {
	q := mustOpen(t, Config{LeaseTTL: time.Second, MaxQueued: 2})
	mustSubmit(t, q, "a", 1, "p")
	mustSubmit(t, q, "a", 2, "p")
	if _, err := q.Submit(Submission{Tenant: "a", Kind: "solve", Fingerprint: 3, Payload: []byte("p")}); !errors.Is(err, ErrBacklog) {
		t.Fatalf("backlog not enforced: %v", err)
	}
}

// TestLeaseRelaysWake pins the wake relay: two submissions leave one
// token in the capacity-1 wake channel, and the worker that consumes it
// and leases the first job must leave a token for the second, or an idle
// worker sleeps through queued work until its idle tick.
func TestLeaseRelaysWake(t *testing.T) {
	q := mustOpen(t, Config{LeaseTTL: time.Second})
	mustSubmit(t, q, "a", 1, "p")
	mustSubmit(t, q, "a", 2, "p")
	<-q.Wake()
	if j := q.Lease("w0"); j == nil {
		t.Fatal("lease returned nil with two jobs queued")
	}
	select {
	case <-q.Wake():
	default:
		t.Fatal("a job is still queued but no wake token is waiting")
	}
	if j := q.Lease("w1"); j == nil {
		t.Fatal("second lease returned nil")
	}
	select {
	case <-q.Wake():
		t.Fatal("wake token left with nothing queued")
	default:
	}
}

// TestLeaseMatchingRelaysWake pins where the relay goes for a job with
// an affinity: not at Lease, where a woken worker could lease one of its
// queued mates out of the wave, but after LeaseMatching drains them.
func TestLeaseMatchingRelaysWake(t *testing.T) {
	q := mustOpen(t, Config{LeaseTTL: time.Second})
	for fp := uint64(1); fp <= 2; fp++ {
		if _, err := q.Submit(Submission{Tenant: "a", Kind: "solve", Fingerprint: fp, Affinity: 7, Payload: []byte("mate")}); err != nil {
			t.Fatal(err)
		}
	}
	mustSubmit(t, q, "a", 3, "other")
	<-q.Wake()
	if j := q.Lease("w0"); j == nil || j.Affinity != 7 {
		t.Fatalf("lease = %+v, want the first affinity-7 job", j)
	}
	select {
	case <-q.Wake():
		t.Fatal("wake token passed on before the mates were drained")
	default:
	}
	if mates := q.LeaseMatching("w0", 7, 15); len(mates) != 1 {
		t.Fatalf("LeaseMatching drained %d mates, want 1", len(mates))
	}
	select {
	case <-q.Wake():
	default:
		t.Fatal("a job is still queued but no wake token is waiting")
	}
}

func TestStaleOwnerResultDiscarded(t *testing.T) {
	clock := newFakeClock()
	q := mustOpen(t, Config{LeaseTTL: time.Second, Clock: clock.Now})
	j := mustSubmit(t, q, "a", 1, "p")
	q.Lease("w0")
	if err := q.Start(j.ID, "w0"); err != nil {
		t.Fatal(err)
	}
	clock.Advance(2 * time.Second)
	q.ExpireLeases()
	q.Lease("w1") // re-leased by a live worker
	if err := q.Start(j.ID, "w1"); err != nil {
		t.Fatal(err)
	}
	// The zombie's answer bounces; the job is not corrupted.
	if err := q.Complete(j.ID, "w0", []byte("stale")); !errors.Is(err, ErrNotOwner) {
		t.Fatalf("stale complete: %v", err)
	}
	if err := q.Complete(j.ID, "w1", []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if g, _ := q.Get(j.ID); string(g.Result) != "fresh" {
		t.Fatalf("result: %q", g.Result)
	}
}

func TestRetentionEviction(t *testing.T) {
	q := mustOpen(t, Config{LeaseTTL: time.Second, RetainDone: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		j := mustSubmit(t, q, "a", uint64(i+1), "p")
		ids = append(ids, j.ID)
		q.Lease("w")
		if err := q.Start(j.ID, "w"); err != nil {
			t.Fatal(err)
		}
		if err := q.Complete(j.ID, "w", []byte("r")); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := q.Get(ids[0]); ok {
		t.Fatal("oldest terminal job not evicted")
	}
	if _, ok := q.Get(ids[3]); !ok {
		t.Fatal("newest terminal job evicted")
	}
	// An evicted fingerprint no longer answers duplicates.
	if dup, _ := q.Submit(Submission{Tenant: "a", Kind: "solve", Fingerprint: 1, Payload: []byte("p")}); dup == nil || dup.Deduped {
		t.Fatalf("evicted job still deduplicating: %+v", dup)
	}
}

func TestWorkersEndToEnd(t *testing.T) {
	q := mustOpen(t, Config{LeaseTTL: 500 * time.Millisecond})
	exec := func(group []*Task) {
		for _, task := range group {
			if string(task.Job.Payload) == "fail" {
				task.ErrCode, task.ErrMsg = "solve_failed", "asked to fail"
				continue
			}
			task.Result = append([]byte("ok:"), task.Job.Payload...)
		}
	}
	w := StartWorkers(q, 3, exec, 0)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w.Stop(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var ids []string
	for i := 0; i < 8; i++ {
		payload := fmt.Sprintf("p%d", i)
		if i == 5 {
			payload = "fail"
		}
		ids = append(ids, mustSubmit(t, q, fmt.Sprintf("t%d", i%2), uint64(i+1), payload).ID)
	}
	for i, id := range ids {
		j, err := q.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if i == 5 {
			if j.State != StateFailed || j.ErrCode != "solve_failed" {
				t.Fatalf("job %d: %+v", i, j)
			}
			continue
		}
		if j.State != StateDone || string(j.Result) != fmt.Sprintf("ok:p%d", i) {
			t.Fatalf("job %d: state=%s result=%q err=%s", i, j.State, j.Result, j.ErrMsg)
		}
	}
	if s := q.Stats(); s.Completed != 7 || s.FailedTotal != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestWorkerCancellationMidRun(t *testing.T) {
	q := mustOpen(t, Config{LeaseTTL: time.Second})
	started := make(chan string, 1)
	exec := func(group []*Task) {
		task := group[0]
		started <- task.Job.ID
		<-task.Ctx.Done()
		task.ErrCode, task.ErrMsg = "cancelled", task.Ctx.Err().Error()
	}
	w := StartWorkers(q, 1, exec, 0)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w.Stop(ctx)
	}()

	j := mustSubmit(t, q, "a", 1, "p")
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the job")
	}
	if _, err := q.Cancel(j.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	got, err := q.Wait(ctx, j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", got.State)
	}
}

// TestWorkersExecLeasedGroup shows a worker handing a leased job and the
// queued jobs sharing its affinity to Exec in one call, up to a full lane
// batch: with seventeen affinity-7 jobs and one affinity-9 job queued
// before the only worker starts, Exec sees the first sixteen affinity-7
// jobs as one group, then the affinity-9 job, then the seventeenth. Each
// job still records its own outcome.
func TestWorkersExecLeasedGroup(t *testing.T) {
	q := mustOpen(t, Config{LeaseTTL: time.Second})
	var hot []string
	other := ""
	for i := 0; i < 18; i++ {
		affinity := uint64(7)
		if i == 1 {
			affinity = 9
		}
		j, err := q.Submit(Submission{Tenant: "a", Kind: "solve", Fingerprint: uint64(i + 1), Affinity: affinity, Payload: []byte(fmt.Sprintf("p%d", i))})
		if err != nil {
			t.Fatal(err)
		}
		if affinity == 9 {
			other = j.ID
		} else {
			hot = append(hot, j.ID)
		}
	}
	var (
		mu     sync.Mutex
		groups [][]string
	)
	exec := func(group []*Task) {
		ids := make([]string, len(group))
		for i, task := range group {
			ids[i] = task.Job.ID
			task.Result = append([]byte("ok:"), task.Job.Payload...)
		}
		mu.Lock()
		groups = append(groups, ids)
		mu.Unlock()
	}
	w := StartWorkers(q, 1, exec, 0)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w.Stop(ctx)
	}()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, id := range append(hot, other) {
		j, err := q.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if j.State != StateDone || !strings.HasPrefix(string(j.Result), "ok:p") {
			t.Fatalf("job %s: state=%s result=%q", id, j.State, j.Result)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	want := [][]string{hot[:16], {other}, hot[16:]}
	if fmt.Sprint(groups) != fmt.Sprint(want) {
		t.Fatalf("Exec saw groups %v, want %v", groups, want)
	}
}

func TestWaitHonorsContext(t *testing.T) {
	q := mustOpen(t, Config{LeaseTTL: time.Second})
	j := mustSubmit(t, q, "a", 1, "p")
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := q.Wait(ctx, j.ID); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("wait: %v", err)
	}
	// The dangling waiter was removed.
	q.mu.Lock()
	n := len(q.waiters[j.ID])
	q.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d waiters leaked", n)
	}
}

// TestOperatorHoldsUnderConcurrency races submissions on three shared
// operators against workers finishing their jobs. Each submitter sends
// the operator's bytes only after the queue refuses a bytes-less
// submission (ErrNoOperator), as serve does; every executing job must
// read its operator back, and once every job is done, live and replayed,
// nothing stays held.
func TestOperatorHoldsUnderConcurrency(t *testing.T) {
	cfg := Config{Path: filepath.Join(t.TempDir(), "jobs.wal"), LeaseTTL: time.Second}
	q := mustOpen(t, cfg)
	opBytes := func(op uint64) []byte { return []byte(fmt.Sprintf("operator-%d", op)) }
	w := StartWorkers(q, 2, func(group []*Task) {
		for _, task := range group {
			if b, ok := q.Operator(task.Job.Operator); !ok || string(b) != string(opBytes(task.Job.Operator)) {
				task.ErrCode, task.ErrMsg = "no_operator", fmt.Sprintf("operator %d read as %q (held %v)", task.Job.Operator, b, ok)
				continue
			}
			task.Result = []byte("ok")
		}
	}, 0)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		w.Stop(ctx)
	}()

	const submitters, each = 4, 25
	ids := make(chan string, submitters*each)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				op := uint64(1 + (g+i)%3)
				s := Submission{Tenant: "a", Kind: "solve", Fingerprint: uint64(1000*g + i + 1), Affinity: op, Operator: op, Payload: []byte("p")}
				j, err := q.Submit(s)
				if errors.Is(err, ErrNoOperator) {
					s.OperatorBytes = opBytes(op)
					j, err = q.Submit(s)
				}
				if err != nil {
					t.Errorf("submit %d/%d: %v", g, i, err)
					return
				}
				ids <- j.ID
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for id := range ids {
		j, err := q.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if j.State != StateDone {
			t.Fatalf("job %s ended %s: %s", id, j.State, j.ErrMsg)
		}
	}
	if s := q.Stats(); s.Operators != 0 || s.Completed != submitters*each {
		t.Fatalf("after every job finished: %d operators held, %d completed", s.Operators, s.Completed)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	q2 := mustOpen(t, cfg)
	if s := q2.Stats(); s.Operators != 0 || s.Done != submitters*each {
		t.Fatalf("after replay: %d operators held, %d done", s.Operators, s.Done)
	}
}
