package jobs

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Task is one leased job handed to Exec: the job, the context it runs
// under, and the outcome Exec records — Result, or a non-empty ErrCode
// (with ErrMsg) on failure. The context is cancelled when the job is
// cancelled, its lease is lost, or the worker pool is force-stopped; an
// Exec that honors it makes cancellation prompt.
type Task struct {
	Ctx     context.Context
	Job     *Job
	Result  []byte
	ErrCode string
	ErrMsg  string

	cancel context.CancelFunc
}

// Exec runs one leased group in one call — a job, plus the queued jobs
// sharing its affinity that the worker leased with it — and records
// every task's outcome before it returns.
type Exec func(group []*Task)

// Workers drives a queue with n executor goroutines plus a lease-expiry
// sweeper. Each worker leases a job and its queued affinity mates, marks
// them running, heartbeat-renews their leases at TTL/3 while Exec runs
// the group, and records each job's outcome. A worker (or the whole
// process) dying mid-group is recovered by lease expiry — live, by the
// sweeper; after a crash, by boot-time replay.
type Workers struct {
	q    *Queue
	exec Exec
	// execDelay is a fault-injection hook: every group waits this long
	// (context-aware) between leasing and executing, giving crash tests
	// a deterministic mid-flight window. Zero in production.
	execDelay time.Duration

	cancelLoops context.CancelFunc
	wg          sync.WaitGroup
}

// StartWorkers launches n workers over q. execDelay is the
// fault-injection hold described on Workers (zero for production).
func StartWorkers(q *Queue, n int, exec Exec, execDelay time.Duration) *Workers {
	ctx, cancel := context.WithCancel(context.Background())
	w := &Workers{q: q, exec: exec, execDelay: execDelay, cancelLoops: cancel}
	for i := 0; i < n; i++ {
		owner := fmt.Sprintf("worker-%d", i)
		w.wg.Add(1)
		go w.loop(ctx, owner)
	}
	if n > 0 {
		w.wg.Add(1)
		go w.sweep(ctx)
	}
	return w
}

// Stop ends the lease loops and waits for in-flight jobs to finish; if
// ctx expires first, running jobs' contexts are cancelled and the wait
// resumes until they acknowledge. Pair with Queue.Drain for the
// graceful path.
func (w *Workers) Stop(ctx context.Context) {
	w.cancelLoops()
	done := make(chan struct{})
	go func() {
		w.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		w.q.abortRunning()
		<-done
	}
}

// maxWaveMates bounds how many affinity-mates one group leases
// alongside the first job, so a wave never exceeds a full lane batch.
const maxWaveMates = 15

func (w *Workers) loop(ctx context.Context, owner string) {
	defer w.wg.Done()
	idle := time.NewTicker(250 * time.Millisecond)
	defer idle.Stop()
	for {
		j := w.q.Lease(owner)
		if j == nil {
			select {
			case <-ctx.Done():
				return
			case <-w.q.Wake():
			case <-w.q.Closed():
				return
			case <-idle.C: // re-check after lease expiries
			}
			continue
		}
		// Fingerprint-sticky dispatch: the job's queued operator-mates
		// join it in one Exec call, so the executor can seal their solves
		// into one wave.
		group := []*Job{j}
		if j.Affinity != 0 {
			group = append(group, w.q.LeaseMatching(owner, j.Affinity, maxWaveMates)...)
		}
		w.run(group, owner)
	}
}

// sweep re-queues expired leases on a cadence well under the TTL.
func (w *Workers) sweep(ctx context.Context) {
	defer w.wg.Done()
	period := w.q.cfg.LeaseTTL / 4
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-w.q.Closed():
			return
		case <-tick.C:
			w.q.ExpireLeases()
		}
	}
}

// run takes one leased group through the run lifecycle. Every job keeps
// its own: a cancel hook, the move to running, a lease renewal on each
// heartbeat, and the outcome record.
func (w *Workers) run(group []*Job, owner string) {
	tasks := make([]*Task, 0, len(group))
	for _, j := range group {
		// A job context is deliberately not derived from the loop context:
		// stopping intake must not abort work already leased. It is
		// cancelled by Queue.Cancel (via the registered hook), by a failed
		// renewal, or by Stop's deadline enforcement.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		w.q.registerCancel(j.ID, cancel)
		defer w.q.unregisterCancel(j.ID)
		if err := w.q.Start(j.ID, owner); err != nil {
			continue // lease lost between Lease and Start
		}
		tasks = append(tasks, &Task{Ctx: ctx, Job: j, cancel: cancel})
	}

	// Heartbeat until the outcomes are recorded. A failed renewal means
	// the lease expired and was re-queued or re-leased: that job's answer
	// no longer counts, so stop burning time on it.
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		tick := time.NewTicker(w.q.cfg.LeaseTTL / 3)
		defer tick.Stop()
		for {
			select {
			case <-hbStop:
				return
			case <-tick.C:
				for _, t := range tasks {
					if err := w.q.Renew(t.Job.ID, owner); err != nil {
						t.cancel()
					}
				}
			}
		}
	}()

	if w.execDelay > 0 {
		// The hold ends early only once every job is cancelled.
		hold, cancel := context.WithTimeout(context.Background(), w.execDelay)
		for _, t := range tasks {
			select {
			case <-t.Ctx.Done():
			case <-hold.Done():
			}
		}
		cancel()
	}

	var live []*Task
	for _, t := range tasks {
		if t.Ctx.Err() == nil {
			live = append(live, t)
			continue
		}
		t.ErrCode, t.ErrMsg = "cancelled", "cancelled before execution"
	}
	if len(live) > 0 {
		w.exec(live)
	}
	close(hbStop)
	hbWG.Wait()

	for _, t := range tasks {
		if t.ErrCode == "" {
			// ErrNotOwner means the lease expired mid-run and the job moved
			// on; the discarded outcome is by design (current owner wins).
			_ = w.q.Complete(t.Job.ID, owner, t.Result)
		} else {
			_ = w.q.Fail(t.Job.ID, owner, t.ErrCode, t.ErrMsg)
		}
	}
}
