package jobs

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"analogacc/internal/journal"
)

// Config sizes a queue. The zero value gives a memory-only queue with
// the defaults below.
type Config struct {
	// Path is the journal file ("" = memory-only: the full lifecycle
	// works but nothing survives a restart).
	Path string
	// LeaseTTL is how long a worker owns a job between heartbeats
	// (default 10s). A lease that is not renewed within the TTL expires
	// and the job re-queues.
	LeaseTTL time.Duration
	// MaxQueued caps pending (queued-state) jobs; submissions beyond it
	// fail with ErrBacklog — the async analogue of the 429 path
	// (default 256).
	MaxQueued int
	// TenantQuota caps one tenant's live (non-terminal) jobs; beyond it
	// submissions fail with ErrQuota (default 0 = unlimited).
	TenantQuota int
	// RetainDone caps terminal jobs kept for dedup and history; the
	// oldest are evicted beyond it (default 512).
	RetainDone int
	// Clock injects time for tests (default time.Now).
	Clock func() time.Time
	// OnTerminal, when set, observes every live terminal transition
	// (done, failed, cancelled) with a copy of the job. It runs under the
	// queue lock and must not call back into the queue; alad uses it to
	// release operator-registry pins held by by-reference payloads. Boot
	// replay does not fire it — replayed terminal jobs finished in a
	// previous process whose pins died with it.
	OnTerminal func(j *Job)
}

func (c Config) withDefaults() Config {
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 10 * time.Second
	}
	if c.MaxQueued <= 0 {
		c.MaxQueued = 256
	}
	if c.RetainDone <= 0 {
		c.RetainDone = 512
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	return c
}

// Stats is a point-in-time snapshot of the queue for metrics surfaces.
// State counts are gauges; the rest are process-lifetime counters
// (journal replay restores jobs, not counters).
type Stats struct {
	Queued    int
	Leased    int
	Running   int
	Done      int
	Failed    int
	Cancelled int

	Submitted    int64
	Completed    int64
	FailedTotal  int64
	CancelledTot int64
	// LeaseExpired counts re-queues: live expiries plus boot-time
	// reclamation of leases orphaned by a crash.
	LeaseExpired int64
	// Replayed counts jobs restored from the journal at boot.
	Replayed int64
	// Deduped counts submissions answered by an existing job.
	Deduped     int64
	Compactions int64
	// TornDropped counts torn tail records dropped during replay.
	TornDropped int64
	WALRecords  int64
	WALBytes    int64
}

// Queue is the durable job queue. All methods are safe for concurrent
// use. Create with Open; stop with Close.
type Queue struct {
	cfg Config

	mu   sync.Mutex
	log  *journal.Log // nil in memory-only mode
	jobs map[string]*Job
	// pending holds queued job IDs per tenant, each FIFO by SubmitSeq;
	// rrOrder/rrNext implement round-robin fairness across tenants
	// (rotation order = tenant first-submission order, never reshuffled,
	// so scheduling is deterministic).
	pending map[string][]string
	rrOrder []string
	rrNext  int
	// live counts non-terminal jobs per tenant (quota enforcement).
	live map[string]int
	// byFP indexes the most recent job per fingerprint (dedup).
	byFP map[uint64]string
	// doneOrder tracks terminal jobs oldest-first for retention.
	doneOrder []string
	nextSeq   uint64
	paused    bool
	closed    bool

	// waiters are long-poll channels resolved at terminal transitions.
	waiters map[string][]chan *Job
	// cancels are live cancellation hooks registered by workers.
	cancels map[string]context.CancelFunc
	// wake nudges idle workers when work arrives (capacity 1).
	wake     chan struct{}
	closedCh chan struct{}

	submitted, completed, failedTot, cancelledTot int64
	leaseExpired, replayed, deduped, compactions  int64
	tornDropped, walRecords                       int64
}

// Open loads (or creates) the queue at cfg.Path: replay, lease
// reclamation, then snapshot compaction. Damage anywhere but a torn
// final frame, or a record that does not decode or apply, fails Open and
// leaves the journal as it was.
func Open(cfg Config) (*Queue, error) {
	cfg = cfg.withDefaults()
	q := &Queue{
		cfg:      cfg,
		jobs:     make(map[string]*Job),
		pending:  make(map[string][]string),
		live:     make(map[string]int),
		byFP:     make(map[uint64]string),
		waiters:  make(map[string][]chan *Job),
		cancels:  make(map[string]context.CancelFunc),
		wake:     make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
	if cfg.Path == "" {
		return q, nil
	}
	if dir := filepath.Dir(cfg.Path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("jobs: creating journal directory: %w", err)
		}
	}
	frames, err := q.replay(cfg.Path)
	if err != nil {
		return nil, err
	}
	recs := q.snapshotRecords()
	q.log, err = journal.Create(cfg.Path, walMagic, len(recs), func(i int) ([]byte, error) {
		return json.Marshal(&recs[i])
	})
	if err != nil {
		return nil, fmt.Errorf("jobs: compacting journal: %w", err)
	}
	q.walRecords = int64(len(recs))
	if frames > 0 {
		q.compactions++
	}
	return q, nil
}

// replay streams the journal at path through applyLocked, then reclaims
// orphaned leases: the process that held every lease is the one that
// died, so leased/running jobs go back to queued (or to cancelled if
// their cancellation was already requested) with attempts preserved.
func (q *Queue) replay(path string) (frames int, err error) {
	torn, err := journal.Read(path, walMagic, func(payload []byte) error {
		frames++
		var rec walRecord
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("undecodable record: %v", err)
		}
		if rec.Op == opMeta {
			if rec.NextSeq > q.nextSeq {
				q.nextSeq = rec.NextSeq
			}
			return nil
		}
		if err := q.applyLocked(&rec); err != nil {
			return fmt.Errorf("%s %s: %w", rec.Op, rec.ID, err)
		}
		if rec.Seq >= q.nextSeq {
			q.nextSeq = rec.Seq + 1
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("jobs: replaying journal: %w", err)
	}
	q.tornDropped = int64(torn)
	q.replayed = int64(len(q.jobs))

	// Reclaim orphaned leases deterministically (submit order).
	var orphaned []*Job
	for _, j := range q.jobs {
		if j.State == StateLeased || j.State == StateRunning {
			orphaned = append(orphaned, j)
		}
	}
	sort.Slice(orphaned, func(a, b int) bool { return orphaned[a].SubmitSeq < orphaned[b].SubmitSeq })
	for _, j := range orphaned {
		op := opRequeue
		if j.CancelRequested {
			op = opCancel
		}
		rec := &walRecord{Seq: q.nextSeq, Op: op, ID: j.ID, NowNs: j.UpdatedNs}
		q.nextSeq++
		if err := q.applyLocked(rec); err != nil {
			return 0, fmt.Errorf("jobs: reclaiming lease of %s: %w", j.ID, err)
		}
		q.leaseExpired++
	}

	// Retention applies across restarts too: a replayed journal may hold
	// more terminal jobs than the configured cap.
	sort.Slice(q.doneOrder, func(a, b int) bool {
		return q.jobs[q.doneOrder[a]].SubmitSeq < q.jobs[q.doneOrder[b]].SubmitSeq
	})
	q.evictDoneLocked()
	return frames, nil
}

// snapshotRecords renders live state as a compact journal: one meta
// record, then every retained job as a snap record in submit order.
func (q *Queue) snapshotRecords() []walRecord {
	all := make([]*Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		all = append(all, j)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].SubmitSeq < all[b].SubmitSeq })
	recs := make([]walRecord, 0, len(all)+1)
	recs = append(recs, walRecord{Op: opMeta, NextSeq: q.nextSeq})
	for _, j := range all {
		recs = append(recs, walRecord{Seq: j.SubmitSeq, Op: opSnap, ID: j.ID, Job: j})
	}
	return recs
}

// transitions maps each patch op to the state it moves a job into;
// cancel_req only flags the job. checkLocked and applyLocked share it.
var transitions = map[string]State{
	opLease: StateLeased, opStart: StateRunning, opRequeue: StateQueued,
	opDone: StateDone, opFail: StateFailed, opCancel: StateCancelled,
}

// checkLocked validates a record against the state machine without
// applying it, so commit can journal a transition before making it.
func (q *Queue) checkLocked(rec *walRecord) error {
	if rec.Op == opSubmit || rec.Op == opSnap {
		if rec.Job == nil {
			return fmt.Errorf("%s record without job", rec.Op)
		}
		return nil
	}
	j, ok := q.jobs[rec.ID]
	if !ok {
		return ErrNotFound
	}
	to, ok := transitions[rec.Op]
	switch {
	case rec.Op == opCancelReq:
		return nil
	case !ok:
		return fmt.Errorf("unknown op %q", rec.Op)
	case !validNext(j.State, to):
		return fmt.Errorf("%w: %s → %s", ErrBadTransition, j.State, to)
	}
	return nil
}

// applyLocked is the single source of truth for state mutation: live
// operations check a record, journal it, then apply it (commit); replay
// applies the same records. It validates every edge against the state
// machine.
func (q *Queue) applyLocked(rec *walRecord) error {
	if err := q.checkLocked(rec); err != nil {
		return err
	}
	if rec.Op == opSubmit || rec.Op == opSnap {
		j := rec.Job.clone()
		q.jobs[j.ID] = j
		if j.SubmitSeq >= q.nextSeq {
			q.nextSeq = j.SubmitSeq + 1
		}
		q.noteTenantLocked(j.Tenant)
		if !j.State.Terminal() {
			q.live[j.Tenant]++
		} else {
			q.doneOrder = append(q.doneOrder, j.ID)
		}
		if j.State == StateQueued {
			q.enqueueLocked(j)
		}
		// Last submission wins the fingerprint index (snap replays in
		// submit order, so this matches live history).
		q.byFP[j.Fingerprint] = j.ID
		return nil
	}

	j := q.jobs[rec.ID]
	if rec.Op == opCancelReq {
		j.CancelRequested = true
		j.UpdatedNs = rec.NowNs
		return nil
	}
	to := transitions[rec.Op]
	if j.State == StateQueued {
		q.dequeueLocked(j)
	}
	from := j.State
	j.State = to
	j.UpdatedNs = rec.NowNs
	switch rec.Op {
	case opLease:
		j.LeaseOwner = rec.Owner
		j.LeaseExpiryNs = rec.ExpiryNs
		j.Attempts++
	case opRequeue:
		j.LeaseOwner = ""
		j.LeaseExpiryNs = 0
		q.enqueueLocked(j)
	case opDone:
		j.Result = rec.Result
		j.LeaseOwner = ""
		j.LeaseExpiryNs = 0
	case opFail, opCancel:
		j.ErrCode = rec.ErrCode
		j.ErrMsg = rec.ErrMsg
		j.LeaseOwner = ""
		j.LeaseExpiryNs = 0
	}
	if to.Terminal() && !from.Terminal() {
		q.live[j.Tenant]--
		q.doneOrder = append(q.doneOrder, j.ID)
	}
	return nil
}

func (q *Queue) noteTenantLocked(tenant string) {
	if _, seen := q.pending[tenant]; !seen {
		q.pending[tenant] = nil
		q.rrOrder = append(q.rrOrder, tenant)
	}
}

func (q *Queue) enqueueLocked(j *Job) {
	q.noteTenantLocked(j.Tenant)
	ids := q.pending[j.Tenant]
	// Insert by SubmitSeq: re-queues land back at their original
	// position, so lease expiry never reorders a tenant's backlog.
	at := sort.Search(len(ids), func(i int) bool {
		return q.jobs[ids[i]].SubmitSeq > j.SubmitSeq
	})
	ids = append(ids, "")
	copy(ids[at+1:], ids[at:])
	ids[at] = j.ID
	q.pending[j.Tenant] = ids
}

func (q *Queue) dequeueLocked(j *Job) {
	ids := q.pending[j.Tenant]
	for i, id := range ids {
		if id == j.ID {
			q.pending[j.Tenant] = append(ids[:i], ids[i+1:]...)
			return
		}
	}
}

func (q *Queue) queuedCountLocked() int {
	n := 0
	for _, ids := range q.pending {
		n += len(ids)
	}
	return n
}

// commit checks a record, journals it, then applies it: a transition
// whose append fails never becomes visible, so a retry after the error
// cannot dedup onto a job that was never journaled. sync=true forces an
// fsync (submissions, terminal outcomes, cancel requests).
func (q *Queue) commit(rec *walRecord, sync bool) error {
	if err := q.checkLocked(rec); err != nil {
		return err
	}
	if q.log != nil {
		payload, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("jobs: encoding wal record: %w", err)
		}
		if err := q.log.Append(sync, payload); err != nil {
			return fmt.Errorf("jobs: %w", err)
		}
		q.walRecords++
	}
	return q.applyLocked(rec)
}

// wakeWorkers nudges one idle worker without blocking.
func (q *Queue) wakeWorkers() {
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// Wake is the worker idle-wait channel: readable when work may have
// arrived.
func (q *Queue) Wake() <-chan struct{} { return q.wake }

// Closed is closed when the queue shuts down.
func (q *Queue) Closed() <-chan struct{} { return q.closedCh }

// Submit appends a new job. A submission whose fingerprint matches a
// live or completed job of the same kind is answered by that job (its
// copy has Deduped set) without enqueueing anything — completed results
// replay from the store instead of re-solving.
func (q *Queue) Submit(tenant, kind string, fingerprint uint64, payload []byte) (*Job, error) {
	return q.SubmitAffinity(tenant, kind, fingerprint, 0, payload)
}

// SubmitAffinity is Submit with a co-scheduling affinity (see
// Job.Affinity): workers drain queued same-affinity jobs together via
// LeaseMatching.
func (q *Queue) SubmitAffinity(tenant, kind string, fingerprint, affinity uint64, payload []byte) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	if id, ok := q.byFP[fingerprint]; ok {
		if j, ok := q.jobs[id]; ok && j.Kind == kind && j.State != StateFailed && j.State != StateCancelled {
			q.deduped++
			c := j.clone()
			c.Deduped = true
			return c, nil
		}
	}
	if q.queuedCountLocked() >= q.cfg.MaxQueued {
		return nil, ErrBacklog
	}
	if q.cfg.TenantQuota > 0 && q.live[tenant] >= q.cfg.TenantQuota {
		return nil, ErrQuota
	}
	now := q.cfg.Clock().UnixNano()
	seq := q.nextSeq
	j := &Job{
		ID:          fmt.Sprintf("j-%08x", seq),
		Tenant:      tenant,
		Kind:        kind,
		Fingerprint: fingerprint,
		Affinity:    affinity,
		Payload:     payload,
		State:       StateQueued,
		SubmitSeq:   seq,
		SubmittedNs: now,
		UpdatedNs:   now,
	}
	rec := &walRecord{Seq: seq, Op: opSubmit, NowNs: now, ID: j.ID, Job: j}
	q.nextSeq = seq + 1
	if err := q.commit(rec, true); err != nil {
		return nil, err
	}
	q.submitted++
	q.wakeWorkers()
	return j.clone(), nil
}

// Lease hands the next runnable job to owner, or nil when the queue is
// empty or paused. Scheduling is round-robin across tenants, FIFO by
// submit order within one. When work is left queued it passes the wake
// on: the wake channel holds one token, so submissions that land while
// no worker is parked collapse into one, and without the relay a second
// idle worker would sleep until its idle tick. For a job with an
// affinity the relay waits for LeaseMatching, which its worker calls
// next, so the worker it wakes does not lease one of the job's mates
// out of the wave.
func (q *Queue) Lease(owner string) *Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.paused {
		return nil
	}
	j := q.pickNextLocked()
	if j == nil {
		return nil
	}
	c := q.leaseLocked(j, owner)
	if c != nil && c.Affinity == 0 {
		q.relayWakeLocked()
	}
	return c
}

// relayWakeLocked passes the wake on while work is still queued.
func (q *Queue) relayWakeLocked() {
	if q.queuedCountLocked() > 0 {
		q.wakeWorkers()
	}
}

// leaseLocked journals and applies one lease transition for a queued job
// already picked under q.mu.
func (q *Queue) leaseLocked(j *Job, owner string) *Job {
	now := q.cfg.Clock()
	rec := &walRecord{
		Seq: q.nextSeq, Op: opLease, NowNs: now.UnixNano(), ID: j.ID,
		Owner: owner, ExpiryNs: now.Add(q.cfg.LeaseTTL).UnixNano(),
	}
	q.nextSeq++
	if err := q.commit(rec, false); err != nil {
		return nil
	}
	return j.clone()
}

// LeaseMatching hands owner up to max queued jobs sharing the given
// non-zero affinity, earliest submissions first across every tenant —
// the fingerprint-sticky half of wave scheduling: a worker that just
// leased a job calls this to drain its operator-mates into the same
// Exec call, where they join one wave together. Returns nil when
// nothing matches (or the queue is paused/closed). Once the mates are
// drained it passes the wake on if other work is still queued (see
// Lease).
func (q *Queue) LeaseMatching(owner string, affinity uint64, max int) []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.paused {
		return nil
	}
	var out []*Job
	for affinity != 0 && len(out) < max {
		var pick *Job
		for _, ids := range q.pending {
			// FIFO within a tenant: the first match is that tenant's
			// earliest; the global earliest wins across tenants.
			for _, id := range ids {
				if j := q.jobs[id]; j.Affinity == affinity {
					if pick == nil || j.SubmitSeq < pick.SubmitSeq {
						pick = j
					}
					break
				}
			}
		}
		if pick == nil {
			break
		}
		c := q.leaseLocked(pick, owner)
		if c == nil {
			break
		}
		out = append(out, c)
	}
	q.relayWakeLocked()
	return out
}

func (q *Queue) pickNextLocked() *Job {
	for i := 0; i < len(q.rrOrder); i++ {
		at := (q.rrNext + i) % len(q.rrOrder)
		if ids := q.pending[q.rrOrder[at]]; len(ids) > 0 {
			q.rrNext = at + 1
			return q.jobs[ids[0]]
		}
	}
	return nil
}

// Start moves a leased job to running.
func (q *Queue) Start(id, owner string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.ownedLocked(id, owner)
	if err != nil {
		return err
	}
	rec := &walRecord{Seq: q.nextSeq, Op: opStart, NowNs: q.cfg.Clock().UnixNano(), ID: j.ID}
	q.nextSeq++
	return q.commit(rec, false)
}

// Renew heartbeats a lease, pushing its expiry out one TTL. Renewals
// are process-local: a crash reclaims every lease at boot regardless.
func (q *Queue) Renew(id, owner string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.ownedLocked(id, owner)
	if err != nil {
		return err
	}
	j.LeaseExpiryNs = q.cfg.Clock().Add(q.cfg.LeaseTTL).UnixNano()
	return nil
}

func (q *Queue) ownedLocked(id, owner string) (*Job, error) {
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.State != StateLeased && j.State != StateRunning {
		return nil, fmt.Errorf("%w: job is %s", ErrNotOwner, j.State)
	}
	if j.LeaseOwner != owner {
		return nil, ErrNotOwner
	}
	return j, nil
}

// Complete records a job's result. A stale owner (lease expired and the
// job moved on) gets ErrNotOwner and its result is discarded — the
// current lease holder's answer is the one that counts.
func (q *Queue) Complete(id, owner string, result []byte) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.ownedLocked(id, owner)
	if err != nil {
		return err
	}
	rec := &walRecord{Seq: q.nextSeq, Op: opDone, NowNs: q.cfg.Clock().UnixNano(), ID: j.ID, Result: result}
	q.nextSeq++
	if err := q.commit(rec, true); err != nil {
		return err
	}
	q.completed++
	q.finishLocked(j)
	return nil
}

// Fail records a job's failure — or its cancellation, when the failure
// is the worker honoring a cancel request.
func (q *Queue) Fail(id, owner, code, msg string) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, err := q.ownedLocked(id, owner)
	if err != nil {
		return err
	}
	op := opFail
	if j.CancelRequested {
		op = opCancel
	}
	rec := &walRecord{Seq: q.nextSeq, Op: op, NowNs: q.cfg.Clock().UnixNano(), ID: j.ID, ErrCode: code, ErrMsg: msg}
	q.nextSeq++
	if err := q.commit(rec, true); err != nil {
		return err
	}
	if op == opCancel {
		q.cancelledTot++
	} else {
		q.failedTot++
	}
	q.finishLocked(j)
	return nil
}

// Cancel asks for a job's cancellation. Queued jobs cancel immediately;
// leased/running jobs get their worker's context cancelled and reach
// the cancelled state when the worker acknowledges (or, after a crash,
// when boot-time recovery sees the request). Terminal jobs are
// returned unchanged.
func (q *Queue) Cancel(id string) (*Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	now := q.cfg.Clock().UnixNano()
	switch j.State {
	case StateQueued:
		rec := &walRecord{Seq: q.nextSeq, Op: opCancel, NowNs: now, ID: j.ID, ErrCode: "cancelled", ErrMsg: "cancelled before execution"}
		q.nextSeq++
		if err := q.commit(rec, true); err != nil {
			return nil, err
		}
		q.cancelledTot++
		q.finishLocked(j)
	case StateLeased, StateRunning:
		if !j.CancelRequested {
			rec := &walRecord{Seq: q.nextSeq, Op: opCancelReq, NowNs: now, ID: j.ID}
			q.nextSeq++
			if err := q.commit(rec, true); err != nil {
				return nil, err
			}
		}
		if cancel, ok := q.cancels[id]; ok {
			cancel()
		}
	}
	return j.clone(), nil
}

// finishLocked runs terminal-transition bookkeeping: waiter resolution,
// the terminal observer, and retention eviction.
func (q *Queue) finishLocked(j *Job) {
	if chans := q.waiters[j.ID]; len(chans) > 0 {
		for _, ch := range chans {
			ch <- j.clone()
		}
		delete(q.waiters, j.ID)
	}
	if q.cfg.OnTerminal != nil {
		q.cfg.OnTerminal(j.clone())
	}
	q.evictDoneLocked()
}

// evictDoneLocked enforces terminal-job retention, oldest first.
func (q *Queue) evictDoneLocked() {
	for len(q.doneOrder) > q.cfg.RetainDone {
		victim := q.doneOrder[0]
		q.doneOrder = q.doneOrder[1:]
		if old, ok := q.jobs[victim]; ok {
			if q.byFP[old.Fingerprint] == victim {
				delete(q.byFP, old.Fingerprint)
			}
			delete(q.jobs, victim)
		}
	}
}

// ExpireLeases re-queues every leased/running job whose lease expiry
// has passed (its worker went silent). Returns how many re-queued.
func (q *Queue) ExpireLeases() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.cfg.Clock().UnixNano()
	var expired []*Job
	for _, j := range q.jobs {
		if (j.State == StateLeased || j.State == StateRunning) && j.LeaseExpiryNs < now {
			expired = append(expired, j)
		}
	}
	sort.Slice(expired, func(a, b int) bool { return expired[a].SubmitSeq < expired[b].SubmitSeq })
	n := 0
	for _, j := range expired {
		rec := &walRecord{Seq: q.nextSeq, Op: opRequeue, NowNs: now, ID: j.ID}
		op := opRequeue
		if j.CancelRequested {
			op = opCancel
			rec = &walRecord{Seq: q.nextSeq, Op: opCancel, NowNs: now, ID: j.ID,
				ErrCode: "cancelled", ErrMsg: "cancelled while lease expired"}
		}
		q.nextSeq++
		if err := q.commit(rec, false); err != nil {
			continue
		}
		q.leaseExpired++
		if op == opCancel {
			q.cancelledTot++
			q.finishLocked(j)
		}
		n++
	}
	if n > 0 {
		q.wakeWorkers()
	}
	return n
}

// Get returns a copy of one job.
func (q *Queue) Get(id string) (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, false
	}
	return j.clone(), true
}

// List returns copies of every job matching the filters (zero values
// match everything), newest submissions first.
func (q *Queue) List(tenant string, state State) []*Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	var out []*Job
	for _, j := range q.jobs {
		if tenant != "" && j.Tenant != tenant {
			continue
		}
		if state != "" && j.State != state {
			continue
		}
		out = append(out, j.clone())
	}
	sort.Slice(out, func(a, b int) bool { return out[a].SubmitSeq > out[b].SubmitSeq })
	return out
}

// Wait blocks until the job reaches a terminal state, the context ends,
// or the queue closes — the long-poll primitive behind
// GET /v1/jobs/{id}?wait=....
func (q *Queue) Wait(ctx context.Context, id string) (*Job, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok {
		q.mu.Unlock()
		return nil, ErrNotFound
	}
	if j.State.Terminal() {
		c := j.clone()
		q.mu.Unlock()
		return c, nil
	}
	ch := make(chan *Job, 1)
	q.waiters[id] = append(q.waiters[id], ch)
	q.mu.Unlock()
	select {
	case j := <-ch:
		return j, nil
	case <-ctx.Done():
		q.mu.Lock()
		chans := q.waiters[id]
		for i, c := range chans {
			if c == ch {
				q.waiters[id] = append(chans[:i], chans[i+1:]...)
				break
			}
		}
		q.mu.Unlock()
		return nil, ctx.Err()
	case <-q.closedCh:
		return nil, ErrClosed
	}
}

// registerCancel installs a worker's live cancellation hook.
func (q *Queue) registerCancel(id string, cancel context.CancelFunc) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.cancels[id] = cancel
	// A cancel that raced the lease still lands.
	if j, ok := q.jobs[id]; ok && j.CancelRequested {
		cancel()
	}
}

func (q *Queue) unregisterCancel(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.cancels, id)
}

// abortRunning cancels every registered worker context (drain-deadline
// enforcement).
func (q *Queue) abortRunning() {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, cancel := range q.cancels {
		cancel()
	}
}

// Pause stops leasing; queued jobs stay queued (and persisted). The
// first step of a graceful drain.
func (q *Queue) Pause() {
	q.mu.Lock()
	q.paused = true
	q.mu.Unlock()
}

// InFlight counts leased plus running jobs.
func (q *Queue) InFlight() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, j := range q.jobs {
		if j.State == StateLeased || j.State == StateRunning {
			n++
		}
	}
	return n
}

// Drain pauses leasing and waits for in-flight jobs to finish (or ctx
// to expire). It returns how many queued jobs remain persisted for the
// next boot.
func (q *Queue) Drain(ctx context.Context) (queued int, err error) {
	q.Pause()
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for q.InFlight() > 0 {
		select {
		case <-ctx.Done():
			q.mu.Lock()
			n := q.queuedCountLocked()
			q.mu.Unlock()
			return n, ctx.Err()
		case <-tick.C:
		}
	}
	q.mu.Lock()
	n := q.queuedCountLocked()
	q.mu.Unlock()
	return n, nil
}

// Close shuts the queue down: waiters resolve with ErrClosed and the
// journal is fsynced shut. Queued jobs persist for the next Open.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	close(q.closedCh)
	if q.log != nil {
		return q.log.Close()
	}
	return nil
}

// Stats snapshots the queue for the metrics surface.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := Stats{
		Submitted:    q.submitted,
		Completed:    q.completed,
		FailedTotal:  q.failedTot,
		CancelledTot: q.cancelledTot,
		LeaseExpired: q.leaseExpired,
		Replayed:     q.replayed,
		Deduped:      q.deduped,
		Compactions:  q.compactions,
		TornDropped:  q.tornDropped,
	}
	for _, j := range q.jobs {
		switch j.State {
		case StateQueued:
			s.Queued++
		case StateLeased:
			s.Leased++
		case StateRunning:
			s.Running++
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		case StateCancelled:
			s.Cancelled++
		}
	}
	s.WALRecords = q.walRecords
	if q.log != nil {
		s.WALBytes = q.log.Size()
	}
	return s
}
