// Package jobs is the durable asynchronous job queue behind alad's
// /v1/jobs API: a strict job state machine persisted in an append-only,
// checksummed write-ahead log so that a crash — up to and including a
// kill -9 mid-solve — recovers deterministically on restart. Where the
// synchronous solve path holds an HTTP request open from admission to
// answer (and loses everything queued or in flight when the process
// dies), a job outlives the connection that submitted it and the process
// that leased it.
//
// The lifecycle is:
//
//	queued → leased → running → done | failed | cancelled
//	           ↑__________|               (lease expiry re-queues)
//
// A worker takes ownership of a job by leasing it; the lease carries an
// expiry that the worker must heartbeat-renew while it solves. A worker
// that dies silently simply stops renewing, the lease expires, and the
// job goes back to the queue for another attempt — at its original
// submit position, so re-queues never reorder the backlog.
//
// Durability invariants (internal/journal holds the file format and its
// damage policy):
//
//   - every state transition is appended to the journal before the
//     in-memory state changes, and one whose append fails is not applied
//     at all; submissions and terminal transitions are fsynced, so an
//     acknowledged submit and a recorded result survive power loss;
//   - lease/start/requeue records are appended without fsync: losing a
//     tail of them in a crash only makes a job look queued, which is
//     exactly what boot-time recovery does to leased jobs anyway (the
//     process that held every lease is the one that died);
//   - lease renewals are process-local and never journaled;
//   - replay applies records in sequence order, then reclaims any job
//     still leased or running back to queued (or to cancelled, if a
//     cancel was requested), preserving attempt counts;
//   - after replay the journal is compacted: live state is snapshotted
//     to a fresh file which atomically replaces the old one, so the
//     journal never grows without bound across restarts;
//   - damage other than a torn final frame fails Open and leaves the
//     file as it was;
//   - a job that names an operator carries it: the queue journals the
//     operator's bytes just before the submit record, under the same
//     fsync, unless it still has them from an earlier frame of the same
//     file. It holds them in memory while a queued, leased or running job
//     names the operator, and keeps recently released operators, up to a
//     fixed byte bound, until the next boot compaction. So no accepted job
//     outlives its operator, a job on an operator whose last job just
//     ended does not journal it again, and an operator frame whose submit
//     record was lost holds nothing.
//
// The package is dependency-free (stdlib only) and knows nothing about
// solving: payloads and results are opaque bytes, execution is a
// callback (see worker.go), and content identity is a caller-provided
// 64-bit fingerprint. Completed results are indexed by that fingerprint
// so a duplicate submission is answered from the store without re-running
// anything.
package jobs

import "errors"

// State is a job's position in the lifecycle state machine.
type State string

// The job states. Done, Failed, and Cancelled are terminal.
const (
	StateQueued    State = "queued"
	StateLeased    State = "leased"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether a job in this state will never change again.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// validNext enumerates the legal state-machine edges. Everything else —
// including self-transitions — is rejected, both on the live path and
// during replay, so a corrupt or hand-edited journal cannot smuggle a
// job into an impossible history.
func validNext(from, to State) bool {
	switch from {
	case StateQueued:
		return to == StateLeased || to == StateCancelled
	case StateLeased:
		// leased → queued is lease expiry; leased → failed covers a
		// worker that discovers an unrunnable payload before Start.
		return to == StateRunning || to == StateQueued || to == StateCancelled || to == StateFailed
	case StateRunning:
		// running → queued is expiry of a lease whose worker went silent
		// mid-solve (or died with the process).
		return to == StateDone || to == StateFailed || to == StateCancelled || to == StateQueued
	default:
		return false // terminal states have no out-edges
	}
}

// Job is one unit of asynchronous work. Fields are exported (and
// JSON-tagged) because submit and snapshot journal records carry the
// whole job; timestamps are unix nanoseconds so records round-trip
// bit-identically through replay.
type Job struct {
	// ID is the queue-assigned identity ("j-" + submit sequence).
	ID string `json:"id"`
	// Tenant scopes fair scheduling and quotas.
	Tenant string `json:"tenant,omitempty"`
	// Kind names the payload schema (the executor dispatches on it).
	Kind string `json:"kind"`
	// Fingerprint is the caller's content address for the request;
	// completed results are deduplicated on it.
	Fingerprint uint64 `json:"fingerprint"`
	// Affinity is an optional co-scheduling hint: queued jobs sharing a
	// non-zero affinity are worth executing together (alad sets it to the
	// matrix fingerprint so same-operator solves drain as one coalesced
	// wave). Zero means no affinity; the journal carries it like any
	// other submit field, so it survives restarts.
	Affinity uint64 `json:"affinity,omitempty"`
	// Operator is the caller's fingerprint of the operator the payload
	// references (zero: none). While the job is live the queue holds the
	// operator's bytes (Queue.Operator).
	Operator uint64 `json:"operator,omitempty"`
	// Payload is the opaque request body.
	Payload []byte `json:"payload,omitempty"`

	State State `json:"state"`
	// Attempts counts leases taken on this job (1 on the first lease).
	Attempts int `json:"attempts"`
	// SubmitSeq is the journal sequence of the submit record; the queue
	// orders strictly by it, including after a re-queue.
	SubmitSeq   uint64 `json:"submit_seq"`
	SubmittedNs int64  `json:"submitted_ns"`
	UpdatedNs   int64  `json:"updated_ns"`

	// LeaseOwner and LeaseExpiryNs are live only in leased/running.
	LeaseOwner    string `json:"lease_owner,omitempty"`
	LeaseExpiryNs int64  `json:"lease_expiry_ns,omitempty"`
	// CancelRequested marks a leased/running job whose cancellation has
	// been asked for but not yet honored by its worker.
	CancelRequested bool `json:"cancel_requested,omitempty"`

	// Result is the opaque answer of a done job; ErrCode/ErrMsg describe
	// a failed one.
	Result  []byte `json:"result,omitempty"`
	ErrCode string `json:"err_code,omitempty"`
	ErrMsg  string `json:"err_msg,omitempty"`

	// Deduped is set (in-memory only, never journaled) on the copy
	// returned for a submission that was answered by an existing job.
	Deduped bool `json:"-"`
}

// Submission is one job to enqueue (Queue.Submit).
type Submission struct {
	Tenant, Kind string
	// Fingerprint content-addresses the request; see Job.Fingerprint.
	Fingerprint uint64
	// Affinity is the co-scheduling hint; see Job.Affinity.
	Affinity uint64
	// Operator names the operator Payload references (zero: none), and
	// OperatorBytes are its serialized form, of which the queue keeps a
	// copy. They may be nil while the queue has the operator
	// (Queue.Operator); when it does not, Submit refuses a nil
	// OperatorBytes with ErrNoOperator.
	Operator      uint64
	OperatorBytes []byte
	Payload       []byte
}

// clone returns an independent copy safe to hand outside the queue lock.
func (j *Job) clone() *Job {
	c := *j
	if j.Payload != nil {
		c.Payload = append([]byte(nil), j.Payload...)
	}
	if j.Result != nil {
		c.Result = append([]byte(nil), j.Result...)
	}
	return &c
}

// Sentinel errors. API layers map these to protocol answers (429 for
// ErrBacklog/ErrQuota, 404 for ErrNotFound, 409 for ErrBadTransition).
var (
	// ErrBacklog: the queue already holds MaxQueued pending jobs.
	ErrBacklog = errors.New("jobs: queue backlog full")
	// ErrQuota: the tenant already holds its quota of live jobs.
	ErrQuota = errors.New("jobs: tenant quota exhausted")
	// ErrNotFound: no job with that ID.
	ErrNotFound = errors.New("jobs: no such job")
	// ErrNotOwner: the caller's lease is stale (expired and re-leased, or
	// never held); its result was discarded.
	ErrNotOwner = errors.New("jobs: lease not held by caller")
	// ErrBadTransition: the requested edge is not in the state machine.
	ErrBadTransition = errors.New("jobs: illegal state transition")
	// ErrClosed: the queue has shut down.
	ErrClosed = errors.New("jobs: queue closed")
	// ErrNoOperator: the submission names an operator without its bytes,
	// and the queue does not have them; resubmit with OperatorBytes.
	ErrNoOperator = errors.New("jobs: operator not held; submit its bytes")
)
