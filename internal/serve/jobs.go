package serve

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"time"

	"analogacc/internal/cli"
	"analogacc/internal/jobs"
	"analogacc/internal/la"
)

// The asynchronous job surface: POST /v1/jobs submits a solve (or batch
// solve) for background execution and answers immediately with a job
// ID; GET /v1/jobs/{id} polls it (with ?wait= long-polling until the
// result is ready); GET /v1/jobs lists; POST /v1/jobs/{id}/cancel
// cancels. Durability, leases, crash replay, fair scheduling, and
// result dedup live in internal/jobs; this file adapts the solve schema
// onto that queue and executes leased jobs on the same pool-and-backend
// machinery as the synchronous handlers.

// Job kinds: the payload schema a job carries.
const (
	JobKindSolve = "solve"
	JobKindBatch = "batch"
)

// JobSubmitRequest asks the service to run one solve asynchronously.
// Exactly one of Solve and Batch must be present.
type JobSubmitRequest struct {
	// Tenant scopes fair scheduling and quotas (default "default"; the
	// X-Alad-Tenant header is an alternative carrier).
	Tenant string `json:"tenant,omitempty"`

	Solve *SolveRequest      `json:"solve,omitempty"`
	Batch *BatchSolveRequest `json:"batch,omitempty"`
}

// JobStatus is the wire form of a job. Result holds the usual
// SolveResponse (or BatchSolveResponse) once the job is done; Error
// describes a failed one.
type JobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Kind     string `json:"kind"`
	Tenant   string `json:"tenant,omitempty"`
	Attempts int    `json:"attempts"`
	// Deduped marks a submission answered by an existing job with the
	// same request fingerprint (the returned ID is that job's).
	Deduped     bool            `json:"deduped,omitempty"`
	SubmittedAt time.Time       `json:"submitted_at"`
	UpdatedAt   time.Time       `json:"updated_at"`
	Error       *ErrorResponse  `json:"error,omitempty"`
	Result      json.RawMessage `json:"result,omitempty"`
}

// JobListResponse answers GET /v1/jobs, newest submissions first.
type JobListResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

func jobStatus(j *jobs.Job) JobStatus {
	st := JobStatus{
		ID:          j.ID,
		State:       string(j.State),
		Kind:        j.Kind,
		Tenant:      j.Tenant,
		Attempts:    j.Attempts,
		Deduped:     j.Deduped,
		SubmittedAt: time.Unix(0, j.SubmittedNs).UTC(),
		UpdatedAt:   time.Unix(0, j.UpdatedNs).UTC(),
	}
	if j.State == jobs.StateDone {
		st.Result = json.RawMessage(j.Result)
	}
	if j.ErrCode != "" {
		st.Error = &ErrorResponse{Code: j.ErrCode, Error: j.ErrMsg}
	}
	return st
}

// jobFingerprint content-addresses a request: the matrix fingerprint
// mixed with everything else that changes the answer (kind, backend,
// tolerance, every right-hand side). Two submissions with equal
// fingerprints are the same work, so the second is served from the
// store instead of re-solving.
func jobFingerprint(kind, backend string, tol float64, a *la.CSR, rhs []la.Vector) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	mixStr := func(s string) {
		mix(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	mixStr(kind)
	mixStr(backend)
	mix(math.Float64bits(tol))
	mix(la.Fingerprint(a))
	mix(uint64(len(rhs)))
	for _, b := range rhs {
		for _, v := range b {
			mix(math.Float64bits(v))
		}
	}
	return h
}

// payloadFingerprint extracts the operator fingerprint from a
// by-reference job payload (solve and batch payloads share the
// `fingerprint` field). False for by-value payloads.
func payloadFingerprint(payload []byte) (uint64, bool) {
	var ref struct {
		Fingerprint string `json:"fingerprint"`
	}
	if json.Unmarshal(payload, &ref) != nil || ref.Fingerprint == "" {
		return 0, false
	}
	fp, err := ParseFingerprint(ref.Fingerprint)
	return fp, err == nil
}

// jobTerminal is the queue's terminal-transition observer: a job that
// carried a by-reference payload held one registry pin from submission
// (or boot replay); release it now that the job can never run again.
func (s *Server) jobTerminal(j *jobs.Job) {
	if s.registry == nil {
		return
	}
	if fp, ok := payloadFingerprint(j.Payload); ok {
		s.registry.unpin(fp)
	}
}

// handleJobSubmit validates eagerly (bad requests fail at submit, not
// minutes later in a worker), fingerprints the request, and enqueues.
// Backlog and quota answer 429 with the same adaptive Retry-After as
// the synchronous path — but here a retry is the client's choice, not
// its only option: accepted work survives overload and restarts.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobSubmitRequest
	nreq, err := DecodeRequest(w, r, MaxBodyBytes, &req)
	s.metrics.ObserveRequestBytes("jobs", nreq)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
		return
	}
	if (req.Solve == nil) == (req.Batch == nil) {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest,
			"job must carry exactly one of solve, batch")
		return
	}
	tenant := req.Tenant
	if tenant == "" {
		tenant = r.Header.Get("X-Alad-Tenant")
	}
	if tenant == "" {
		tenant = "default"
	}

	kind, wire := JobKindSolve, any(req.Solve)
	if req.Batch != nil {
		kind, wire = JobKindBatch, req.Batch
	}
	c, aerr := s.resolve(req.Solve, req.Batch)
	if aerr != nil {
		s.WriteAPIError(w, aerr)
		return
	}
	opFP := c.fp
	if !c.byRef {
		opFP = la.Fingerprint(c.a)
	}
	fp := jobFingerprint(kind, c.backend, c.params.Tol, c.a, c.rhs)
	var affinity uint64
	if cli.IsAnalogBackend(c.backend) {
		// The matrix fingerprint is the job's scheduling affinity: workers
		// drain same-affinity jobs together so they arrive at the
		// coalescer as one lane wave (fingerprint-sticky scheduling).
		// Digital solves gain nothing from waves, so they keep affinity 0
		// (FIFO).
		affinity = opFP
	}
	// Persist the reference, not the matrix: a by-value submission
	// registers its operator (journaled beside the WAL) and the job
	// payload shrinks from O(nnz) to O(n·rhs) — crash replay re-resolves
	// through the registry journal. The registration is pinned for the
	// job's lifetime so no amount of registry churn can evict the
	// operator out from under the accepted job (released at the job's
	// terminal transition — or right below, when the submission dedups
	// or fails to enqueue). If the operator exceeds the registry cap,
	// keep the fat by-value payload: durability wins.
	pinned := false
	unpin := func() {
		if pinned {
			s.registry.unpin(opFP)
		}
	}
	if _, _, rerr := s.registry.registerPinned(c.a); rerr == nil {
		pinned = true
		if !c.byRef {
			wire = c.byReference(opFP)
		}
	} else if c.byRef {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, "pinning operator: %v", rerr)
		return
	}
	payload, err := json.Marshal(wire)
	if err != nil {
		unpin()
		s.writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}

	j, err := s.jobs.SubmitAffinity(tenant, kind, fp, affinity, payload)
	switch {
	case errors.Is(err, jobs.ErrBacklog):
		unpin()
		s.writeBusy(w, CodeBusy, "job queue backlog full (%d jobs)", s.cfg.JobMaxQueued)
		return
	case errors.Is(err, jobs.ErrQuota):
		unpin()
		s.writeBusy(w, CodeQuota, "tenant %q has reached its quota of %d live jobs", tenant, s.cfg.JobTenantQuota)
		return
	case errors.Is(err, jobs.ErrClosed):
		unpin()
		s.writeError(w, http.StatusServiceUnavailable, CodeInternal, "job queue shutting down")
		return
	case err != nil:
		unpin()
		s.writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	if j.Deduped {
		// An existing job answered the submission; it holds (or already
		// released) its own pin, so this submission's pin is surplus.
		unpin()
	}
	s.metrics.ObserveResponseBytes("jobs", int64(writeJSON(w, http.StatusAccepted, jobStatus(j))))
}

// handleJobGet answers a job's status; ?wait=<duration> long-polls
// until the job is terminal (result inline) or the window closes
// (current state, 200 — the client just polls again).
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if waitArg := r.URL.Query().Get("wait"); waitArg != "" {
		wait, err := time.ParseDuration(waitArg)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, CodeBadRequest, "bad wait %q: %v", waitArg, err)
			return
		}
		if wait > maxTimeout {
			wait = maxTimeout
		}
		if wait > 0 {
			ctx, cancel := context.WithTimeout(r.Context(), wait)
			j, err := s.jobs.Wait(ctx, id)
			cancel()
			switch {
			case err == nil:
				writeJSON(w, http.StatusOK, jobStatus(j))
				return
			case errors.Is(err, jobs.ErrNotFound):
				s.writeError(w, http.StatusNotFound, CodeNotFound, "no job %q", id)
				return
			case errors.Is(err, jobs.ErrClosed):
				s.writeError(w, http.StatusServiceUnavailable, CodeInternal, "job queue shutting down")
				return
				// Context expiry falls through to a plain status read.
			}
		}
	}
	j, ok := s.jobs.Get(id)
	if !ok {
		s.writeError(w, http.StatusNotFound, CodeNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(j))
}

// handleJobList answers GET /v1/jobs with optional ?state= and ?tenant=
// filters.
func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	state := jobs.State(r.URL.Query().Get("state"))
	tenant := r.URL.Query().Get("tenant")
	list := s.jobs.List(tenant, state)
	resp := JobListResponse{Jobs: make([]JobStatus, len(list))}
	for i, j := range list {
		resp.Jobs[i] = jobStatus(j)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobCancel cancels a job: queued jobs immediately, running jobs
// by cancelling their worker's context. Terminal jobs are returned
// unchanged (cancellation is idempotent, never destructive).
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, err := s.jobs.Cancel(id)
	if errors.Is(err, jobs.ErrNotFound) {
		s.writeError(w, http.StatusNotFound, CodeNotFound, "no job %q", id)
		return
	}
	if err != nil {
		s.writeError(w, http.StatusInternalServerError, CodeInternal, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, jobStatus(j))
}

// executeJobs is the worker callback: one leased group — a job and the
// queued jobs sharing its operator — decoded, resolved and run on the
// same pipeline as the synchronous handlers (chip checkout, deadline
// clamp, metrics and all), each outcome the marshalled response. The
// whole group resolves and begins first, and its analog solo calls join
// the coalescer together, so the calls of one wave key seal into one
// wave however the scheduler runs them; the calls then finish in order.
// Error codes are the API's stable codes, so a failed job reports
// exactly what the synchronous path would have.
func (s *Server) executeJobs(group []*jobs.Task) {
	calls := make([]*call, len(group))
	ctxs := make([]context.Context, len(group))
	var members []*waveMember
	for i, t := range group {
		c, aerr := s.jobCall(t.Job)
		if aerr != nil {
			t.ErrCode, t.ErrMsg = aerr.Code, aerr.Message
			continue
		}
		ctx, cancel := context.WithTimeout(t.Ctx, s.clampTimeout(c.timeoutMs))
		defer cancel()
		// Job executions hold no admission slot; the detached-lane gauge
		// keeps them — solve and batch jobs alike — visible to federation
		// saturation gating.
		s.metrics.detachedLanes.Add(1)
		if m := s.begin(ctx, c); m != nil {
			members = append(members, m)
		}
		calls[i], ctxs[i] = c, ctx
	}
	s.coalesce.join(members...)
	for i, t := range group {
		if calls[i] == nil {
			continue
		}
		resp, aerr := s.finish(ctxs[i], calls[i])
		s.metrics.detachedLanes.Add(-1)
		if aerr != nil {
			t.ErrCode, t.ErrMsg = aerr.Code, aerr.Message
			continue
		}
		raw, err := json.Marshal(resp)
		if r, ok := resp.(*SolveResponse); ok {
			releaseSolveResponse(r)
		}
		if err != nil {
			t.ErrCode, t.ErrMsg = CodeInternal, err.Error()
			continue
		}
		t.Result = raw
	}
}

// jobCall decodes a job's payload and resolves it into a call.
func (s *Server) jobCall(j *jobs.Job) (*call, *APIError) {
	var (
		solo  *SolveRequest
		batch *BatchSolveRequest
		dst   any
	)
	switch j.Kind {
	case JobKindSolve:
		solo = new(SolveRequest)
		dst = solo
	case JobKindBatch:
		batch = new(BatchSolveRequest)
		dst = batch
	default:
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "unknown job kind %q", j.Kind)
	}
	if err := json.Unmarshal(j.Payload, dst); err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "decoding job payload: %v", err)
	}
	return s.resolve(solo, batch)
}
