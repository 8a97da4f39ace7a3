package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"analogacc/internal/cli"
	"analogacc/internal/core"
	"analogacc/internal/jobs"
	"analogacc/internal/la"
)

// Config sizes the server. The zero value gives sensible defaults.
type Config struct {
	// Pool sizes the chip pool.
	Pool PoolConfig
	// NodeName identifies this node in responses (served_by) and in
	// federation peer stats. Empty is fine for a standalone daemon.
	NodeName string
	// QueueBound caps admitted requests (queued waiting for a chip plus
	// actively solving). Beyond it the server answers 429 with a
	// Retry-After hint instead of queueing unboundedly (default 64).
	QueueBound int
	// DefaultTimeout is the per-request solve deadline when the request
	// carries none (default 30s; maxTimeout clamps what a request may ask
	// for).
	DefaultTimeout time.Duration
	// MaxBatchRHS caps how many right-hand sides one /v1/solve/batch
	// request may carry (default 64). A batch holds one chip and one
	// admission slot for its whole (clamped) timeout, so the cap bounds
	// how long a single request can monopolize a chip class.
	MaxBatchRHS int

	// JobStore is the async job journal path. Empty runs the job queue
	// in memory: the /v1/jobs API works, but submissions do not survive
	// a restart. Point it at a file to make accepted jobs durable.
	JobStore string
	// JobWorkers sizes the async executor pool (default 2); -1 disables
	// execution, leaving the queue accept-only (tests drive it by hand).
	JobWorkers int
	// JobLeaseTTL is the worker lease on a claimed job (default 10s);
	// an executor that stops heartbeating loses the job back to the
	// queue after this long.
	JobLeaseTTL time.Duration
	// JobMaxQueued caps pending async jobs (default 256); beyond it
	// submissions answer 429, same as the synchronous admission queue.
	JobMaxQueued int
	// JobTenantQuota caps one tenant's live jobs (default 0: unlimited).
	JobTenantQuota int
	// JobExecDelay is a fault-injection hold between leasing and
	// executing each job (zero in production; crash tests use it to pin
	// a job mid-flight deterministically).
	JobExecDelay time.Duration

	// RegistryMaxOps caps resident operators in the registry (default
	// 256); RegistryMaxBytes caps their estimated resident bytes
	// (default 256 MiB). LRU operators evict first when either cap is
	// exceeded. When JobStore is set the registry journals PUT
	// /v1/operators registrations beside it (JobStore + ".ops") so they
	// survive a restart.
	RegistryMaxOps   int
	RegistryMaxBytes int64
}

// Service limits every deployment runs at the same value.
const (
	// maxTimeout clamps the deadline a request (or a job wait) may ask for.
	maxTimeout = 2 * time.Minute
	// retryAfterFloor is the floor of the backoff hint sent with 429s; the
	// hint itself adapts upward with load (see Server.retryAfter).
	retryAfterFloor = time.Second
	// MaxBodyBytes bounds request bodies, here and on a federation
	// router's routed endpoints.
	MaxBodyBytes = 32 << 20
	// defaultTol is the solve tolerance for requests that carry none.
	defaultTol = 1e-8
)

func (c Config) withDefaults() Config {
	if c.QueueBound <= 0 {
		c.QueueBound = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 30 * time.Second
	}
	if c.MaxBatchRHS <= 0 {
		c.MaxBatchRHS = 64
	}
	if c.JobWorkers == 0 {
		c.JobWorkers = 2
	}
	if c.JobMaxQueued <= 0 {
		c.JobMaxQueued = 256
	}
	if c.RegistryMaxOps <= 0 {
		c.RegistryMaxOps = 256
	}
	if c.RegistryMaxBytes <= 0 {
		c.RegistryMaxBytes = 256 << 20
	}
	return c
}

// Server wires the pool, the admission queue, the job queue, the
// metrics, and the HTTP handlers together. Create with New, mount
// Handler on an http.Server, Close when done.
type Server struct {
	cfg     Config
	pool    *Pool
	metrics *Metrics
	// slots is the bounded admission queue: a request holds one slot from
	// admission to response. Its depth (len) is the queue-depth gauge;
	// TryAcquire failure is the 429 path.
	slots chan struct{}
	mux   *http.ServeMux

	// jobs is the durable async queue behind /v1/jobs; workers executes
	// leased jobs on the same dispatch as the synchronous handlers.
	jobs    *jobs.Queue
	workers *jobs.Workers

	// registry is the operator store behind PUT /v1/operators: matrices
	// upload once, then solves reference them by fingerprint.
	registry *opRegistry

	// draining flips when a shutdown begins: /readyz answers 503 from
	// then on so federation peers stop routing new work here, while
	// /healthz (pure liveness) stays green through the drain.
	draining atomic.Bool

	// decompProvider lends block workers to decomposed solves. Defaults to
	// the local pool; a federation router swaps in a provider that also
	// scatter-gathers blocks across peer nodes.
	decompProvider core.WorkerProvider

	// coalesce groups concurrent same-operator analog solo solves into
	// waves; every analog solo solve goes through it.
	coalesce *coalescer

	// solve is the backend dispatch every call's right-hand sides go
	// through, one or many, swappable by tests that need a deterministic
	// slow or failing solver.
	solve func(ctx context.Context, backend string, a *la.CSR, rhs []la.Vector, p cli.SolveParams) ([]cli.Outcome, error)
}

// New builds a server: pre-warms its pool, replays the job journal
// (reclaiming leases orphaned by a crash), and starts the async
// executors.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	pool, err := NewPool(cfg.Pool)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		pool:    pool,
		metrics: NewMetrics(),
		slots:   make(chan struct{}, cfg.QueueBound),
		solve:   cli.SolveSystemBatch,
	}
	s.decompProvider = pool.DecompProvider()
	s.coalesce = newCoalescer(s)
	s.jobs, err = jobs.Open(jobs.Config{
		Path:        cfg.JobStore,
		LeaseTTL:    cfg.JobLeaseTTL,
		MaxQueued:   cfg.JobMaxQueued,
		TenantQuota: cfg.JobTenantQuota,
	})
	if err != nil {
		return nil, fmt.Errorf("serve: opening job store: %w", err)
	}
	opsPath := ""
	if cfg.JobStore != "" {
		opsPath = cfg.JobStore + ".ops"
	}
	s.registry, err = openRegistry(cfg.RegistryMaxOps, cfg.RegistryMaxBytes, opsPath)
	if err != nil {
		s.jobs.Close()
		return nil, fmt.Errorf("serve: opening operator registry: %w", err)
	}
	if cfg.JobWorkers > 0 {
		s.workers = jobs.StartWorkers(s.jobs, cfg.JobWorkers, s.executeJobs, cfg.JobExecDelay)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", s.handleSolve)
	mux.HandleFunc("POST /v1/solve/batch", s.handleSolveBatch)
	mux.HandleFunc("PUT /v1/operators", s.handleOperatorPut)
	mux.HandleFunc("GET /v1/operators", s.handleOperatorList)
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	mux.HandleFunc("GET /v1/backends", s.handleBackends)
	mux.HandleFunc("GET /v1/peer/stats", s.handlePeerStats)
	mux.HandleFunc("POST /v1/peer/block", s.handlePeerBlock)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux = mux
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// Pool exposes the chip pool (tests, federation).
func (s *Server) Pool() *Pool { return s.pool }

// Metrics exposes the metrics set (tests, federation).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Jobs exposes the async job queue (tests, drain orchestration).
func (s *Server) Jobs() *jobs.Queue { return s.jobs }

// QueueDepth reports currently admitted requests.
func (s *Server) QueueDepth() int { return len(s.slots) }

// QueueBound reports the admission queue capacity.
func (s *Server) QueueBound() int { return s.cfg.QueueBound }

// NodeName reports this node's federation identity ("" standalone).
func (s *Server) NodeName() string { return s.cfg.NodeName }

// SetDraining flips the readiness signal: once true, /readyz answers 503
// (liveness /healthz is unaffected) so federation peers health-gate this
// node out of new routing decisions while in-flight work drains.
func (s *Server) SetDraining(v bool) { s.draining.Store(v) }

// Draining reports whether a shutdown drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// SetDecompProvider overrides the worker provider decomposed solves fan
// out over (the federation router installs its scatter-gather provider
// here).
func (s *Server) SetDecompProvider(p core.WorkerProvider) { s.decompProvider = p }

// PauseJobs stops the job queue from leasing new work; already-leased
// jobs keep running. First step of a graceful drain.
func (s *Server) PauseJobs() {
	s.jobs.Pause()
}

// DrainJobs finishes the async side of a shutdown: leasing is paused,
// the executors stop after their in-flight jobs complete (or ctx
// expires and they are cancelled), and the count of queued jobs left
// persisted for the next boot is returned.
func (s *Server) DrainJobs(ctx context.Context) (queued int, err error) {
	s.jobs.Pause()
	if s.workers != nil {
		s.workers.Stop(ctx)
	}
	return s.jobs.Drain(ctx)
}

// Close releases the server's background resources: executors stopped
// (briefly graceful, then cancelled), journal fsynced shut. Queued jobs
// stay persisted for the next Open.
func (s *Server) Close() error {
	if s.workers != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		s.workers.Stop(ctx)
		cancel()
		s.workers = nil
	}
	err := s.registry.close()
	if jerr := s.jobs.Close(); err == nil {
		err = jerr
	}
	return err
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, ErrorResponse{Code: code, Error: fmt.Sprintf(format, args...)})
}

// retryAfter is the adaptive 429 backoff hint: the expected wait for a
// slot is roughly (queue depth + 1) × the moving-average service time,
// floored at retryAfterFloor and capped so a load spike never tells
// clients to go away for minutes.
func (s *Server) retryAfter() time.Duration {
	hint := retryAfterFloor
	if avg := s.metrics.AvgServiceTime(); avg > 0 {
		if est := time.Duration(s.QueueDepth()+1) * avg; est > hint {
			hint = est
		}
	}
	const ceiling = 30 * time.Second
	if hint > ceiling {
		hint = ceiling
	}
	return hint
}

// writeBusy answers 429 with the adaptive Retry-After hint; both the
// synchronous admission queue and the async job backlog route through
// it so clients see one consistent backpressure contract.
func (s *Server) writeBusy(w http.ResponseWriter, code, format string, args ...any) {
	s.metrics.rejected.Inc()
	ra := s.retryAfter()
	w.Header().Set("Retry-After", strconv.Itoa(int((ra+time.Second-1)/time.Second)))
	s.writeError(w, http.StatusTooManyRequests, code, format, args...)
}

// clampTimeout resolves a request's timeout_ms against the server's
// default and ceiling.
func (s *Server) clampTimeout(timeoutMs int) time.Duration {
	t := s.cfg.DefaultTimeout
	if timeoutMs > 0 {
		t = time.Duration(timeoutMs) * time.Millisecond
	}
	if t > maxTimeout {
		t = maxTimeout
	}
	return t
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the readiness half of the split health surface:
// /healthz stays a pure liveness probe, while /readyz answers 503 when
// the node should not receive new work — a shutdown drain has begun, or
// the admission queue is saturated. Federation membership polls this, so
// a draining node falls out of routing decisions before its listener
// closes instead of reporting healthy to the last request.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case s.draining.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.QueueDepth() >= s.cfg.QueueBound:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) handleBackends(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"backends": cli.Backends()})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.writeTo(w, s.QueueDepth(), s.pool, s.jobs, s.registry)
}

// APIError is a solve failure in API terms: the HTTP status the
// synchronous path answers with, and the stable code/message that both
// the synchronous error body and a failed job's record carry. Exported
// so the federation router can re-dispatch decoded requests through
// SolveDecoded and write the identical error contract.
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter is the backoff hint for 429 answers (zero otherwise).
	RetryAfter time.Duration
}

func apiErrorf(status int, code, format string, args ...any) *APIError {
	return &APIError{Status: status, Code: code, Message: fmt.Sprintf(format, args...)}
}

// WriteAPIError renders an APIError exactly as the built-in handlers do,
// Retry-After header included.
func (s *Server) WriteAPIError(w http.ResponseWriter, aerr *APIError) {
	if aerr.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((aerr.RetryAfter+time.Second-1)/time.Second)))
	}
	s.writeError(w, aerr.Status, aerr.Code, "%s", aerr.Message)
}

// busyError books a 429 and packages it with the adaptive backoff hint.
func (s *Server) busyError(code, format string, args ...any) *APIError {
	s.metrics.rejected.Inc()
	aerr := apiErrorf(http.StatusTooManyRequests, code, format, args...)
	aerr.RetryAfter = s.retryAfter()
	return aerr
}

// admit claims one admission slot (bounded, backpressured) and returns
// its release, or the 429 the caller should answer with.
func (s *Server) admit() (release func(), aerr *APIError) {
	select {
	case s.slots <- struct{}{}:
		return func() { <-s.slots }, nil
	default:
		return nil, s.busyError(CodeBusy, "admission queue full (%d requests)", s.cfg.QueueBound)
	}
}

// SolveDecoded runs one already-decoded solve request with the HTTP
// path's full semantics — per-request deadline clamped to the server
// ceiling, bounded admission — and returns the response or the API
// error. POST /v1/solve is decode + SolveDecoded; the federation router
// calls it directly for locally served requests so routed and direct
// traffic share one admission discipline.
func (s *Server) SolveDecoded(ctx context.Context, req *SolveRequest) (*SolveResponse, *APIError) {
	resp, aerr := s.admitAndRun(ctx, req, nil, req.TimeoutMs)
	if aerr != nil {
		return nil, aerr
	}
	return resp.(*SolveResponse), nil
}

// SolveBatchDecoded is SolveDecoded's multi-RHS counterpart.
func (s *Server) SolveBatchDecoded(ctx context.Context, req *BatchSolveRequest) (*BatchSolveResponse, *APIError) {
	resp, aerr := s.admitAndRun(ctx, nil, req, req.TimeoutMs)
	if aerr != nil {
		return nil, aerr
	}
	return resp.(*BatchSolveResponse), nil
}

// admitAndRun is the synchronous half of the request pipeline: the
// per-request deadline, clamped to the server's ceiling and propagated
// down to the chip's settle loop; one bounded admission slot; then
// resolve, begin (an analog solo call joins the coalescer alone) and
// finish, shared with the async executor.
func (s *Server) admitAndRun(ctx context.Context, solo *SolveRequest, batch *BatchSolveRequest, timeoutMs int) (any, *APIError) {
	ctx, cancel := context.WithTimeout(ctx, s.clampTimeout(timeoutMs))
	defer cancel()
	release, aerr := s.admit()
	if aerr != nil {
		return nil, aerr
	}
	defer release()
	c, aerr := s.resolve(solo, batch, false)
	if aerr != nil {
		return nil, aerr
	}
	if m := s.begin(ctx, c); m != nil {
		s.coalesce.join(m)
	}
	return s.finish(ctx, c)
}

// handleSolve is the synchronous solve path: decode → admit (bounded,
// backpressured) → resolve → run under deadline → respond.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	n, err := DecodeRequest(w, r, MaxBodyBytes, &req)
	s.metrics.ObserveRequestBytes("solve", n)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
		return
	}
	resp, aerr := s.SolveDecoded(r.Context(), &req)
	if aerr != nil {
		s.WriteAPIError(w, aerr)
		return
	}
	s.metrics.ObserveResponseBytes("solve", int64(writeJSON(w, http.StatusOK, resp)))
	releaseSolveResponse(resp)
}

// handleSolveBatch is the synchronous multi-RHS path: one admission
// slot, one chip checkout, one matrix programming — then every
// right-hand side solves on the resident configuration with only bias
// rewrites in between.
func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchSolveRequest
	n, err := DecodeRequest(w, r, MaxBodyBytes, &req)
	s.metrics.ObserveRequestBytes("solve_batch", n)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
		return
	}
	resp, aerr := s.SolveBatchDecoded(r.Context(), &req)
	if aerr != nil {
		s.WriteAPIError(w, aerr)
		return
	}
	s.metrics.ObserveResponseBytes("solve_batch", int64(writeJSON(w, http.StatusOK, resp)))
}

// handleOperatorPut registers one operator (PUT /v1/operators): the
// upload-once half of the by-reference wire path.
func (s *Server) handleOperatorPut(w http.ResponseWriter, r *http.Request) {
	var req OperatorRequest
	n, err := DecodeRequest(w, r, MaxBodyBytes, &req)
	s.metrics.ObserveRequestBytes("operators", n)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, CodeBadRequest, "decoding request: %v", err)
		return
	}
	info, aerr := s.RegisterOperatorDecoded(&req)
	if aerr != nil {
		s.WriteAPIError(w, aerr)
		return
	}
	s.metrics.ObserveResponseBytes("operators", int64(writeJSON(w, http.StatusOK, info)))
}

// RegisterOperatorDecoded registers an already-decoded operator upload
// and reports its fingerprint, dims, and nnz. Exported for the
// federation router, which registers forwarded uploads on the affinity
// owner without re-encoding.
func (s *Server) RegisterOperatorDecoded(req *OperatorRequest) (OperatorInfo, *APIError) {
	a, err := req.Build()
	if err != nil {
		return OperatorInfo{}, apiErrorf(http.StatusBadRequest, CodeBadRequest, "%v", err)
	}
	start := time.Now()
	fp, existed, err := s.registry.register(a)
	if err != nil {
		if errors.Is(err, errRegistryCapacity) {
			return OperatorInfo{}, apiErrorf(http.StatusRequestEntityTooLarge, CodeTooLarge, "%v", err)
		}
		return OperatorInfo{}, apiErrorf(http.StatusInternalServerError, CodeInternal, "journaling operator: %v", err)
	}
	s.metrics.register.ObserveDuration(time.Since(start))
	return OperatorInfo{
		Fingerprint: FormatFingerprint(fp),
		N:           a.Dim(),
		NNZ:         a.NNZ(),
		Bytes:       operatorCost(a),
		Existed:     existed,
		ServedBy:    s.cfg.NodeName,
	}, nil
}

// handleOperatorList reports the resident operators, MRU first
// (GET /v1/operators).
func (s *Server) handleOperatorList(w http.ResponseWriter, _ *http.Request) {
	_, bytes := s.registry.stats()
	writeJSON(w, http.StatusOK, OperatorListResponse{
		Operators: s.registry.residents(),
		Bytes:     bytes,
		MaxOps:    s.registry.maxOps,
		MaxBytes:  s.registry.maxBytes,
	})
}
