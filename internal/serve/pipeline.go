package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"time"

	"analogacc/internal/cli"
	"analogacc/internal/core"
	"analogacc/internal/la"
)

// The request pipeline. Every solve — POST /v1/solve, POST
// /v1/solve/batch, and both async job kinds — takes the same path below
// decode: resolve turns the request into a call, begin opens its metrics
// bracket and enrolls it in the coalescer, finish waits for or runs its
// executor (dispatch), maps its errors and builds the answer (render). A
// solo request is a call with one right-hand side, a batch request a
// call with k; on the analog backends every solo call rides a coalescer
// wave (a lone request a wave of one), while a batch checks out its own
// chip and neither waits for nor boards solo waves.

// call is one resolved solve request.
type call struct {
	// solo or batch is the request as decoded (exactly one is set, with
	// its backend defaulted); it also picks the response shape.
	solo  *SolveRequest
	batch *BatchSolveRequest

	backend string
	a       *la.CSR
	rhs     []la.Vector
	// fp is the operator fingerprint parsed off a by-reference request
	// (byRef); by-value requests hash the matrix only where a key needs it.
	fp        uint64
	byRef     bool
	params    cli.SolveParams
	timeoutMs int

	// start is when begin opened the call's latency bracket; member is
	// the coalescer enrollment begin made for an analog solo call.
	start  time.Time
	member *waveMember
}

// resolve validates and materializes one solo or batch request (exactly
// one is non-nil): the one resolver behind both solve endpoints, job
// submission and job execution. The backend is checked before the
// (potentially large) matrix is even assembled, mirroring alasolve's
// fail-fast rule. By-value forms build through BuildSystem; the
// by-reference form resolves its fingerprint through the operator
// registry, with a missing operator answered by the stable
// unknown_operator code so clients can register-and-retry, and a solo
// request's missing b defaulting to ones(n).
func (s *Server) resolve(solo *SolveRequest, batch *BatchSolveRequest) (*call, *APIError) {
	c := &call{solo: solo, batch: batch, params: cli.SolveParams{ADCBits: s.cfg.Pool.ADCBits, Bandwidth: s.cfg.Pool.Bandwidth}}
	var (
		backend *string
		ref     string      // by-reference fingerprint ("" by value)
		byValue bool        // a by-value matrix form is present
		rows    [][]float64 // right-hand sides a by-reference request carries
	)
	if batch != nil {
		backend, ref, rows = &batch.Backend, batch.Fingerprint, batch.RHS
		byValue = batch.N > 0 || len(batch.A) > 0 || batch.System != "" || batch.MatrixMarket != ""
		c.params.Tol, c.timeoutMs = batch.Tol, batch.TimeoutMs
	} else {
		backend, ref = &solo.Backend, solo.Fingerprint
		if len(solo.B) > 0 {
			rows = [][]float64{solo.B}
		}
		byValue = solo.N > 0 || len(solo.A) > 0 || solo.System != "" || solo.MatrixMarket != ""
		c.params.Tol, c.params.Workers, c.timeoutMs = solo.Tol, solo.Workers, solo.TimeoutMs
	}
	if *backend == "" {
		*backend = cli.BackendAnalogRefined
	}
	c.backend = *backend
	if !cli.ValidBackend(c.backend) {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadBackend,
			"unknown backend %q (known: %s)", c.backend, cli.BackendUsage())
	}
	if batch != nil && c.backend == cli.BackendDecomposed {
		// The decomposed backend leases several chips per item; batching
		// would hold the fan-out across the whole batch. Items that big
		// should go through /v1/solve individually.
		return nil, apiErrorf(http.StatusBadRequest, CodeBadBackend,
			"backend %q does not support batch solves", c.backend)
	}
	if c.params.Tol <= 0 {
		c.params.Tol = defaultTol
	}

	var err error
	switch {
	case ref == "" && batch != nil:
		c.a, c.rhs, err = batch.BuildSystem()
	case ref == "":
		var b la.Vector
		c.a, b, err = solo.BuildSystem()
		c.rhs = []la.Vector{b}
	case byValue:
		err = errors.New("request carries both a fingerprint reference and a by-value matrix; send exactly one")
	default:
		if c.fp, err = ParseFingerprint(ref); err != nil {
			break
		}
		var ok bool
		if c.a, ok = s.registry.lookup(c.fp); !ok {
			return nil, apiErrorf(http.StatusNotFound, CodeUnknownOperator,
				"operator %s is not registered on this node; PUT /v1/operators and retry", ref)
		}
		c.byRef = true
		switch {
		case batch != nil && len(rows) == 0:
			err = errors.New("batch request needs at least one right-hand side in rhs")
		case batch == nil && len(rows) == 0:
			c.rhs = []la.Vector{la.Constant(c.a.Dim(), 1)}
		}
		for k, row := range rows {
			if len(row) != c.a.Dim() {
				err = fmt.Errorf("rhs %d has %d values, operator %s order is %d", k, len(row), ref, c.a.Dim())
				break
			}
			c.rhs = append(c.rhs, la.Vector(row))
		}
	}
	if err != nil {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest, "%v", err)
	}
	if len(c.rhs) > s.cfg.MaxBatchRHS {
		return nil, apiErrorf(http.StatusBadRequest, CodeBadRequest,
			"batch of %d right-hand sides exceeds the server limit %d; split into smaller batches",
			len(c.rhs), s.cfg.MaxBatchRHS)
	}
	return c, nil
}

// byReference is the call's request in by-reference form against
// operator fp: no matrix, the right-hand sides as resolved.
func (c *call) byReference(fp uint64) any {
	if c.batch != nil {
		r := *c.batch
		r.N, r.A, r.System, r.MatrixMarket, r.Fingerprint = 0, nil, "", "", FormatFingerprint(fp)
		return &r
	}
	r := *c.solo
	r.N, r.A, r.System, r.MatrixMarket, r.Fingerprint, r.B = 0, nil, "", "", FormatFingerprint(fp), c.rhs[0]
	return &r
}

// begin starts a call under ctx: it opens the call's metrics bracket (the
// in-flight gauge and the latency clock) and returns the coalescer
// enrollment of an analog solo call, keyed by operator fingerprint —
// parsed off a by-reference request, hashed here for a by-value one —
// for the caller to join, alone or with the other members of a job group
// (executeJobs). An analog solo system no pool class can hold is
// promoted to the decomposed fan-out instead of being rejected.
func (s *Server) begin(ctx context.Context, c *call) *waveMember {
	if c.batch != nil {
		s.metrics.batchRHS.Add(int64(len(c.rhs)))
	}
	s.metrics.inFlight.Add(1)
	c.start = time.Now()
	if c.solo == nil || !cli.IsAnalogBackend(c.backend) {
		return nil
	}
	if s.pool.Fits(c.a) != nil {
		c.backend = cli.BackendDecomposed
		return nil
	}
	fp := c.fp
	if !c.byRef {
		fp = la.Fingerprint(c.a)
	}
	c.member = &waveMember{
		ctx:    ctx,
		key:    waveKey{fp: fp, n: c.a.Dim(), backend: c.backend, tol: c.params.Tol},
		a:      c.a,
		params: c.params,
		b:      c.rhs[0],
		done:   make(chan waveResult, 1),
	}
	return c.member
}

// finish completes a begun call under ctx and renders its answer: a
// *SolveResponse for a solo call, a *BatchSolveResponse for a batch. It
// closes the solve path's only metrics bracket and, through apiError,
// owns its only error mapping. The latency it records spans the whole
// execution from begin, chip wait included — the pool queue for waves
// and batches alike.
func (s *Server) finish(ctx context.Context, c *call) (any, *APIError) {
	r := s.dispatch(ctx, c)
	elapsed := time.Since(c.start)
	s.metrics.inFlight.Add(-1)
	// Latency is per request, not per item: the histogram measures what a
	// caller waited for, so one batch is one observation even though each
	// item bumps the SolveOK counters below.
	s.metrics.ObserveLatency(elapsed)
	if r.err != nil {
		return nil, s.apiError(ctx, r.err)
	}
	for _, out := range r.outs {
		s.metrics.SolveOK(c.backend, out.AnalogTime, out.Runs, out.Rescales, out.Overflows, out.Refinements)
		if ds := out.Decompose; ds != nil {
			s.metrics.DecomposedOK(ds.Blocks, ds.Sweeps, ds.Configs, ds.ReuseHits)
		}
	}
	if r.lanes > 1 {
		s.metrics.coalescedReqs.Inc()
	}
	return s.render(c, r, elapsed), nil
}

// dispatch sends a begun call to its executor: an enrolled solo call
// waits for its wave's lane, an analog batch checks out its own chip,
// and digital and decomposed calls need none.
func (s *Server) dispatch(ctx context.Context, c *call) waveResult {
	if c.member != nil {
		return s.coalesce.wait(c.member)
	}
	p := c.params
	switch {
	case c.backend == cli.BackendDecomposed:
		p.Provider = s.decompProvider
		p.OnSweep = func(_ int, _ float64, elapsed time.Duration) {
			s.metrics.sweep.ObserveDuration(elapsed)
		}
	case !cli.IsAnalogBackend(c.backend):
		// Digital: no chip, straight to the executor below.
	default:
		pc, err := s.pool.Checkout(ctx, c.a)
		if err != nil {
			return waveResult{err: err}
		}
		outs, err := s.execute(ctx, pc, c.backend, c.a, c.rhs, p)
		return waveResult{outs: outs, class: pc.Class, err: err}
	}
	outs, err := s.execute(ctx, nil, c.backend, c.a, c.rhs, p)
	return waveResult{outs: outs, err: err}
}

// execute is the one post-checkout executor, shared by the coalescer's
// wave runner and batch requests: every set of right-hand sides, one or
// sixteen, goes to s.solve, and the chip pc (nil for backends that need
// none) is checked back in.
func (s *Server) execute(ctx context.Context, pc *PooledChip, backend string, a *la.CSR, rhs []la.Vector, p cli.SolveParams) ([]cli.Outcome, error) {
	if pc != nil {
		defer s.pool.Checkin(pc)
		p.Acc = pc.Acc
	}
	return s.solve(ctx, backend, a, rhs, p)
}

// render builds a call's response from its outcomes.
func (s *Server) render(c *call, r waveResult, elapsed time.Duration) any {
	ms := float64(elapsed.Microseconds()) / 1000
	if c.batch != nil {
		resp := &BatchSolveResponse{
			N:         c.a.Dim(),
			Backend:   c.backend,
			Items:     make([]BatchItem, len(r.outs)),
			ElapsedMs: ms,
			ServedBy:  s.cfg.NodeName,
		}
		for k, out := range r.outs {
			resp.Items[k] = renderItem(c.a, c.rhs[k], out, r.class)
			// Wave provenance: the lane width, if any item rode a wave.
			resp.WaveLanes = max(resp.WaveLanes, out.Lanes)
		}
		resp.Coalesced = resp.WaveLanes >= 2
		return resp
	}
	out := r.outs[0]
	it := renderItem(c.a, c.rhs[0], out, r.class)
	resp := newSolveResponse()
	resp.U, resp.Residual, resp.Analog, resp.Digital = it.U, it.Residual, it.Analog, it.Digital
	resp.N = c.a.Dim()
	resp.Backend = c.backend
	resp.ElapsedMs = ms
	resp.ServedBy = s.cfg.NodeName
	resp.Coalesced = r.lanes > 1
	resp.WaveLanes = r.lanes
	if ds := out.Decompose; ds != nil {
		resp.Decompose = &DecomposeInfo{
			Blocks:                ds.Blocks,
			Sweeps:                ds.Sweeps,
			Chips:                 ds.Chips,
			InnerRefinements:      ds.InnerRefinements,
			Configs:               ds.Configs,
			ReuseHits:             ds.ReuseHits,
			AnalogCriticalSeconds: ds.AnalogCritical,
		}
	}
	return resp
}

// renderItem renders one outcome for right-hand side b: the answer, its
// digital residual, and its cost block. The only place a response's
// AnalogStats is built.
func renderItem(a *la.CSR, b la.Vector, out cli.Outcome, class int) BatchItem {
	it := BatchItem{U: []float64(out.U), Residual: la.RelativeResidual(a, out.U, b)}
	if out.Analog {
		it.Analog = &AnalogStats{
			AnalogSeconds: out.AnalogTime,
			SettleSeconds: out.SettleTime,
			Runs:          out.Runs,
			Rescales:      out.Rescales,
			Overflows:     out.Overflows,
			Refinements:   out.Refinements,
			ScaleS:        out.ScaleS,
			ChipClass:     class,
			Lanes:         out.Lanes,
		}
	} else if out.Iterations > 0 || out.MACs > 0 {
		it.Digital = &DigitalStats{Iterations: out.Iterations, MACs: out.MACs}
	}
	return it
}

// apiError maps a chip-checkout or solve failure to its API error. A
// cancelled context (a client gone, a job cancelled mid-solve) keeps its
// own code, distinct from both deadline expiry and server faults.
func (s *Server) apiError(ctx context.Context, err error) *APIError {
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(ctx.Err(), context.DeadlineExceeded):
		s.metrics.deadlineExceeded.Inc()
		return apiErrorf(http.StatusGatewayTimeout, CodeDeadline, "solve aborted by deadline: %v", err)
	case errors.Is(err, context.Canceled):
		return apiErrorf(http.StatusServiceUnavailable, CodeCancelled, "solve cancelled: %v", err)
	case errors.Is(err, core.ErrTooLarge):
		return apiErrorf(http.StatusRequestEntityTooLarge, CodeTooLarge, "%v", err)
	case errors.Is(err, errChipBuild):
		s.metrics.solveErrors.Inc()
		return apiErrorf(http.StatusInternalServerError, CodeInternal, "%v", err)
	default:
		s.metrics.solveErrors.Inc()
		return apiErrorf(http.StatusUnprocessableEntity, CodeSolveFailed, "%v", err)
	}
}
