package core

import (
	"context"
	"fmt"

	"analogacc/internal/la"
)

// SolveOptions tunes the analog solve and refinement loops. The zero value
// gives sensible defaults. The settle schedule is not an option: every
// solve polls on chunks that grow by 1.25× from 2/k (k = 2π·bandwidth) and
// gives up after a fixed (2/k)·(2²⁴ − 1) analog seconds with ErrNotSettled.
type SolveOptions struct {
	// Calibrate runs the chip's init sequence before the first solve on
	// this driver (skipped if already calibrated).
	Calibrate bool
	// Samples is the analogAvg depth for final readout (default 8).
	Samples int
	// MaxRescales bounds the overflow-driven problem rescales (default
	// 40: each rescale costs only the short first chunk in which the
	// overflow latches, and a cold start may need ~log₂(‖u‖·S/‖b‖) of
	// them before the solution fits the dynamic range).
	MaxRescales int
	// SigmaHint, if positive, seeds the solution scale with an expected
	// ‖u‖∞, skipping the exception-driven search on the first run.
	SigmaHint float64
	// DisableBoost turns off the dynamic-range boost: by default a solve
	// whose settled readings use less than a quarter of full scale re-runs
	// (up to twice) with a tighter solution scale.
	DisableBoost bool
	// Tolerance is the refinement target for SolveRefined:
	// ‖b − A·u‖∞ ≤ Tolerance·‖b‖∞ (default 1e-7).
	Tolerance float64
	// MaxRefinements bounds Algorithm 2 passes (default 30).
	MaxRefinements int
	// Guess, if non-nil, digitally seeds SolveRefined's accumulator with
	// an approximate solution before the first analog pass. Refinement
	// then only solves the (rescaled) correction — and skips the analog
	// run entirely when the guess already meets Tolerance. Decomposition
	// sweeps use it with the previous outer iterate: late sweeps change
	// each block very little, so most block solves become pure digital
	// residual checks. The vector is copied, never mutated.
	Guess la.Vector
	// MaxLanes caps how many right-hand sides a batch solve drives
	// lane-parallel through the chip in one wave. 0 means the full
	// MaxBatchLanes; 1 disables the lane path entirely (every item then
	// runs the scalar attempt loop in turn). Values above MaxBatchLanes
	// are clamped.
	MaxLanes int
}

func (o SolveOptions) withDefaults() SolveOptions {
	if o.Samples <= 0 {
		o.Samples = 8
	}
	if o.MaxRescales <= 0 {
		o.MaxRescales = 40
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-7
	}
	if o.MaxRefinements <= 0 {
		o.MaxRefinements = 30
	}
	return o
}

// Stats reports what one solve cost.
type Stats struct {
	// AnalogTime is the analog seconds armed for this call: the paper's
	// convergence-time metric.
	AnalogTime float64
	// Runs counts execStart cycles.
	Runs int
	// Rescales counts overflow- or range-driven re-scalings.
	Rescales int
	// Overflows counts the overflow exceptions latched by the chip (the
	// subset of Rescales driven by the exception mechanism rather than
	// the dynamic-range boost).
	Overflows int
	// Refinements counts Algorithm 2 passes (SolveRefined only).
	Refinements int
	// Scaling records the final value/solution scales used.
	Scaling Scaling
	// Residual is the final digital ‖b − A·u‖∞ / ‖b‖∞.
	Residual float64
	// SettleTime estimates when the final successful run actually
	// settled (analog seconds): the log-interpolated crossing of the
	// residual floor inside the last poll chunk, or that chunk's
	// midpoint when the codes settled after the residual. Chunks grow
	// 1.25×, so it lands within 1.16–1.38× of the settle a poll grid 16×
	// finer than the first chunk sees on fig8's chips
	// (TestSettleTimeTracksFineGrid). AnalogTime, by contrast, is
	// everything armed, including failed scale attempts and the last
	// chunk's overshoot.
	SettleTime float64
	// Lanes is the widest lane wave that produced (part of) this answer:
	// batch solves on a lane-capable chip report the wave width their
	// settle ran at, 0 means every run took the scalar path. Purely
	// observational — lane widths are bit-identical — but it lets callers
	// (and the CI smoke) assert the vectorized path actually engaged
	// instead of silently falling back.
	Lanes int
}

func (s *Stats) add(other Stats) {
	s.AnalogTime += other.AnalogTime
	s.Runs += other.Runs
	s.Rescales += other.Rescales
	s.Overflows += other.Overflows
	if other.Lanes > s.Lanes {
		s.Lanes = other.Lanes
	}
}

// Session is a compiled system resident on the chip: the matrix gains and
// routing are committed once, and successive right-hand sides (refinement
// residuals, decomposition sweeps) only rewrite DAC constants.
type Session struct {
	acc *Accelerator
	a   Matrix
	// fp is la.Fingerprint(a): the session's cache identity. Ownership
	// checks (adoption in BeginSession, re-acquisition in ensureOwned)
	// compare fingerprints instead of deep-scanning both matrices; build
	// with -tags fpdebug to re-verify every match entry-for-entry.
	fp uint64
	as scaledView
	sc Scaling
	n  int
	// sigmaGain remembers the learned ratio sigma·S/‖rhs‖∞ from the last
	// successful solve, so later right-hand sides (refinement residuals,
	// decomposition sweeps, batch items) start at the right dynamic-range
	// scale instead of re-running the exception-driven search.
	sigmaGain float64
	// baseS is the compile-time value scale; dynamic-range boosts may
	// grow sc.S (softer gains, more time) but only up to a bounded
	// multiple of baseS — boosts are sticky for the session, and without
	// the bound repeated solves would dilate time without limit.
	baseS float64
	// scratch holds the per-solve work buffers, sized once per session so
	// repeated right-hand sides — refinement passes, sweeps, and batch
	// items — allocate nothing beyond each result vector.
	scratch solveScratch
}

// solveScratch is the reusable working set of the settle loop. A session
// is single-threaded by construction (it drives one chip), so one set
// suffices.
type solveScratch struct {
	bs    la.Vector // scaled right-hand side of the job being programmed
	tols  la.Vector // per-row settle tolerances
	uHat  la.Vector // full-scale readings (poll codes, then the readout)
	resid la.Vector // digitally reconstructed residual
	job   settleJob // a scalar solve's one job
	// rowSums holds the absolute row sums of A/S at value scale rowSumsS
	// (0 before the first walk); see Session.rowSums.
	rowSums  la.Vector
	rowSumsS float64
	// slots holds each wave position's bias and poll buffers: slot 0
	// serves scalar solves, and lane waves grow it on first use.
	slots []waveSlot
}

func newSolveScratch(n int) solveScratch {
	return solveScratch{
		bs:      la.NewVector(n),
		tols:    la.NewVector(n),
		rowSums: la.NewVector(n),
		uHat:    la.NewVector(n),
		resid:   la.NewVector(n),
		slots:   []waveSlot{newWaveSlot(n)},
	}
}

// BeginSession compiles A onto the chip with zero biases. The matrix must
// fit (see Fits); larger systems go through SolveDecomposed.
func (acc *Accelerator) BeginSession(a Matrix) (*Session, error) {
	s := matrixScale(a, acc.spec.MaxGain)
	as := newScaledView(a, s)
	sess := &Session{
		acc: acc, a: a, fp: la.Fingerprint(a), as: as,
		sc: Scaling{S: s, Sigma: 1}, n: a.Dim(), baseS: s,
		scratch: newSolveScratch(a.Dim()),
	}
	// Adoption fast path: if the chip already holds an identical matrix at
	// the same scale (a pinned session for this block, a cached session
	// from an earlier request on a pooled chip, or another block with the
	// same interior stencil), take ownership of the programmed
	// configuration instead of recompiling it. Identity is the
	// fingerprint, O(nnz) to hash once against O(nnz) per candidate for a
	// deep scan. Biases are stale either way — every SolveFor rewrites
	// them before running.
	if cur := acc.current; cur != nil && cur.n == sess.n && cur.sc.S == s &&
		cur.fp == sess.fp && fpVerify(cur.a, a) {
		acc.current = sess
		return sess, nil
	}
	if err := acc.program(as, la.NewVector(a.Dim()), nil); err != nil {
		return nil, err
	}
	acc.current = sess
	return sess, nil
}

// Fingerprint returns the session matrix's cache identity
// (la.Fingerprint of A).
func (s *Session) Fingerprint() uint64 { return s.fp }

// ensureOwned makes the session's matrix the one programmed on the chip.
// If another session with an identical scaled matrix owns the chip (all
// interior blocks of a regular decomposition), ownership transfers without
// reprogramming; otherwise the gains and routing are recompiled.
func (s *Session) ensureOwned() error {
	cur := s.acc.current
	if cur == s {
		return nil
	}
	if cur != nil && cur.n == s.n && cur.sc.S == s.sc.S &&
		cur.fp == s.fp && fpVerify(cur.a, s.a) {
		s.acc.current = s
		return nil
	}
	if err := s.acc.program(s.as, la.NewVector(s.n), nil); err != nil {
		return err
	}
	s.acc.current = s
	return nil
}

// Scaling returns the session's value scale (Sigma reflects the last solve).
func (s *Session) Scaling() Scaling { return s.sc }

// SolveFor solves A·u = rhs using the session's compiled matrix and
// returns u. The chip's exception mechanism drives automatic rescaling:
// overflow halves the solution scale and retries; a settled solution using
// almost none of the dynamic range is re-run at a tighter scale for
// precision.
func (s *Session) SolveFor(rhs la.Vector, opt SolveOptions) (la.Vector, Stats, error) {
	return s.SolveForCtx(context.Background(), rhs, opt)
}

// SolveForCtx is SolveFor under a context: the host polls ctx at every
// rescale attempt and at every settle-poll chunk boundary. Each armed run
// is already bounded by the chip's timeout timer, so control returns to
// the host (and the context is observed) within one poll chunk — a
// cancelled or expired deadline aborts the solve with ctx's error, leaving
// the chip held but reusable (the next solve reprograms it).
func (s *Session) SolveForCtx(ctx context.Context, rhs la.Vector, opt SolveOptions) (la.Vector, Stats, error) {
	opt = opt.withDefaults()
	stats := Stats{Scaling: s.sc}
	if len(rhs) != s.n {
		return nil, stats, fmt.Errorf("core: rhs length %d != %d", len(rhs), s.n)
	}
	if rhs.NormInf() == 0 {
		return la.NewVector(s.n), stats, nil
	}
	if err := s.prepare(opt); err != nil {
		return nil, stats, err
	}
	job := &s.scratch.job
	*job = settleJob{rhs: rhs, gain: s.sigmaGain}
	s.startJob(job, opt)
	if err := s.attempts(ctx, job, opt); err != nil {
		return nil, job.stats, err
	}
	s.sc.Sigma, s.sigmaGain = job.sigma, job.gain
	return job.u, job.stats, nil
}

// attempts is the scalar attempt loop: each attempt is a one-job wave on
// scalarLane through the settle loop lane waves use, so a right-hand side
// costs and reports the same whether it solves alone or in a wave. An
// overflow doubles σ inside the settle loop; an answer deep inside the
// dynamic range boosts the session's value scale and runs again.
func (s *Session) attempts(ctx context.Context, job *settleJob, opt SolveOptions) error {
	wave := []*settleJob{job}
	tols, floor := s.settleTolerances()
	for {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: solve aborted before attempt %d: %w", job.stats.Rescales, err)
		}
		if err := s.programWave(wave, floor, false); err != nil {
			return err
		}
		if job.err == nil {
			// An overflow doubles σ inside the loop; this loop is the
			// requeue, so the returned list is not needed.
			if _, err := s.settleWave(ctx, wave, opt, tols, nil); err != nil {
				return err
			}
		}
		switch {
		case job.err != nil:
			return job.err
		case job.done:
			return nil
		case job.fallback:
			// Dynamic-range check (Section III-B): the answer sits deep
			// inside the range, so re-run at a larger value scale S
			// (softer gains) with a proportionally smaller solution scale
			// — the DAC is already at full range, so more solution range
			// can only be bought with time, exactly the inset's
			// time-scaling trade.
			job.fallback = false
			f := 0.5 / job.peak
			if f > 8 {
				f = 8
			}
			if s.sc.S*f > s.baseS*16 {
				f = s.baseS * 16 / s.sc.S
			}
			s.sc.S *= f
			s.as = newScaledView(s.a, s.sc.S)
			job.sigma /= f
			if err := s.acc.program(s.as, la.NewVector(s.n), nil); err != nil {
				return err
			}
			s.acc.current = s
			job.boosts++
			if !job.rescale(opt) {
				return job.err
			}
			tols, floor = s.settleTolerances()
		}
	}
}

// Solve compiles and solves A·u = b in one shot: one analog run's worth of
// precision (bounded by the ADC), Section IV-A's basic usage.
func (acc *Accelerator) Solve(a Matrix, b la.Vector, opt SolveOptions) (la.Vector, Stats, error) {
	return acc.SolveCtx(context.Background(), a, b, opt)
}

// SolveCtx is Solve under a context (see Session.SolveForCtx for the
// cancellation points).
func (acc *Accelerator) SolveCtx(ctx context.Context, a Matrix, b la.Vector, opt SolveOptions) (la.Vector, Stats, error) {
	sess, err := acc.BeginSession(a)
	if err != nil {
		return nil, Stats{}, err
	}
	return sess.SolveForCtx(ctx, b, opt)
}

// SolveRefined runs Algorithm 2: repeated analog solves against the
// current residual, accumulating the solution digitally, until the
// residual meets opt.Tolerance. Each pass re-uses the committed matrix and
// rescales the residual to full dynamic range, so every run contributes
// roughly ADC-resolution fresh bits — this is how "precision of the
// results ... can be increased arbitrarily irrespective of the resolution
// of the analog-to-digital converter".
func (acc *Accelerator) SolveRefined(a Matrix, b la.Vector, opt SolveOptions) (la.Vector, Stats, error) {
	return acc.SolveRefinedCtx(context.Background(), a, b, opt)
}

// SolveRefinedCtx is SolveRefined under a context: the context is polled
// between refinement passes and inside every analog solve.
func (acc *Accelerator) SolveRefinedCtx(ctx context.Context, a Matrix, b la.Vector, opt SolveOptions) (la.Vector, Stats, error) {
	sess, err := acc.BeginSession(a)
	if err != nil {
		return nil, Stats{}, err
	}
	return sess.SolveForRefinedCtx(ctx, b, opt)
}

// SolveForRefined is Algorithm 2 against an existing session.
func (s *Session) SolveForRefined(b la.Vector, opt SolveOptions) (la.Vector, Stats, error) {
	return s.SolveForRefinedCtx(context.Background(), b, opt)
}

// SolveForRefinedCtx is SolveForRefined under a context, a one-item
// SolveBatchRefinedItems seeded with opt.Guess and the session's learned
// gain: cancellation is checked before every refinement pass (and inside
// each pass's rescale and settle loops), and a failed solve returns no
// vector, only the stats of the passes it ran.
func (s *Session) SolveForRefinedCtx(ctx context.Context, b la.Vector, opt SolveOptions) (la.Vector, Stats, error) {
	items := []BatchItem{{RHS: b, Guess: opt.Guess, SigmaGain: s.sigmaGain}}
	us, stats, _, err := s.SolveBatchRefinedItems(ctx, items, opt)
	if err != nil {
		return nil, stats[0], err
	}
	return us[0], stats[0], nil
}

// SolveBatch solves A·u = rhs[k] for every right-hand side against the one
// compiled session: the matrix is programmed (at most) once and only the
// DAC biases are rewritten between items, so a batch of N costs one
// configuration instead of N. On a chip with lane-batched mode the items
// additionally solve lane-parallel, up to MaxBatchLanes per wave, all
// sharing each integration sweep. Every item solves from batch-entry
// session state (see solvePass), so results are identical whichever way
// the items run — and identical to solving each right-hand side alone
// against a fresh copy of this session. The session leaves carrying the
// last item's learned state. Results and per-item stats are positional;
// the first failing item aborts the batch with its index in the error
// (a one-item batch fails like SolveForCtx).
func (s *Session) SolveBatch(ctx context.Context, rhs []la.Vector, opt SolveOptions) ([]la.Vector, []Stats, error) {
	opt = opt.withDefaults()
	us := make([]la.Vector, len(rhs))
	stats := make([]Stats, len(rhs))
	for k, b := range rhs {
		if len(b) != s.n {
			return nil, stats, itemErr(k, len(rhs), fmt.Errorf("core: rhs length %d != %d", len(b), s.n))
		}
	}
	jobs := make([]settleJob, len(rhs))
	pass := make([]*settleJob, 0, len(rhs))
	for k, b := range rhs {
		if b.NormInf() == 0 {
			us[k] = la.NewVector(s.n)
			stats[k] = Stats{Scaling: s.sc}
			continue
		}
		jobs[k] = settleJob{idx: k, rhs: b, gain: s.sigmaGain}
		pass = append(pass, &jobs[k])
	}
	if len(pass) == 0 {
		return us, stats, nil
	}
	err := s.solvePass(ctx, pass, opt)
	for _, job := range pass {
		stats[job.idx] = job.stats
	}
	if err != nil {
		return nil, stats, err
	}
	for _, job := range pass {
		if job.err != nil {
			return nil, stats, itemErr(job.idx, len(rhs), job.err)
		}
		us[job.idx] = job.u
	}
	last := pass[len(pass)-1]
	if err := s.setScale(last.stats.Scaling.S); err != nil {
		return nil, stats, err
	}
	s.sc.Sigma, s.sigmaGain = last.sigma, last.gain
	return us, stats, nil
}

// SolveBatchRefined is SolveBatch with Algorithm 2 refinement per item:
// every right-hand side is driven to opt.Tolerance while the matrix stays
// resident across the whole batch, with each refinement pass vectorized
// across lanes where the chip supports it.
func (s *Session) SolveBatchRefined(ctx context.Context, rhs []la.Vector, opt SolveOptions) ([]la.Vector, []Stats, error) {
	items := make([]BatchItem, len(rhs))
	for k, b := range rhs {
		items[k] = BatchItem{RHS: b, Guess: opt.Guess, SigmaGain: s.sigmaGain}
	}
	us, stats, _, err := s.SolveBatchRefinedItems(ctx, items, opt)
	return us, stats, err
}

// SolveBatchRefinedItems is Algorithm 2, the one refinement loop behind
// every refined solve: each pass solves the residuals of the items not yet
// at opt.Tolerance as one solvePass (a lane wave where the chip has lanes),
// each at its own learned scale, and accumulates the corrections
// digitally. Per-item Guess seeds the digital accumulator and per-item
// SigmaGain seeds the dynamic-range scale — the state a decomposition
// sweep carries per block. Returns positional solutions, stats, and each
// item's learned sigmaGain for the caller to thread into its next batch;
// the session leaves carrying the last item's. On failure the solutions
// are nil and the stats hold the passes that ran.
func (s *Session) SolveBatchRefinedItems(ctx context.Context, items []BatchItem, opt SolveOptions) ([]la.Vector, []Stats, []float64, error) {
	opt = opt.withDefaults()
	us := make([]la.Vector, len(items))
	stats := make([]Stats, len(items))
	gains := make([]float64, len(items))
	for k, it := range items {
		gains[k] = it.SigmaGain
		switch {
		case len(it.RHS) != s.n:
			return nil, stats, gains, itemErr(k, len(items), fmt.Errorf("core: rhs length %d != %d", len(it.RHS), s.n))
		case it.Guess != nil && len(it.Guess) != s.n:
			return nil, stats, gains, itemErr(k, len(items), fmt.Errorf("core: guess length %d != %d", len(it.Guess), s.n))
		}
	}
	// Refinement already rescales every residual to full dynamic range,
	// so the per-solve boost buys nothing here — and being sticky, it
	// would keep dilating the session's time scale across passes.
	opt.DisableBoost = true
	// jobs[k] carries item k between passes: its residual as rhs, its
	// learned gain, and the σ of its last pass.
	jobs := make([]settleJob, len(items))
	residuals := make(la.Vector, len(items)*s.n)
	for k, it := range items {
		us[k] = la.NewVector(s.n)
		stats[k] = Stats{Scaling: s.sc}
		r := residuals[k*s.n : (k+1)*s.n]
		jobs[k] = settleJob{idx: k, rhs: r, gain: it.SigmaGain, sigma: s.sc.Sigma}
		if it.Guess != nil && it.RHS.NormInf() != 0 {
			us[k].CopyFrom(it.Guess)
			// r = b − A·guess: refinement then solves only the
			// correction, in full digital precision.
			s.residual(r, it.RHS, us[k])
		} else {
			r.CopyFrom(it.RHS)
		}
	}
	active := make([]*settleJob, 0, len(items))
	for pass := 0; pass < opt.MaxRefinements; pass++ {
		active = active[:0]
		for k, it := range items {
			bn := it.RHS.NormInf()
			if bn != 0 && jobs[k].rhs.NormInf() > opt.Tolerance*bn {
				active = append(active, &jobs[k])
			}
		}
		if len(active) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, stats, gains, fmt.Errorf("core: refinement aborted before pass %d: %w", pass, err)
		}
		if err := s.solvePass(ctx, active, opt); err != nil {
			return nil, stats, gains, err
		}
		for _, job := range active {
			if job.err != nil {
				return nil, stats, gains, itemErr(job.idx, len(items),
					fmt.Errorf("core: refinement pass %d: %w", pass, job.err))
			}
		}
		for _, job := range active {
			k := job.idx
			stats[k].add(job.stats)
			stats[k].SettleTime += job.stats.SettleTime
			stats[k].Refinements++
			us[k].Add(job.u)
			gains[k] = job.gain
			if !s.residual(job.rhs, items[k].RHS, us[k]) {
				return nil, stats, gains, itemErr(k, len(items), fmt.Errorf("core: refinement diverged at pass %d", pass))
			}
		}
	}
	last := -1
	for k, it := range items {
		bn := it.RHS.NormInf()
		if bn == 0 {
			continue
		}
		stats[k].Residual = jobs[k].rhs.NormInf() / bn
		stats[k].Scaling = Scaling{S: s.sc.S, Sigma: jobs[k].sigma}
		if stats[k].Residual > opt.Tolerance {
			return nil, stats, gains, itemErr(k, len(items), fmt.Errorf("core: residual %v after %d refinements (target %v): %w",
				stats[k].Residual, opt.MaxRefinements, opt.Tolerance, ErrNotSettled))
		}
		last = k
	}
	if last >= 0 {
		s.sc.Sigma, s.sigmaGain = jobs[last].sigma, gains[last]
	}
	return us, stats, gains, nil
}

// residual writes r = b − A·u in full digital precision and reports
// whether it stayed finite.
func (s *Session) residual(r, b, u la.Vector) bool {
	s.a.Apply(r, u)
	for i := range r {
		r[i] = b[i] - r[i]
	}
	return r.IsFinite()
}
