package core

import (
	"context"
	"errors"
	"fmt"

	"analogacc/internal/la"
)

// MaxBatchLanes bounds how many right-hand sides one wave drives through
// the chip's lane-batched mode. The host never asks for more; a chip with
// a smaller lane file rejects setLanes with StatusExceeded and the batch
// falls back to sequential solves.
const MaxBatchLanes = 16

// errLanesUnsupported signals (internally) that the device behind this
// driver has no lane-batched mode: either it answered setLanes with
// StatusBadOpcode (an older device), or the commit rejected the lane
// configuration (noisy spec, non-fused engine). The batch entry points
// catch it and run the scalar sequential path instead.
var errLanesUnsupported = errors.New("core: device has no lane-batched mode")

// BatchItem is one right-hand side of SolveBatchRefinedItems, carrying the
// per-item state a caller (the decomposition sweep) threads across calls:
// a digital initial guess and the learned dynamic-range gain from this
// item's previous solve (0 = cold start).
type BatchItem struct {
	RHS       la.Vector
	Guess     la.Vector
	SigmaGain float64
}

// startSigma is the solution-scale policy of a solve attempt: the learned
// gain (or an explicit hint) seeds sigma, floored so the scaled bias still
// fits the bias-gain path. Factored out of SolveForCtx so the lane engine
// starts every job at exactly the scale the scalar path would.
func (s *Session) startSigma(rhs la.Vector, gain float64, opt SolveOptions) float64 {
	sigma := initialSigma(rhs, s.sc.S)
	if opt.SigmaHint > 0 {
		sigma = opt.SigmaHint
	} else if gain > 0 {
		sigma = gain * rhs.NormInf() / s.sc.S
	}
	// The scaled bias must fit the bias path: σ may never fall below the
	// DAC-filling value (smaller σ would need gain > MaxGain).
	if floor := initialSigma(rhs, s.sc.S) * margin / (margin * s.acc.spec.MaxGain); sigma < floor {
		sigma = floor
	}
	return sigma
}

// restoreScale reprograms the session at value scale S if a dynamic-range
// boost moved it. Batch items all solve from batch-entry state, so a boost
// a fallback item picked up must not leak into its successors.
func (s *Session) restoreScale(entryS float64) error {
	if s.sc.S == entryS {
		return nil
	}
	s.sc.S = entryS
	s.as = newScaledView(s.a, entryS)
	if err := s.acc.program(s.as, la.NewVector(s.n), nil); err != nil {
		return err
	}
	s.acc.current = s
	return nil
}

// laneEligible reports whether a batch of nItems may try the lane-batched
// path. Lanes model a noise-free datapath (one shared op stream cannot
// carry independent noise draws), need at least two items to pay for the
// mode switch, and only the fused engine family implements them.
func (s *Session) laneEligible(nItems int, opt SolveOptions) bool {
	if nItems < 2 || opt.MaxLanes == 1 {
		return false
	}
	if s.acc.spec.NoiseSigma != 0 || s.acc.laneSupport < 0 {
		return false
	}
	switch opt.Engine {
	case "", "auto", "fused":
		return true
	}
	return false
}

// laneBatchPrep readies the chip for lane waves: calibration, matrix
// ownership, and the fused engine (lanes only exist there; all engines are
// bit-identical so forcing it never changes a result).
func (s *Session) laneBatchPrep(opt SolveOptions) error {
	if opt.Calibrate && !s.acc.calibrated {
		if _, err := s.acc.Calibrate(); err != nil {
			return err
		}
	}
	if err := s.ensureOwned(); err != nil {
		return err
	}
	// No engine knob (not an in-memory simulated chip) is fine: the
	// setLanes probe decides whether the device has lanes.
	if err := s.acc.SelectEngine("fused"); err != nil && !errors.Is(err, ErrEngineUnavailable) {
		return err
	}
	return nil
}

// exitLaneMode returns the chip to scalar mode after a batch. It must run
// on every exit from the wave engine: committed lane state would otherwise
// ride along with the next scalar commit.
func (s *Session) exitLaneMode() error {
	if err := s.acc.host.SetLanes(0); err != nil {
		return err
	}
	if err := s.acc.host.CfgCommit(); err != nil {
		return fmt.Errorf("core: leaving lane mode: %w", err)
	}
	return nil
}

// runLaneWaves drives every queued job to completion (result, fallback
// mark, or error) through lane waves of up to MaxLanes right-hand sides.
// Overflowed jobs rejoin the queue at a doubled sigma, exactly one scalar
// rescale attempt each. Any job-level failure stops the engine early (the
// batch aborts); the chip is returned to scalar mode on every exit.
func (s *Session) runLaneWaves(ctx context.Context, queue []*settleJob, opt SolveOptions) (err error) {
	width := opt.MaxLanes
	if width <= 0 || width > MaxBatchLanes {
		width = MaxBatchLanes
	}
	tols, floor := s.settleTolerances()
	entered := false
	defer func() {
		if entered {
			if rerr := s.exitLaneMode(); rerr != nil && err == nil {
				err = rerr
			}
		}
	}()
	for len(queue) > 0 {
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("core: batch aborted with %d solves pending: %w", len(queue), cerr)
		}
		b := width
		if b > len(queue) {
			b = len(queue)
		}
		wave := queue[:b]
		queue = queue[b:]
		if perr := s.programWave(wave, floor, true); perr != nil {
			return perr
		}
		for _, job := range wave {
			if job.err != nil {
				return nil // unresolvable at this sigma: caller reports
			}
		}
		entered = true
		if s.acc.laneSupport == 0 {
			s.acc.laneSupport = 1
		}
		// Overflowed jobs rejoin the back of the queue.
		var serr error
		if queue, serr = s.settleWave(ctx, wave, opt, tols, queue); serr != nil {
			return serr
		}
		for _, job := range wave {
			if job.err != nil {
				return nil // settle/rescale failure: caller reports
			}
			if job.done && job.stats.Lanes < len(wave) {
				job.stats.Lanes = len(wave)
			}
		}
	}
	return nil
}

// solveBatchLanes is SolveBatch's lane-parallel path: every item solves
// from batch-entry session state (entry sigmaGain, entry value scale), so
// results are independent of wave packing and identical to solving each
// right-hand side alone. Returns errLanesUnsupported untouched when the
// device has no lane mode.
func (s *Session) solveBatchLanes(ctx context.Context, rhs []la.Vector, opt SolveOptions, us []la.Vector, stats []Stats) error {
	if err := s.laneBatchPrep(opt); err != nil {
		return err
	}
	entryS, entryGain := s.sc.S, s.sigmaGain
	jobs := make([]settleJob, len(rhs))
	queue := make([]*settleJob, 0, len(rhs))
	for k, b := range rhs {
		j := &jobs[k]
		j.idx = k
		j.rhs = b
		if b.NormInf() == 0 {
			j.u = la.NewVector(s.n)
			j.stats = Stats{Scaling: s.sc}
			j.done = true
			continue
		}
		j.sigma = s.startSigma(b, entryGain, opt)
		queue = append(queue, j)
	}
	if err := s.runLaneWaves(ctx, queue, opt); err != nil {
		for k := range jobs {
			stats[k] = jobs[k].stats
		}
		return err
	}
	// Boost fallbacks rerun on the scalar path, each from entry state; the
	// lane attempt is discarded wholesale so the item's result and stats
	// are exactly a standalone scalar solve's.
	for k := range jobs {
		job := &jobs[k]
		if !job.fallback || job.err != nil {
			continue
		}
		if err := s.restoreScale(entryS); err != nil {
			job.err = err
			break
		}
		s.sigmaGain = entryGain
		u, st, err := s.SolveForCtx(ctx, job.rhs, opt)
		job.stats = st
		if err != nil {
			job.err = err
			break
		}
		job.u = u
		job.gainOut = s.sigmaGain
		job.done = true
	}
	for k := range jobs {
		stats[k] = jobs[k].stats
		us[k] = jobs[k].u
	}
	for k := range jobs {
		if jobs[k].err != nil {
			return fmt.Errorf("core: batch rhs %d: %w", k, jobs[k].err)
		}
	}
	// The session leaves the batch carrying the last solved item's learned
	// state, matching what a caller threading items one at a time would
	// observe last.
	for k := len(jobs) - 1; k >= 0; k-- {
		job := &jobs[k]
		if job.rhs.NormInf() == 0 {
			continue
		}
		if !job.fallback {
			if err := s.restoreScale(entryS); err != nil {
				return err
			}
			s.sc.Sigma = job.sigma
			s.sigmaGain = job.gainOut
		}
		break
	}
	return nil
}

// solveBatchSequential is the scalar batch path, kept semantically
// identical to the lane path: every item solves from batch-entry state, so
// a batch computes the same numbers whether or not the device has lanes.
func (s *Session) solveBatchSequential(ctx context.Context, rhs []la.Vector, opt SolveOptions, us []la.Vector, stats []Stats) error {
	entryS, entryGain := s.sc.S, s.sigmaGain
	for k, b := range rhs {
		if err := s.restoreScale(entryS); err != nil {
			return fmt.Errorf("core: batch rhs %d: %w", k, err)
		}
		s.sigmaGain = entryGain
		u, st, err := s.SolveForCtx(ctx, b, opt)
		stats[k] = st
		if err != nil {
			return fmt.Errorf("core: batch rhs %d: %w", k, err)
		}
		us[k] = u
	}
	return nil
}

// SolveBatchRefinedItems drives every item to opt.Tolerance by Algorithm 2
// refinement, vectorizing each refinement pass across lanes: the active
// items' residuals solve as one wave, each at its own learned scale.
// Per-item Guess seeds the digital accumulator and per-item SigmaGain
// seeds the dynamic-range scale — the state a decomposition sweep carries
// per block. Returns positional solutions, stats, and each item's learned
// sigmaGain for the caller to thread into its next batch.
func (s *Session) SolveBatchRefinedItems(ctx context.Context, items []BatchItem, opt SolveOptions) ([]la.Vector, []Stats, []float64, error) {
	opt = opt.withDefaults()
	us := make([]la.Vector, len(items))
	stats := make([]Stats, len(items))
	gains := make([]float64, len(items))
	for k, it := range items {
		if len(it.RHS) != s.n {
			return nil, stats, gains, fmt.Errorf("core: batch rhs %d: core: rhs length %d != %d", k, len(it.RHS), s.n)
		}
		if it.Guess != nil && len(it.Guess) != s.n {
			return nil, stats, gains, fmt.Errorf("core: batch rhs %d: core: guess length %d != %d", k, len(it.Guess), s.n)
		}
		gains[k] = it.SigmaGain
	}
	if s.laneEligible(len(items), opt) {
		handled, err := s.solveBatchRefinedLanes(ctx, items, opt, us, stats, gains)
		if err != nil {
			return nil, stats, gains, err
		}
		if handled {
			return us, stats, gains, nil
		}
	}
	for k, it := range items {
		s.sigmaGain = it.SigmaGain
		o := opt
		o.Guess = it.Guess
		u, st, err := s.SolveForRefinedCtx(ctx, it.RHS, o)
		stats[k] = st
		gains[k] = s.sigmaGain
		if err != nil {
			return nil, stats, gains, fmt.Errorf("core: batch rhs %d: %w", k, err)
		}
		us[k] = u
	}
	return us, stats, gains, nil
}

// solveBatchRefinedLanes is the wave-vectorized Algorithm 2 loop. Returns
// handled=false (and no error) when the lane probe finds no device
// support, before anything has been solved — the caller then runs the
// sequential path from scratch.
func (s *Session) solveBatchRefinedLanes(ctx context.Context, items []BatchItem, opt SolveOptions, us []la.Vector, stats []Stats, gains []float64) (bool, error) {
	if err := s.laneBatchPrep(opt); err != nil {
		return true, err
	}
	// Refinement already rescales every residual to full dynamic range, so
	// the per-solve boost buys nothing (and it could not be applied per
	// lane anyway): same forced setting as the scalar refined loop.
	lopt := opt
	lopt.DisableBoost = true
	residuals := make([]la.Vector, len(items))
	bns := make([]float64, len(items))
	sigmas := make([]float64, len(items))
	for k, it := range items {
		us[k] = la.NewVector(s.n)
		stats[k] = Stats{Scaling: s.sc}
		sigmas[k] = s.sc.Sigma
		bns[k] = it.RHS.NormInf()
		if bns[k] == 0 {
			continue
		}
		residuals[k] = la.NewVector(s.n)
		if it.Guess != nil {
			us[k].CopyFrom(it.Guess)
			s.a.Apply(residuals[k], us[k])
			for i := range residuals[k] {
				residuals[k][i] = it.RHS[i] - residuals[k][i]
			}
		} else {
			residuals[k].CopyFrom(it.RHS)
		}
	}
	jobs := make([]settleJob, len(items))
	active := make([]*settleJob, 0, len(items))
	accumulate := func(k, pass int, u la.Vector, st Stats, sigma, gain float64) error {
		stats[k].add(st)
		stats[k].SettleTime += st.SettleTime
		stats[k].Refinements++
		us[k].Add(u)
		sigmas[k] = sigma
		gains[k] = gain
		s.a.Apply(residuals[k], us[k])
		for i := range residuals[k] {
			residuals[k][i] = items[k].RHS[i] - residuals[k][i]
		}
		if !residuals[k].IsFinite() {
			return fmt.Errorf("core: batch rhs %d: core: refinement diverged at pass %d", k, pass)
		}
		return nil
	}
	solvedAny := false
	for pass := 0; pass < opt.MaxRefinements; pass++ {
		active = active[:0]
		for k := range items {
			if bns[k] == 0 || residuals[k].NormInf() <= opt.Tolerance*bns[k] {
				continue
			}
			j := &jobs[k]
			*j = settleJob{idx: k, rhs: residuals[k]}
			j.sigma = s.startSigma(residuals[k], gains[k], lopt)
			active = append(active, j)
		}
		if len(active) == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			return true, fmt.Errorf("core: refinement aborted before pass %d: %w", pass, err)
		}
		if len(active) == 1 {
			// One item left: a scalar pass is bit-identical and skips the
			// lane-mode round trip.
			k := active[0].idx
			s.sigmaGain = gains[k]
			u, st, err := s.SolveForCtx(ctx, residuals[k], lopt)
			if err != nil {
				return true, fmt.Errorf("core: batch rhs %d: core: refinement pass %d: %w", k, pass, err)
			}
			solvedAny = true
			if err := accumulate(k, pass, u, st, st.Scaling.Sigma, s.sigmaGain); err != nil {
				return true, err
			}
			continue
		}
		if err := s.runLaneWaves(ctx, active, lopt); err != nil {
			if errors.Is(err, errLanesUnsupported) && !solvedAny {
				return false, nil
			}
			return true, err
		}
		for _, j := range active {
			if j.err != nil {
				return true, fmt.Errorf("core: batch rhs %d: core: refinement pass %d: %w", j.idx, pass, j.err)
			}
		}
		solvedAny = true
		for _, j := range active {
			if err := accumulate(j.idx, pass, j.u, j.stats, j.sigma, j.gainOut); err != nil {
				return true, err
			}
		}
	}
	lastSolved := -1
	for k := range items {
		if bns[k] == 0 {
			stats[k].Scaling = s.sc
			continue
		}
		rn := residuals[k].NormInf() / bns[k]
		stats[k].Residual = rn
		stats[k].Scaling = Scaling{S: s.sc.S, Sigma: sigmas[k]}
		lastSolved = k
		if rn > opt.Tolerance {
			return true, fmt.Errorf("core: batch rhs %d: core: residual %v after %d refinements (target %v): %w",
				k, rn, opt.MaxRefinements, opt.Tolerance, ErrNotSettled)
		}
	}
	if lastSolved >= 0 {
		s.sc.Sigma = sigmas[lastSolved]
		s.sigmaGain = gains[lastSolved]
	}
	return true, nil
}
