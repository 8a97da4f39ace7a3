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
// configuration (a noisy spec, or a chip built on the interpreter
// engine). The pass executor catches it and runs its jobs scalar instead;
// the probe is not repeated (Accelerator.laneSupport).
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
// fits the bias-gain path.
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

// startJob readies a job for its first attempt at the session's current
// value scale: σ from the job's learned gain, every other field fresh.
func (s *Session) startJob(job *settleJob, opt SolveOptions) {
	*job = settleJob{
		idx: job.idx, rhs: job.rhs, gain: job.gain,
		sigma: s.startSigma(job.rhs, job.gain, opt),
		stats: Stats{Scaling: s.sc},
	}
}

// setScale reprograms the session at value scale S if a dynamic-range
// boost moved it. Batch items all solve from batch-entry state, so a boost
// one item picked up must not leak into its successors.
func (s *Session) setScale(S float64) error {
	if s.sc.S == S {
		return nil
	}
	s.sc.S = S
	s.as = newScaledView(s.a, S)
	if err := s.acc.program(s.as, la.NewVector(s.n), nil); err != nil {
		return err
	}
	s.acc.current = s
	return nil
}

// prepare readies the chip for a pass: calibration when asked, and the
// session's matrix programmed.
func (s *Session) prepare(opt SolveOptions) error {
	if opt.Calibrate && !s.acc.calibrated {
		if _, err := s.acc.Calibrate(); err != nil {
			return err
		}
	}
	return s.ensureOwned()
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

// solvePass is the one executor under every batch entry point: it readies
// the chip and settles each job's right-hand side once, leaving the job
// done (u, gain, stats) or failed (err). Every job solves from the
// session's entry state — the entry value scale, and σ from its own
// learned gain — so an answer does not depend on how the jobs are packed.
// At least two jobs on a chip with lanes ride lane waves, and a lane job
// that settles deep inside the dynamic range reruns alone from entry
// state, because a boost reprograms the value scale all lanes share.
// Otherwise each job runs the scalar attempt loop in turn. A failed job
// ends the pass early, leaving later jobs unsolved; callers report the
// first failed job in order. The returned error is the lane engine's own
// transport or context failure.
func (s *Session) solvePass(ctx context.Context, jobs []*settleJob, opt SolveOptions) error {
	if err := s.prepare(opt); err != nil {
		return err
	}
	entryS := s.sc.S
	if len(jobs) >= 2 && opt.MaxLanes != 1 && s.acc.spec.NoiseSigma == 0 && s.acc.laneSupport >= 0 {
		// Lanes model a noise-free datapath: one shared op stream cannot
		// carry independent noise draws.
		for _, job := range jobs {
			s.startJob(job, opt)
		}
		err := s.runLaneWaves(ctx, jobs, opt)
		if !errors.Is(err, errLanesUnsupported) {
			if err != nil {
				return err
			}
			for _, job := range jobs {
				if job.err != nil {
					break
				}
				if job.fallback {
					s.runAlone(ctx, job, entryS, opt)
					if job.err != nil {
						break
					}
				}
			}
			return nil
		}
	}
	for _, job := range jobs {
		if s.runAlone(ctx, job, entryS, opt); job.err != nil {
			break
		}
	}
	return nil
}

// runAlone solves one job by the scalar attempt loop from the entry value
// scale; any failure lands in job.err.
func (s *Session) runAlone(ctx context.Context, job *settleJob, entryS float64, opt SolveOptions) {
	if err := s.setScale(entryS); err != nil {
		job.err = err
		return
	}
	s.startJob(job, opt)
	job.err = s.attempts(ctx, job, opt)
}

// itemErr names a failed item's position, unless the batch holds only
// that item: a one-item batch is a solo solve and fails like one.
func itemErr(k, items int, err error) error {
	if items == 1 {
		return err
	}
	return fmt.Errorf("core: batch rhs %d: %w", k, err)
}
