package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"analogacc/internal/isa"
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

// laneJob tracks one right-hand side through the wave engine.
type laneJob struct {
	idx     int       // position in the batch
	rhs     la.Vector // caller's right-hand side (never mutated)
	sigma   float64   // current solution scale attempt
	attempt int       // overflow-driven rescales so far

	// Wave-local settle state, reset when the job joins a wave.
	lane     int
	havePrev bool
	prevT    float64
	prevM    float64
	waveDone bool

	// Results.
	u        la.Vector
	gainOut  float64
	stats    Stats
	err      error
	fallback bool // settled far inside the range: redo on the scalar boost path
	done     bool
}

// batchScratch holds the wave engine's per-lane working set, sized lazily
// and kept on the session so repeated batches allocate nothing new.
type batchScratch struct {
	bq    []la.Vector // per-lane bias as actually quantized
	codes [][]int     // per-lane current settle-poll ADC codes
	prev  [][]int     // per-lane previous poll
	uF    la.Vector   // final per-lane readout buffer
}

func (s *Session) laneScratch(width int) *batchScratch {
	b := &s.batch
	if b.uF == nil {
		b.uF = la.NewVector(s.n)
	}
	for len(b.bq) < width {
		b.bq = append(b.bq, la.NewVector(s.n))
		b.codes = append(b.codes, make([]int, s.n))
		b.prev = append(b.prev, make([]int, s.n))
	}
	return b
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

// programWave computes each job's scaled bias digitally, verifies it is
// resolvable at the ADC's residual floor, then stages and commits the lane
// configuration: lane l carries job l's DAC codes and bias gain while the
// matrix gains stay shared. On an old device the setLanes probe (or the
// commit, for an ineligible datapath) reports errLanesUnsupported.
func (s *Session) programWave(wave []*laneJob, maxTol float64) error {
	h := s.acc.host
	sc := s.laneScratch(len(wave))
	dacLevels := math.Pow(2, float64(s.acc.spec.DACBits)) - 1
	bs := s.scratch.bs
	// Digital half first (bias quantization + verifiability), before any
	// chip traffic: an unresolvable job aborts the batch with nothing
	// staged.
	jobErr := false
	for l, job := range wave {
		job.lane = l
		job.havePrev = false
		job.prevT, job.prevM = 0, math.Inf(1)
		job.waveDone = false
		inv := 1 / (s.sc.S * job.sigma)
		for i, v := range job.rhs {
			bs[i] = v * inv
		}
		gamma := biasGamma(bs, s.acc.spec.MaxGain)
		bq := sc.bq[l]
		for i, v := range bs {
			beta := 0.0
			if gamma != 0 {
				beta = v / gamma
			}
			code := math.Round((beta + 1) / 2 * dacLevels)
			bq[i] = gamma * (code/dacLevels*2 - 1)
		}
		if bqn := bq.NormInf(); bqn > 0 && bqn < maxTol {
			job.err = fmt.Errorf("core: bias %.3g below residual floor %.3g at %d ADC bits: %w",
				bqn, maxTol, s.acc.spec.ADCBits, ErrUnresolvable)
			job.waveDone = true
			jobErr = true
		}
	}
	if jobErr {
		return nil // caller reports the per-job errors
	}
	if err := h.SetLanes(uint16(len(wave))); err != nil {
		var de *isa.DeviceError
		if errors.As(err, &de) && de.Status == isa.StatusBadOpcode && s.acc.laneSupport <= 0 {
			s.acc.laneSupport = -1
			return errLanesUnsupported
		}
		return err
	}
	for l, job := range wave {
		inv := 1 / (s.sc.S * job.sigma)
		for i, v := range job.rhs {
			bs[i] = v * inv
		}
		gamma := biasGamma(bs, s.acc.spec.MaxGain)
		for i, v := range bs {
			beta := 0.0
			if gamma != 0 {
				beta = v / gamma
			}
			if err := h.SetDacConstantLane(uint16(l), uint16(i), beta); err != nil {
				return fmt.Errorf("core: batch rhs %d: bias b[%d]: %w", job.idx, i, err)
			}
			if err := h.SetMulGainLane(uint16(l), uint16(s.acc.biasMulBase+i), gamma); err != nil {
				return fmt.Errorf("core: batch rhs %d: bias gain %d: %w", job.idx, i, err)
			}
		}
	}
	// Analog solves always release the integrators from zero (guesses are
	// digital); every lane inherits the scalar zero registers.
	for i := 0; i < s.n; i++ {
		if err := h.SetIntInitial(uint16(i), 0); err != nil {
			return fmt.Errorf("core: initial condition u[%d]: %w", i, err)
		}
	}
	if err := h.CfgCommit(); err != nil {
		var de *isa.DeviceError
		if errors.As(err, &de) && de.Status == isa.StatusBadState && s.acc.laneSupport <= 0 {
			// The datapath cannot enter lane mode (noisy spec or a
			// non-fused engine on a device without the knob): unstage
			// and fall back without caching — a later engine switch may
			// make lanes viable.
			if e := h.SetLanes(0); e != nil {
				return e
			}
			if e := h.CfgCommit(); e != nil {
				return e
			}
			return errLanesUnsupported
		}
		return fmt.Errorf("core: commit: %w", err)
	}
	return nil
}

// settleWave runs one programmed wave in doubling time chunks — the same
// schedule, tolerances and stability test as the scalar settle loop — with
// per-lane exits: a settled lane is read out immediately (the chip holds
// at the poll boundary, so the reading equals the scalar path's
// post-settle read), an overflowed lane doubles its sigma and rejoins the
// queue, and the rest keep integrating. Per-item stats accrue only for
// chunks run while that item was still pending, which is exactly the work
// the scalar path would have billed it.
func (s *Session) settleWave(ctx context.Context, wave []*laneJob, opt SolveOptions, tols la.Vector, requeue *[]*laneJob) error {
	k := 2 * math.Pi * s.acc.spec.Bandwidth
	chunk := 2 / k
	fs := math.Pow(2, float64(s.acc.spec.ADCBits)) - 1
	lsb := 2.0 / fs
	codeTol := 1 + int(8*s.acc.spec.NoiseSigma/lsb)
	sc := &s.batch
	uHat := s.scratch.uHat
	resid := s.scratch.resid
	elapsed := 0.0
	pending := len(wave)
	for d := 0; d < opt.MaxDoublings && pending > 0; d++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: settle aborted after %d chunks: %w", d, err)
		}
		if err := s.acc.runFor(chunk); err != nil {
			return err
		}
		armed := s.acc.armedDuration(chunk)
		elapsed += chunk
		for _, job := range wave {
			if job.waveDone {
				continue
			}
			job.stats.AnalogTime += armed
			job.stats.Runs++
			exc, err := s.acc.anyExceptionLane(job.lane)
			if err != nil {
				return err
			}
			if exc {
				job.stats.SettleTime = 0
				job.stats.Rescales++
				job.stats.Overflows++
				job.sigma *= 2
				job.attempt++
				job.waveDone = true
				pending--
				if job.attempt > opt.MaxRescales {
					job.err = fmt.Errorf("core: after %d rescales: %w", opt.MaxRescales, ErrRescaleLimit)
				} else {
					*requeue = append(*requeue, job)
				}
				continue
			}
			codes := sc.codes[job.lane]
			if err := s.acc.readCodesLaneInto(job.lane, codes); err != nil {
				return err
			}
			prev := sc.prev[job.lane]
			stable := job.havePrev
			if stable {
				for i, c := range codes {
					if diff := c - prev[i]; diff > codeTol || diff < -codeTol {
						stable = false
						break
					}
				}
			}
			for i, c := range codes {
				uHat[i] = float64(c)/fs*2 - 1
			}
			s.as.Apply(resid, uHat)
			m := 0.0
			bq := sc.bq[job.lane]
			for i := range resid {
				resid[i] = bq[i] - resid[i]
				if r := math.Abs(resid[i]) / tols[i]; r > m {
					m = r
				}
			}
			if stable && m <= 1 {
				settleAt := elapsed - chunk/2
				if !math.IsInf(job.prevM, 1) && job.prevM > 1 && m > 0 && m < job.prevM {
					frac := math.Log(job.prevM) / math.Log(job.prevM/m)
					settleAt = job.prevT + (elapsed-job.prevT)*frac
				}
				if err := s.finishLaneJob(job, settleAt, opt); err != nil {
					return err
				}
				job.waveDone = true
				pending--
				continue
			}
			sc.codes[job.lane], sc.prev[job.lane] = prev, codes
			job.havePrev = true
			job.prevT, job.prevM = elapsed, m
		}
		chunk *= 2
	}
	for _, job := range wave {
		if !job.waveDone {
			job.err = fmt.Errorf("core: sigma=%v: %w", job.sigma, ErrNotSettled)
			job.waveDone = true
		}
	}
	return nil
}

// finishLaneJob reads a settled lane's solution and closes the job. When
// the answer sits deep inside the dynamic range and a boost is allowed,
// the lane result is discarded instead: boosts reprogram the shared value
// scale, which cannot happen per lane, so the item reruns on the scalar
// path from batch-entry state (where the boost logic applies unchanged).
func (s *Session) finishLaneJob(job *laneJob, settleAt float64, opt SolveOptions) error {
	uF := s.batch.uF
	if err := s.acc.readSolutionLaneInto(job.lane, uF, opt.Samples); err != nil {
		return err
	}
	peak := uF.NormInf()
	if !opt.DisableBoost && peak > 0 && peak < 0.25 && s.sc.S < s.baseS*16 {
		job.fallback = true
		return nil
	}
	job.stats.SettleTime = settleAt
	job.u = uF.Scaled(job.sigma)
	job.gainOut = job.sigma * s.sc.S / job.rhs.NormInf()
	job.stats.Scaling = Scaling{S: s.sc.S, Sigma: job.sigma}
	resid := s.scratch.resid
	s.a.Apply(resid, job.u)
	var rn float64
	for i, av := range resid {
		if d := math.Abs(job.rhs[i] - av); d > rn {
			rn = d
		}
	}
	job.stats.Residual = rn / job.rhs.NormInf()
	job.done = true
	return nil
}

// runLaneWaves drives every queued job to completion (result, fallback
// mark, or error) through lane waves of up to MaxLanes right-hand sides.
// Overflowed jobs rejoin the queue at a doubled sigma, exactly one scalar
// rescale attempt each. Any job-level failure stops the engine early (the
// batch aborts); the chip is returned to scalar mode on every exit.
func (s *Session) runLaneWaves(ctx context.Context, queue []*laneJob, opt SolveOptions) (err error) {
	width := opt.MaxLanes
	if width <= 0 || width > MaxBatchLanes {
		width = MaxBatchLanes
	}
	tols := s.settleTolerances()
	var maxTol float64
	for _, tv := range tols {
		if tv > maxTol {
			maxTol = tv
		}
	}
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
		if perr := s.programWave(wave, maxTol); perr != nil {
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
		var requeue []*laneJob
		if serr := s.settleWave(ctx, wave, opt, tols, &requeue); serr != nil {
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
		queue = append(queue, requeue...)
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
	jobs := make([]laneJob, len(rhs))
	queue := make([]*laneJob, 0, len(rhs))
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
	jobs := make([]laneJob, len(items))
	active := make([]*laneJob, 0, len(items))
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
			*j = laneJob{idx: k, rhs: residuals[k]}
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

// --- Accelerator lane plumbing ---

// armedDuration is the analog time one runFor(seconds) actually arms,
// after the timer's cycle quantization; the wave engine uses it to bill
// per-item stats exactly as the scalar path's counter deltas would.
func (acc *Accelerator) armedDuration(seconds float64) float64 {
	cycles := uint32(seconds * acc.spec.TimerHz)
	if cycles == 0 {
		cycles = 1
	}
	return float64(cycles) / acc.spec.TimerHz
}

// anyExceptionLane is anyException against one lane's exception vector.
func (acc *Accelerator) anyExceptionLane(lane int) (bool, error) {
	raw, err := acc.host.ReadExpLane(uint16(lane))
	if err != nil {
		return false, err
	}
	for _, b := range raw {
		if b != 0 {
			return true, nil
		}
	}
	return false, nil
}

// readCodesLaneInto is readCodesInto against one lane's ADC readings.
func (acc *Accelerator) readCodesLaneInto(lane int, codes []int) error {
	raw, err := acc.host.ReadSerialLane(uint16(lane))
	if err != nil {
		return err
	}
	if len(raw) < 2*len(codes) {
		return fmt.Errorf("core: readSerialLane returned %d bytes, need %d", len(raw), 2*len(codes))
	}
	for i := range codes {
		codes[i] = int(isa.GetU16(raw, 2*i))
	}
	return nil
}

// readSolutionLaneInto is readSolutionInto against one lane.
func (acc *Accelerator) readSolutionLaneInto(lane int, u la.Vector, samples int) error {
	for i := range u {
		v, err := acc.host.AnalogAvgLane(uint16(lane), uint16(i), uint16(samples))
		if err != nil {
			return err
		}
		u[i] = v
	}
	return nil
}
