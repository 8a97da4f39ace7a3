package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"analogacc/internal/isa"
	"analogacc/internal/la"
)

// settleJob tracks one right-hand side through the settle loop. A scalar
// solve attempt is a one-job wave on scalarLane; a lane wave carries
// circuit.LaneWidth jobs, one per lane.
type settleJob struct {
	idx    int       // position in the batch
	rhs    la.Vector // caller's right-hand side (never mutated)
	sigma  float64   // current solution scale attempt
	boosts int       // dynamic-range boosts so far (scalar attempts only)
	// gain is the learned σ gain: the one the job starts from (see
	// startJob), replaced by the one its answer learned once it is done.
	gain float64

	// Wave-local state, reset when the job joins a wave.
	lane     int       // chip lane, or scalarLane
	gamma    float64   // bias-path gain
	beta     la.Vector // per-row DAC values
	bq       la.Vector // bias as the chip realizes it
	codes    []int     // current settle-poll ADC codes
	prev     []int     // previous poll, for the stability test
	havePrev bool
	prevT    float64 // residual-margin history for the crossing interpolation
	prevM    float64
	waveDone bool

	// Results.
	u        la.Vector
	stats    Stats
	err      error
	fallback bool    // settled far inside the range (see finishJob)
	peak     float64 // the fallback reading's ‖û‖∞
	done     bool
}

// rescale counts one rescale of the job — an overflow's doubled σ, or a
// scalar attempt's dynamic-range boost — and fails the job once
// opt.MaxRescales are spent.
func (j *settleJob) rescale(opt SolveOptions) bool {
	j.stats.Rescales++
	if j.stats.Rescales > opt.MaxRescales {
		j.err = fmt.Errorf("core: after %d rescales: %w", opt.MaxRescales, ErrRescaleLimit)
		return false
	}
	return true
}

// waveSlot is one wave position's working set, kept on the session so
// repeated solves and batches allocate nothing new.
type waveSlot struct {
	beta, bq    la.Vector
	codes, prev []int
}

func newWaveSlot(n int) waveSlot {
	return waveSlot{beta: la.NewVector(n), bq: la.NewVector(n), codes: make([]int, n), prev: make([]int, n)}
}

// waveSlots returns the working sets of a wave of width jobs.
func (s *Session) waveSlots(width int) []waveSlot {
	for len(s.scratch.slots) < width {
		s.scratch.slots = append(s.scratch.slots, newWaveSlot(s.n))
	}
	return s.scratch.slots[:width]
}

// settleTolerances is the host's steady-state test on ADC readings: the
// digital residual b̂ − A_s·û of the scaled system, which equals the
// integrator drive the chip is still applying. The bound is per row:
// reading quantization injects up to ½ LSB per element through the row's
// absolute sum, so a row with small coefficients (a slow mode under value
// scaling) gets a proportionally tighter threshold — otherwise slow modes
// would be declared settled while still far from equilibrium. The chip's
// datasheet offset/gain mismatch and noise add an absolute term. The
// largest row tolerance is the residual floor quantizeBias checks biases
// against.
func (s *Session) settleTolerances() (tols la.Vector, floor float64) {
	lsb := 2.0 / (math.Pow(2, float64(s.acc.spec.ADCBits)) - 1)
	mismatch := 4 * (s.acc.spec.OffsetSigma + s.acc.spec.GainSigma)
	if s.acc.calibrated {
		// Trimming leaves residual offsets at roughly the calibration
		// measurement's resolution, so the host can demand far tighter
		// equilibria after init.
		if cal := 2 * lsb; cal < mismatch {
			mismatch = cal
		}
	}
	mismatch += 6 * s.acc.spec.NoiseSigma
	tols = s.scratch.tols
	for i, rowSum := range s.rowSums() {
		tols[i] = 1.5*lsb*rowSum + mismatch
		if tols[i] > floor {
			floor = tols[i]
		}
	}
	return tols, floor
}

// rowSums returns the absolute row sums of the scaled matrix A/S. They
// move only when a boost moves S, so the walk runs once per scale and
// the sums wait in the session scratch.
func (s *Session) rowSums() la.Vector {
	sc := &s.scratch
	if sc.rowSumsS == s.sc.S {
		return sc.rowSums
	}
	inv := s.as.inv
	var rowSum float64
	visit := func(_ int, v float64) { rowSum += math.Abs(v * inv) }
	for i := range sc.rowSums {
		rowSum = 0
		s.a.VisitRow(i, visit)
		sc.rowSums[i] = rowSum
	}
	sc.rowSumsS = s.sc.S
	return sc.rowSums
}

// programWave quantizes each job's scaled bias and verifies it is
// resolvable at the residual floor, then stages and commits the wave. On
// scalarLane (lanes false, one job) that writes the scalar bias registers;
// a lane wave stages lane l with job l's DAC codes and bias gain while
// the matrix gains stay shared. An unresolvable job is marked failed with
// nothing sent to the chip. On an old device the setLanes probe (or the
// commit, for an ineligible datapath) reports errLanesUnsupported.
func (s *Session) programWave(wave []*settleJob, floor float64, lanes bool) error {
	h := s.acc.host
	slots := s.waveSlots(len(wave))
	bs := s.scratch.bs
	jobErr := false
	for l, job := range wave {
		job.lane = scalarLane
		if lanes {
			job.lane = l
		}
		sl := &slots[l]
		job.beta, job.bq, job.codes, job.prev = sl.beta, sl.bq, sl.codes, sl.prev
		job.havePrev = false
		job.prevT, job.prevM = 0, math.Inf(1)
		job.waveDone = false
		job.stats.SettleTime = 0
		inv := 1 / (s.sc.S * job.sigma)
		for i, v := range job.rhs {
			bs[i] = v * inv
		}
		gamma, err := s.acc.quantizeBias(bs, job.beta, job.bq, floor)
		if err != nil {
			job.err = err
			job.waveDone = true
			jobErr = true
		}
		job.gamma = gamma
	}
	if jobErr {
		return nil // caller reports the per-job errors
	}
	if lanes {
		if err := h.SetLanes(uint16(len(wave))); err != nil {
			var de *isa.DeviceError
			if errors.As(err, &de) && de.Status == isa.StatusBadOpcode && s.acc.laneSupport <= 0 {
				s.acc.laneSupport = -1
				return errLanesUnsupported
			}
			return err
		}
	}
	for _, job := range wave {
		if err := s.acc.setBias(job.lane, job.gamma, job.beta); err != nil {
			if lanes {
				return fmt.Errorf("core: batch rhs %d: %w", job.idx, err)
			}
			return err
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
		if lanes && errors.As(err, &de) && de.Status == isa.StatusBadState && s.acc.laneSupport <= 0 {
			// The datapath cannot enter lane mode (a noisy spec, or a
			// chip built on the interpreter engine): unstage, and stop
			// probing — nothing on the host side changes either.
			if e := h.SetLanes(0); e != nil {
				return e
			}
			if e := h.CfgCommit(); e != nil {
				return e
			}
			s.acc.laneSupport = -1
			return errLanesUnsupported
		}
		return fmt.Errorf("core: commit: %w", err)
	}
	return nil
}

// pollGrowth (r) is the ratio between successive settle poll chunks. A
// poll is stable only if the one before it, at about 1/r of the elapsed
// time, already read the final codes, so the chip runs about r to r² times
// the instant its codes stop moving; below r = 1.25 the armed time barely
// falls while the polls, and their ISA frames, keep growing.
const pollGrowth = 1.25

// settleBudgetChunks is the settle loop's analog budget in first chunks:
// the 2²⁴ − 1 that 24 doublings armed. A wave still unsettled after that
// much analog time fails with ErrNotSettled; the budget is a time, not a
// poll count, so it does not shrink with the grid ratio.
const settleBudgetChunks = 1<<24 - 1

// firstChunk is the settle loop's first poll chunk, 2/k analog seconds
// (k = 2π·bandwidth, the integrators' unity-gain rate).
func (acc *Accelerator) firstChunk() float64 {
	return 2 / (2 * math.Pi * acc.spec.Bandwidth)
}

// codeTol is the code-stability test's slack: two polls match when no ADC
// code moved by more than this many LSBs, since codes jitter with
// integrator noise.
func (acc *Accelerator) codeTol() int {
	lsb := 2 / (math.Pow(2, float64(acc.spec.ADCBits)) - 1)
	return 1 + int(8*acc.spec.NoiseSigma/lsb)
}

// margin is one poll's residual margin m = max_i |bq_i − (A_s·û)_i|/tols_i,
// with û read from the ADC codes and bq the bias as the chip realizes it;
// the residual is at its floor when m ≤ 1.
func (s *Session) margin(codes []int, bq, tols la.Vector) float64 {
	fs := math.Pow(2, float64(s.acc.spec.ADCBits)) - 1
	uHat, resid := s.scratch.uHat, s.scratch.resid
	for i, c := range codes {
		uHat[i] = float64(c)/fs*2 - 1
	}
	s.as.Apply(resid, uHat)
	m := 0.0
	for i, r := range resid {
		if r := math.Abs(bq[i]-r) / tols[i]; r > m {
			m = r
		}
	}
	return m
}

// settleWave runs one programmed wave in time chunks that grow by
// pollGrowth until every job has settled, overflowed, or spent the analog
// budget. Steady state needs BOTH host-visible conditions: the digitally
// reconstructed residual of the scaled system is at the quantization/
// mismatch floor, AND the ADC codes stopped moving across the last chunk,
// about the last 1 − 1/pollGrowth of the elapsed time (a reading
// can sit at the residual floor long before the state stops evolving when
// the bias is small relative to full scale). Jobs exit per lane: a
// settled job is read out immediately (the chip holds at the poll
// boundary), an overflowed job doubles its σ and is appended to requeue,
// which is returned, and the rest keep integrating. Each chunk's armed
// time and run are billed to every job still pending in it.
func (s *Session) settleWave(ctx context.Context, wave []*settleJob, opt SolveOptions, tols la.Vector, requeue []*settleJob) ([]*settleJob, error) {
	chunk := s.acc.firstChunk()
	codeTol := s.acc.codeTol()
	budget := chunk * settleBudgetChunks
	elapsed := 0.0
	pending := len(wave)
	for d := 0; elapsed < budget && pending > 0; d++ {
		if err := ctx.Err(); err != nil {
			return requeue, fmt.Errorf("core: settle aborted after %d chunks: %w", d, err)
		}
		// Clip the last chunk to the budget. The clip binds only past
		// budget/2, where budget − elapsed is exact, so elapsed lands on it.
		chunk = math.Min(chunk, budget-elapsed)
		if err := s.acc.runFor(chunk); err != nil {
			return requeue, err
		}
		armed := s.acc.armedDuration(chunk)
		elapsed += chunk
		for _, job := range wave {
			if job.waveDone {
				continue
			}
			job.stats.AnalogTime += armed
			job.stats.Runs++
			exc, err := s.acc.anyException(job.lane)
			if err != nil {
				return requeue, err
			}
			if exc {
				job.stats.Overflows++
				job.sigma *= 2
				job.waveDone = true
				pending--
				if job.rescale(opt) {
					requeue = append(requeue, job)
				}
				continue
			}
			if err := s.acc.readCodesInto(job.lane, job.codes); err != nil {
				return requeue, err
			}
			stable := job.havePrev
			if stable {
				for i, c := range job.codes {
					if diff := c - job.prev[i]; diff > codeTol || diff < -codeTol {
						stable = false
						break
					}
				}
			}
			m := s.margin(job.codes, job.bq, tols)
			if stable && m <= 1 {
				// The crossing happened between the last two polls; the
				// residual decays exponentially, so interpolate the m = 1
				// crossing on a log scale for a tighter time estimate than
				// the chunk midpoint.
				settleAt := elapsed - chunk/2
				if !math.IsInf(job.prevM, 1) && job.prevM > 1 && m > 0 && m < job.prevM {
					frac := math.Log(job.prevM) / math.Log(job.prevM/m)
					settleAt = job.prevT + (elapsed-job.prevT)*frac
				}
				if err := s.finishJob(job, settleAt, opt); err != nil {
					return requeue, err
				}
				job.waveDone = true
				pending--
				continue
			}
			job.codes, job.prev = job.prev, job.codes
			job.havePrev = true
			job.prevT, job.prevM = elapsed, m
		}
		chunk *= pollGrowth
	}
	for _, job := range wave {
		if !job.waveDone {
			job.err = fmt.Errorf("core: sigma=%v: %w", job.sigma, ErrNotSettled)
			job.waveDone = true
		}
	}
	return requeue, nil
}

// finishJob reads a settled job's solution and closes it with u = σ·û, the
// learned gain, Scaling and the digital residual. An answer deep inside
// the dynamic range is marked fallback instead, while a boost is allowed:
// a scalar attempt then boosts the session's value scale and runs again,
// and a lane job — boosts reprogram the shared value scale, which cannot
// happen per lane — reruns alone from batch-entry state (solvePass).
func (s *Session) finishJob(job *settleJob, settleAt float64, opt SolveOptions) error {
	uHat := s.scratch.uHat
	if err := s.acc.readSolutionInto(job.lane, uHat, opt.Samples); err != nil {
		return err
	}
	job.stats.SettleTime = settleAt
	peak := uHat.NormInf()
	if !opt.DisableBoost && job.boosts < 2 && peak > 0 && peak < 0.25 && s.sc.S < s.baseS*16 {
		job.fallback, job.peak = true, peak
		return nil
	}
	job.u = uHat.Scaled(job.sigma)
	job.gain = job.sigma * s.sc.S / job.rhs.NormInf()
	job.stats.Scaling = Scaling{S: s.sc.S, Sigma: job.sigma}
	// Digital residual into scratch: ‖b − A·u‖∞ / ‖b‖∞ without the
	// temporary vector la.RelativeResidual would allocate.
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
