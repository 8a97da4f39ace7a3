package core

import (
	"fmt"

	"analogacc/internal/la"
)

// Nonlinear ODE mode. The prototype's nonlinear function lookup tables
// ("sine, signum, and sigmoid with the SRAM lookup table") let the chip
// integrate systems like the pendulum u¨ = −sin(u) natively — the
// continuous-time hybrid computation it was actually built for. This file
// compiles systems of the form
//
//	du/dt = M·u + g + Σ_k c_k · φ_k(u_{s_k})
//
// where each φ_k runs through one LUT reading variable s_k and fans out,
// weighted by the column vector c_k, into the integrator summing nodes.
//
// Scaling is the classical analog-computer "function scaling": with value
// scale S and solution scale σ, the chip variable is û = u/σ, and the LUT
// must be programmed with the scaled function
//
//	φ̂_k(x) = φ_k(σ·x) / (S·σ)
//
// so that the scaled dynamics dû/dt_a = k·(M/S·û + ĝ + ĉ·φ̂(û)) integrate
// the original system with time dilated by S/k, exactly as in linear mode.

// LUTTerm is one nonlinear feedback term: Coef_i · Fn(u[Input]) added to
// every du_i/dt with Coef_i ≠ 0.
type LUTTerm struct {
	// Input is the variable index the function reads.
	Input int
	// Fn is the nonlinear function, in problem units.
	Fn func(float64) float64
	// Coef scatters the function output into the rows (problem units).
	Coef la.Vector
}

// NonlinearODEOptions extends ODEOptions for LUT terms.
type NonlinearODEOptions struct {
	ODEOptions
	// FnRange bounds |φ_k(u)| over the trajectory (problem units), used
	// to scale the LUT output path. Zero derives a bound by sampling
	// each Fn over the σ dynamic range.
	FnRange float64
}

// SolveODENonlinear integrates du/dt = M·u + g + Σ c_k·φ_k(u_{s_k}) on the
// chip, with each nonlinearity realized by a lookup table. The number of
// terms is limited by the chip's LUT inventory; every term also consumes a
// fanout tap on its input variable and one multiplier per nonzero of its
// coefficient column. Like SolveODE, it refuses a SolveStep chip with
// ErrSolveStep.
func (acc *Accelerator) SolveODENonlinear(m Matrix, terms []LUTTerm, g, u0 la.Vector, opt NonlinearODEOptions) (*Trajectory, error) {
	if acc.spec.SolveStep {
		return nil, ErrSolveStep
	}
	n := m.Dim()
	if len(g) != n || len(u0) != n {
		return nil, fmt.Errorf("core: ODE dims m=%d g=%d u0=%d", n, len(g), len(u0))
	}
	if opt.Duration <= 0 {
		return nil, fmt.Errorf("core: ODE duration %v must be positive", opt.Duration)
	}
	if opt.SamplePoints <= 0 {
		opt.SamplePoints = 64
	}
	if opt.Samples <= 0 {
		opt.Samples = 4
	}
	counts := acc.spec.Counts()
	if len(terms) > counts.LUTs {
		return nil, fmt.Errorf("core: %d nonlinear terms > %d lookup tables: %w", len(terms), counts.LUTs, ErrTooLarge)
	}
	for k, term := range terms {
		if term.Input < 0 || term.Input >= n {
			return nil, fmt.Errorf("core: term %d reads variable %d of %d", k, term.Input, n)
		}
		if len(term.Coef) != n {
			return nil, fmt.Errorf("core: term %d coefficient length %d != %d", k, len(term.Coef), n)
		}
		if term.Fn == nil {
			return nil, fmt.Errorf("core: term %d has no function", k)
		}
	}

	// Scales. σ comes from the caller or the initial condition; S must
	// cover both the linear gains and the nonlinear coefficient columns
	// after function scaling.
	sigma := opt.Sigma
	if sigma <= 0 {
		sigma = u0.NormInf() / 0.5
		if sg := g.NormInf(); sg > sigma {
			sigma = sg
		}
		if sigma == 0 {
			sigma = 1
		}
	}
	// Bound |φ_k| over the reachable range [−σ, σ].
	fnRange := opt.FnRange
	if fnRange <= 0 {
		for _, term := range terms {
			for i := 0; i <= 64; i++ {
				x := -sigma + 2*sigma*float64(i)/64
				if v := term.Fn(x); v > fnRange {
					fnRange = v
				} else if -v > fnRange {
					fnRange = -v
				}
			}
		}
		if fnRange == 0 {
			fnRange = 1
		}
	}
	// The LUT output carries φ̂·(S·σ)/... — we program the LUT with
	// φ(σx)/fnRange (full LUT range use) and put λ_k = fnRange/(S·σ) on
	// the scatter multipliers: mul gain = c_ik·λ. S must be large enough
	// that every |c_ik|·fnRange/σ ≤ maxGain·margin along with |m_ij|.
	s := matrixScale(m, acc.spec.MaxGain)
	for _, term := range terms {
		for _, c := range term.Coef {
			if c == 0 {
				continue
			}
			need := abs(c) * fnRange / (sigma * acc.spec.MaxGain * margin)
			if need > s {
				s = need
			}
		}
	}

	if err := acc.programNonlinear(m, terms, g, u0, s, sigma, fnRange); err != nil {
		return nil, err
	}
	acc.current = nil

	k := 2 * 3.141592653589793 * acc.spec.Bandwidth
	dtProblem := opt.Duration / float64(opt.SamplePoints)
	dtAnalog := dtProblem * s / k

	traj := &Trajectory{Scaling: Scaling{S: s, Sigma: sigma}}
	timeBase := acc.AnalogTime()
	record := func(t float64) error {
		u, err := acc.readSolution(n, opt.Samples)
		if err != nil {
			return err
		}
		traj.Times = append(traj.Times, t)
		traj.States = append(traj.States, u.Scaled(sigma))
		return nil
	}
	if err := record(0); err != nil {
		return nil, err
	}
	for i := 1; i <= opt.SamplePoints; i++ {
		if err := acc.runFor(dtAnalog); err != nil {
			return nil, err
		}
		exc, err := acc.anyException(scalarLane)
		if err != nil {
			return nil, err
		}
		if exc {
			traj.AnalogTime = acc.AnalogTime() - timeBase
			return traj, fmt.Errorf("core: trajectory overflowed dynamic range at t=%v; re-run with a larger Sigma than %v", float64(i)*dtProblem, sigma)
		}
		if err := record(float64(i) * dtProblem); err != nil {
			return nil, err
		}
	}
	traj.AnalogTime = acc.AnalogTime() - timeBase
	return traj, nil
}

// programNonlinear compiles the linear part like program() and adds, per
// term: a fanout tap on the input variable feeding LUT k, and scatter
// multipliers from the LUT output into each destination integrator.
func (acc *Accelerator) programNonlinear(m Matrix, terms []LUTTerm, g, u0 la.Vector, s, sigma, fnRange float64) error {
	n := m.Dim()
	h, pm := acc.host, acc.pm
	if err := h.CfgReset(); err != nil {
		return fmt.Errorf("core: config reset: %w", err)
	}
	as := newScaledView(m, -s) // du/dt ∝ (b − A·u) with A = −M/S
	nextMul := 0
	nextFanout := 0
	consumers := make([][]uint16, n)
	var programErr error
	for i := 0; i < n && programErr == nil; i++ {
		row := i
		as.VisitRow(row, func(j int, aij float64) {
			if programErr != nil {
				return
			}
			mul := nextMul
			nextMul++
			if err := h.SetMulGain(uint16(mul), -aij); err != nil {
				programErr = fmt.Errorf("core: gain for m[%d][%d]: %w", row, j, err)
				return
			}
			if err := h.SetConn(pm.MultiplierOut(mul), pm.IntegratorIn(row)); err != nil {
				programErr = err
				return
			}
			consumers[j] = append(consumers[j], pm.MultiplierIn(mul, 0))
		})
	}
	if programErr != nil {
		return programErr
	}
	// Bias path.
	acc.biasMulBase = nextMul
	bs := g.Scaled(1 / (s * sigma))
	for i := 0; i < n; i++ {
		mul := nextMul
		nextMul++
		if err := h.SetConn(pm.DACOut(i), pm.MultiplierIn(mul, 0)); err != nil {
			return err
		}
		if err := h.SetConn(pm.MultiplierOut(mul), pm.IntegratorIn(i)); err != nil {
			return err
		}
	}
	beta, bq := la.NewVector(n), la.NewVector(n)
	gamma, err := acc.quantizeBias(bs, beta, bq, 0)
	if err != nil {
		return err
	}
	if err := acc.setBias(scalarLane, gamma, beta); err != nil {
		return err
	}
	// Nonlinear terms: LUT k reads u_{s_k}; its output scatters through
	// multipliers with gain c_ik·fnRange/(S·σ).
	lambda := fnRange / (s * sigma)
	for kIdx, term := range terms {
		consumers[term.Input] = append(consumers[term.Input], pm.LUTIn(kIdx))
		var table [256]byte
		for i := range table {
			x := float64(i)/255*2 - 1
			v := term.Fn(sigma*x) / fnRange
			if v > 1 {
				v = 1
			}
			if v < -1 {
				v = -1
			}
			table[i] = byte((v + 1) / 2 * 255)
		}
		if err := h.SetFunction(uint16(kIdx), table); err != nil {
			return fmt.Errorf("core: LUT %d: %w", kIdx, err)
		}
		// Scatter via a fanout tree on the LUT output.
		var dsts []uint16
		for i, c := range term.Coef {
			if c == 0 {
				continue
			}
			mul := nextMul
			nextMul++
			gain := c * lambda
			if err := h.SetMulGain(uint16(mul), gain); err != nil {
				return fmt.Errorf("core: nonlinear gain term %d row %d: %w", kIdx, i, err)
			}
			if err := h.SetConn(pm.MultiplierOut(mul), pm.IntegratorIn(i)); err != nil {
				return err
			}
			dsts = append(dsts, pm.MultiplierIn(mul, 0))
		}
		switch len(dsts) {
		case 0:
			// A term with an all-zero column: route the LUT output to a
			// dangling fanout so the datapath stays legal.
			if err := h.SetConn(pm.LUTOut(kIdx), pm.FanoutIn(nextFanout)); err != nil {
				return err
			}
			nextFanout++
		case 1:
			if err := h.SetConn(pm.LUTOut(kIdx), dsts[0]); err != nil {
				return err
			}
		default:
			if err := acc.wireTree(pm.LUTOut(kIdx), dsts, &nextFanout); err != nil {
				return err
			}
		}
	}
	// Variable fanout trees (matrix consumers + LUT taps + ADC).
	for j := 0; j < n; j++ {
		dsts := append(consumers[j], pm.ADCIn(j))
		if err := acc.wireTree(pm.IntegratorOut(j), dsts, &nextFanout); err != nil {
			return fmt.Errorf("core: fanout tree for u[%d]: %w", j, err)
		}
	}
	// Initial conditions.
	for i := 0; i < n; i++ {
		if err := h.SetIntInitial(uint16(i), u0[i]/sigma); err != nil {
			return fmt.Errorf("core: initial condition u[%d]: %w", i, err)
		}
	}
	if err := h.CfgCommit(); err != nil {
		return fmt.Errorf("core: commit: %w", err)
	}
	return nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
