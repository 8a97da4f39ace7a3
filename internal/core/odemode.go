package core

import (
	"fmt"

	"analogacc/internal/la"
)

// ODE mode: the chip's native use (Figure 1 and Section II). A linear ODE
// system du/dt = M·u + g with initial condition u(0) = u0 maps onto the
// same datapath as the linear solver with A = −M, so the integrators trace
// the actual trajectory rather than just its steady state. Problem time
// relates to analog time through the bandwidth and the value scale:
// one problem-second runs in S/(2π·BW) analog seconds.

// ODEOptions configures an ODE-mode run.
type ODEOptions struct {
	// Duration is the problem-time horizon to simulate.
	Duration float64
	// SamplePoints is how many trajectory samples to read via the ADCs
	// (default 64). The paper notes sampling frequency trades against
	// resolution; here each sample is a full-resolution read of a paused
	// chip, so dense sampling costs host time, not accuracy.
	SamplePoints int
	// Sigma is the solution scale (u = Sigma·û). Zero derives it from
	// the initial condition and bias magnitudes; trajectories that then
	// overflow return an error telling the caller to enlarge it.
	Sigma float64
	// Samples is the analogAvg depth per read (default 4).
	Samples int
}

// Trajectory is a sampled ODE-mode waveform.
type Trajectory struct {
	// Times are problem-time stamps (not analog seconds).
	Times []float64
	// States holds one solution snapshot per time stamp.
	States []la.Vector
	// AnalogTime is the analog seconds the run consumed.
	AnalogTime float64
	// Scaling records the value/solution scales used.
	Scaling Scaling
}

// SolveODE runs du/dt = M·u + g from u0 for opt.Duration of problem time,
// sampling the trajectory through the ADCs. The returned trajectory
// includes the initial state at t = 0. A chip whose spec sets SolveStep
// is refused with ErrSolveStep.
func (acc *Accelerator) SolveODE(m Matrix, g, u0 la.Vector, opt ODEOptions) (*Trajectory, error) {
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
	s := matrixScale(m, acc.spec.MaxGain)
	sigma := opt.Sigma
	if sigma <= 0 {
		sigma = u0.NormInf() / 0.5
		if sg := g.NormInf() / (s * margin); sg > sigma {
			sigma = sg
		}
		if sigma == 0 {
			sigma = 1
		}
	}
	// A = −M: reuse the solver datapath du/dt ∝ (b − A·u).
	as := newScaledView(m, -s)
	bs := g.Scaled(1 / (s * sigma))
	ics := u0.Scaled(1 / sigma)
	if ics.NormInf() > 1 {
		return nil, fmt.Errorf("core: initial condition exceeds dynamic range at sigma=%v; set ODEOptions.Sigma larger", sigma)
	}
	if bs.NormInf() > 1 {
		return nil, fmt.Errorf("core: bias exceeds DAC range at sigma=%v; set ODEOptions.Sigma larger", sigma)
	}
	if err := acc.program(as, bs, ics); err != nil {
		return nil, err
	}
	acc.current = nil // the solver sessions no longer own the chip

	k := 2 * 3.141592653589793 * acc.spec.Bandwidth
	analogPerProblem := s / k
	dtProblem := opt.Duration / float64(opt.SamplePoints)
	dtAnalog := dtProblem * analogPerProblem

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
			return traj, fmt.Errorf("core: trajectory overflowed dynamic range at t=%v; re-run with ODEOptions.Sigma > %v", float64(i)*dtProblem, sigma)
		}
		if err := record(float64(i) * dtProblem); err != nil {
			return nil, err
		}
	}
	traj.AnalogTime = acc.AnalogTime() - timeBase
	return traj, nil
}
