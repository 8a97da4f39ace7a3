package circuit

import "math"

// The steady-state helpers the circuit tests settle netlists with. No
// solve path uses them (core polls the chip's ADCs in its own settle
// loop), so they live beside the tests: settling physics, trim
// calibration, peak tracking and the engine differentials, whose
// expectSame compares MaxIntegratorDrive.

// SettleResult reports a RunUntilSettled call.
type SettleResult struct {
	Settled  bool
	Time     float64 // analog time at stop
	MaxDrive float64 // final max |integrator input| (du/dt / k)
}

// DefaultCheckEvery is the convergence-poll granularity, in integration
// steps, that RunUntilSettled falls back to when the caller passes
// checkEvery <= 0.
const DefaultCheckEvery = 16

// RunUntilSettled advances until every integrator's input magnitude is at
// most driveTol (i.e. ‖du/dt‖∞ ≤ k·driveTol) or maxTime elapses. The
// convergence check runs every checkEvery steps (DefaultCheckEvery when
// <= 0). This is the "wait for steady state, then sample" usage pattern
// of Section IV-A.
func (s *Simulator) RunUntilSettled(driveTol, maxTime float64, checkEvery int) SettleResult {
	if checkEvery <= 0 {
		checkEvery = DefaultCheckEvery
	}
	for s.time < maxTime {
		for i := 0; i < checkEvery && s.time < maxTime; i++ {
			s.Step()
		}
		// One drive recomputation serves both the convergence check and a
		// timed-out result.
		d := s.MaxIntegratorDrive()
		if d <= driveTol {
			return SettleResult{Settled: true, Time: s.time, MaxDrive: d}
		}
		if s.time >= maxTime {
			return SettleResult{Settled: false, Time: s.time, MaxDrive: d}
		}
	}
	// Only reachable when maxTime had already elapsed on entry.
	return SettleResult{Settled: false, Time: s.time, MaxDrive: s.MaxIntegratorDrive()}
}

// MaxIntegratorDrive returns the largest effective drive |du/dt|/k over
// all integrators, including each integrator's own input-referred offset:
// the residual of the embedded linear system as the chip actually
// experiences it.
func (s *Simulator) MaxIntegratorDrive() float64 {
	var m float64
	for _, b := range s.integrators {
		off, gf := s.effOff[b.ID], s.effGain[b.ID]
		in := 0.0
		if b.in[0] != noNet {
			in = s.netVals[b.in[0]]
		}
		if a := math.Abs(gf*in + off); a > m {
			m = a
		}
	}
	return m
}
