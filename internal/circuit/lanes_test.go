package circuit

import (
	"fmt"
	"math"
	"testing"
)

// laneParams derives lane l's parameter overrides deterministically: DAC
// levels, constant multiplier gains, and integrator initial conditions
// all diverge per lane, so per-lane folds, per-lane dt derivation, and
// the ragged step schedule are all exercised.
func laneParams(l int) (levelScale, gainScale, ic float64) {
	levelScale = 1.0 - 0.11*float64(l)
	gainScale = 1.0 + 0.07*float64(l)
	ic = 0.01 * float64(l)
	return
}

// applyLaneParamsScalar mutates a netlist's blocks to lane l's parameters
// (the scalar-reference half of the differential harness).
func applyLaneParamsScalar(nl *Netlist, l int) {
	levelScale, gainScale, ic := laneParams(l)
	for _, b := range nl.Blocks() {
		switch b.Kind {
		case KindDAC:
			b.Level *= levelScale
		case KindMultiplier:
			if !b.varMode {
				b.Gain *= gainScale
			}
		case KindIntegrator:
			b.IC = ic
		}
	}
}

// applyLaneParamsLane programs the same overrides through the lane API.
func applyLaneParamsLane(t *testing.T, sim *Simulator, l int) {
	t.Helper()
	levelScale, gainScale, ic := laneParams(l)
	for _, b := range sim.nl.Blocks() {
		var err error
		switch b.Kind {
		case KindDAC:
			err = sim.SetLaneLevel(b, l, b.Level*levelScale)
		case KindMultiplier:
			if !b.varMode {
				err = sim.SetLaneGain(b, l, b.Gain*gainScale)
			}
		case KindIntegrator:
			err = sim.SetLaneIC(b, l, ic)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// expectLaneMatchesScalar asserts one lane of a lane-batched simulator is
// bit-identical — dt, step count, time, states, net values, overflow
// latches, peak trackers, and ADC reads — to a scalar fused simulator
// configured with that lane's parameters.
func expectLaneMatchesScalar(t testing.TB, simL *Simulator, lane int, simS *Simulator, tag string) {
	t.Helper()
	B := simL.Lanes()
	if simL.LaneDt(lane) != simS.Dt() {
		t.Fatalf("%s lane %d: dt %v vs scalar %v", tag, lane, simL.LaneDt(lane), simS.Dt())
	}
	if simL.LaneSteps(lane) != simS.Steps() {
		t.Fatalf("%s lane %d: %d steps vs scalar %d", tag, lane, simL.LaneSteps(lane), simS.Steps())
	}
	if simL.LaneTime(lane) != simS.Time() {
		t.Fatalf("%s lane %d: time %v vs scalar %v", tag, lane, simL.LaneTime(lane), simS.Time())
	}
	for i := range simS.state {
		if got, want := simL.laneState[i*B+lane], simS.state[i]; got != want {
			t.Fatalf("%s lane %d: state %d diverges: %v vs %v (Δ %g)",
				tag, lane, i, got, want, got-want)
		}
	}
	for n := 0; n < simS.nl.NumNets(); n++ {
		if got, want := simL.LaneNetValue(Net(n), lane), simS.NetValue(Net(n)); got != want {
			t.Fatalf("%s lane %d: net %d diverges: %v vs %v", tag, lane, n, got, want)
		}
	}
	for bi, b := range simS.nl.Blocks() {
		lb := simL.nl.Blocks()[bi]
		if simL.Overflowed(lb, lane) != simS.Overflowed(b, 0) {
			t.Fatalf("%s lane %d: block %d overflow latch diverges", tag, lane, bi)
		}
		if simL.PeakAbs(lb, lane) != simS.PeakAbs(b, 0) {
			t.Fatalf("%s lane %d: block %d peak diverges: %v vs %v",
				tag, lane, bi, simL.PeakAbs(lb, lane), simS.PeakAbs(b, 0))
		}
		if b.Kind == KindADC {
			codeL, valL, err := simL.ReadADCLane(lb, lane)
			if err != nil {
				t.Fatal(err)
			}
			codeS, valS, err := simS.ReadADC(b)
			if err != nil {
				t.Fatal(err)
			}
			if codeL != codeS || valL != valS {
				t.Fatalf("%s lane %d: ADC %d reads (%d,%v) vs scalar (%d,%v)",
					tag, lane, bi, codeL, valL, codeS, valS)
			}
		}
	}
}

// hotLevel overdrives one lane's DAC levels in TestLaneMatchesScalar's
// hot case: that lane's solution lies past full scale, so its integrators
// ramp into saturation and some of its ops overflow, while the other
// fifteen lanes stay in range. The AVX2 kernels then bail on the hot
// lane's saturating ops and must resume on the clean ops after them in
// the same segment (about 16k such resumes in the segment kernels and
// 250 in laneCombine16 over the case's two runs).
const hotLevel = 100.0

// kernelModes lists the lane kernel settings a differential covers: the
// AVX2 kernels where this CPU has them, and the pure-Go lane loops, the
// kernels' bail path, always.
func kernelModes() []bool {
	if laneAVX {
		return []bool{true, false}
	}
	return []bool{false}
}

// withKernels runs f with the lane kernels switched on or off. Only a
// mode from kernelModes may be asked for.
func withKernels(on bool, f func()) {
	saved := laneAVX
	laneAVX = on
	defer func() { laneAVX = saved }()
	f()
}

// TestLaneMatchesScalar is the lane identity differential: every lane of
// a lane-batched run must be bit-identical — states, net values, ADC
// codes, overflow latches, peak trackers, step counts, and dt — to a
// scalar fused run configured with that lane's parameters, across
// several RunLanes calls (lanes tick raggedly: each carries its own dt).
// hot ≥ 0 overdrives that lane by hotLevel. Each case runs with the AVX2
// kernels (where the CPU has them) and on the pure-Go lane loops.
func TestLaneMatchesScalar(t *testing.T) {
	const l = 6
	for _, hot := range []int{-1, 3} {
		for _, kernels := range kernelModes() {
			withKernels(kernels, func() { laneMatchesScalar(t, l, hot, fmt.Sprintf("hot=%d kernels=%t", hot, kernels)) })
		}
	}
}

func laneMatchesScalar(t *testing.T, l, hot int, tag string) {
	t.Helper()
	const B = LaneWidth
	simL, err := NewSimulator(buildPoissonNetlist(t, l, settleRHS), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := simL.ConfigureLanes(true); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < B; lane++ {
		applyLaneParamsLane(t, simL, lane)
	}
	if hot >= 0 {
		levelScale, _, _ := laneParams(hot)
		for _, b := range simL.nl.Blocks() {
			if b.Kind == KindDAC {
				if err := simL.SetLaneLevel(b, hot, b.Level*levelScale*hotLevel); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	simL.ReloadLaneSteps()
	simL.Reset()
	// Two runs with an awkward fractional duration in between: lanes
	// hit the remainder-step path at different points.
	d1 := 130.5 * simL.LaneDt(0)
	d2 := 77.25 * simL.LaneDt(B-1)
	if err := simL.RunLanes(d1); err != nil {
		t.Fatal(err)
	}
	if err := simL.RunLanes(d2); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < B; lane++ {
		nlS := buildPoissonNetlist(t, l, settleRHS)
		applyLaneParamsScalar(nlS, lane)
		if lane == hot {
			for _, b := range nlS.Blocks() {
				if b.Kind == KindDAC {
					b.Level *= hotLevel
				}
			}
		}
		simS, err := NewSimulator(nlS, 0)
		if err != nil {
			t.Fatal(err)
		}
		simS.SetEngine(EngineFused)
		simS.Run(d1)
		simS.Run(d2)
		expectLaneMatchesScalar(t, simL, lane, simS, tag)
	}
}

// TestLaneReentryRefold pins the fold-generation contract across lane-mode
// teardown: leaving lane mode (ConfigureLanes(false)) and re-entering with
// the same number of refolds must not leave the fused kernel's
// materialised constants pointing at the previous lane program.
// (Regression: a fresh laneProg restarted foldGen at zero, so the second
// session's generation could collide with the last synced one and the RK4
// trial stages silently kept the first session's biases.)
func TestLaneReentryRefold(t *testing.T) {
	const l, B = 6, LaneWidth
	simL, err := NewSimulator(buildPoissonNetlist(t, l, settleRHS), 0)
	if err != nil {
		t.Fatal(err)
	}
	run := func(perm func(int) int) float64 {
		t.Helper()
		if err := simL.ConfigureLanes(true); err != nil {
			t.Fatal(err)
		}
		for lane := 0; lane < B; lane++ {
			levelScale, gainScale, ic := laneParams(perm(lane))
			for _, b := range simL.nl.Blocks() {
				var err error
				switch b.Kind {
				case KindDAC:
					err = simL.SetLaneLevel(b, lane, b.Level*levelScale)
				case KindMultiplier:
					if !b.varMode {
						err = simL.SetLaneGain(b, lane, b.Gain*gainScale)
					}
				case KindIntegrator:
					err = simL.SetLaneIC(b, lane, ic)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		simL.ReloadLaneSteps()
		simL.Reset()
		d := 40.5 * simL.LaneDt(0)
		if err := simL.RunLanes(d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	// Session 1, then a teardown, then session 2 with the lanes'
	// parameter sets reversed — same refold count.
	run(func(lane int) int { return lane })
	if err := simL.ConfigureLanes(false); err != nil {
		t.Fatal(err)
	}
	d2 := run(func(lane int) int { return B - 1 - lane })
	for lane := 0; lane < B; lane++ {
		nlS := buildPoissonNetlist(t, l, settleRHS)
		applyLaneParamsScalar(nlS, B-1-lane)
		simS, err := NewSimulator(nlS, 0)
		if err != nil {
			t.Fatal(err)
		}
		simS.SetEngine(EngineFused)
		simS.Run(d2)
		for i := range simS.state {
			if got, want := simL.laneState[i*B+lane], simS.state[i]; got != want {
				t.Fatalf("lane %d after re-entry: state %d diverges: %v vs %v", lane, i, got, want)
			}
		}
	}
}

// TestLaneConfigValidation pins the lane-mode entry conditions.
func TestLaneConfigValidation(t *testing.T) {
	nl, err := NewNetlist(Config{Bandwidth: 20e3, NoiseSigma: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	buildDecay(nl, 1.0)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.ConfigureLanes(true); err == nil {
		t.Fatal("lane mode accepted a noisy configuration")
	}
	sim2, err := NewSimulator(buildPoissonNetlist(t, 2, settleRHS), 0)
	if err != nil {
		t.Fatal(err)
	}
	sim2.SetEngine(EngineReference)
	if err := sim2.ConfigureLanes(true); err == nil {
		t.Fatal("lane mode accepted a non-fused engine")
	}
	sim2.SetEngine(EngineFused)
	if err := sim2.ConfigureLanes(true); err != nil {
		t.Fatal(err)
	}
	if sim2.Lanes() != LaneWidth {
		t.Fatalf("Lanes() = %d, want %d", sim2.Lanes(), LaneWidth)
	}
	if err := sim2.ConfigureLanes(false); err != nil {
		t.Fatal(err)
	}
	if sim2.Lanes() != 0 {
		t.Fatal("ConfigureLanes(false) did not restore scalar mode")
	}
	// Scalar stepping still works after leaving lane mode.
	sim2.Reset()
	sim2.Step()
	if math.IsNaN(sim2.state[0]) {
		t.Fatal("scalar state corrupted after lane round-trip")
	}
}
