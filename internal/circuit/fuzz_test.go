package circuit

import (
	"fmt"
	"math/rand"
	"testing"
)

// FuzzEngineEquivalence fuzzes the bit-identity guarantee between the
// engines: a randomized netlist (seed-driven: block mix, topology, trims,
// and mismatch all derive from the seed) steps in lockstep on the
// reference interpreter and on the fused kernel, and every externally
// observable value must match exactly. `drive` scales the integrator
// initial conditions up to hard saturation, covering the softSat branches
// and overflow latches.
// Netlists routinely include record-only ops (outputs no integrator
// input depends on, unconnected noNet outputs among them); the
// seed-record-chain corpus entry has a fanout branch feeding a LUT that
// only an ADC reads, so one record-only op feeds another.
//
// The checked-in corpus under testdata/fuzz runs as ordinary regression
// tests on every `go test` (including -short CI runs); `go test
// -fuzz=FuzzEngineEquivalence` explores further.
func FuzzEngineEquivalence(f *testing.F) {
	f.Add(int64(0), byte(8), false)
	f.Add(int64(3), byte(40), true)
	f.Add(int64(7), byte(17), false)
	f.Add(int64(11), byte(3), true)
	f.Add(int64(19), byte(25), true)
	f.Fuzz(func(t *testing.T, seed int64, steps byte, saturate bool) {
		cfg := Config{
			Bandwidth:   20e3,
			OffsetSigma: 0.01,
			GainSigma:   0.01,
			Seed:        seed,
		}
		if seed%2 == 0 {
			cfg.NoiseSigma = 1e-4
		}
		build := func(eng Engine) (*Simulator, []*Block) {
			nl, integs, adcs := buildRandomNetlist(t, rand.New(rand.NewSource(seed)), cfg)
			sim, err := NewSimulator(nl, 0)
			if err != nil {
				if err == ErrAlgebraicLoop {
					t.Skip("builder produced an algebraic loop for this seed")
				}
				t.Fatal(err)
			}
			sim.SetEngine(eng)
			if saturate {
				// Slam the states against the rails so the saturation and
				// overflow-latch paths are exercised, not just the linear
				// region.
				for _, b := range integs {
					v, _ := sim.IntegratorValue(b)
					if err := sim.SetIntegratorValue(b, v*40+1.5); err != nil {
						t.Fatal(err)
					}
				}
			}
			return sim, adcs
		}
		n := int(steps)%48 + 1
		ref, adcsRef := build(EngineReference)
		sim, adcs := build(EngineFused)
		for i := 0; i < n; i++ {
			ref.Step()
			sim.Step()
		}
		expectSame(t, ref, sim, adcsRef, adcs, "fused")
	})
}

// FuzzLaneEquivalence fuzzes the lane identity guarantee on the same
// randomized netlists: a LaneWidth-lane fused run must be bit-identical,
// lane by lane, to scalar fused runs configured with each lane's
// parameters. The first k = lanes%LaneWidth + 1 lanes carry a batch of k
// items (per-lane diverged DAC levels, multiplier gains, and integrator
// initial conditions); the rest keep the scalar registers ConfigureLanes
// replicated, as lanes nobody programmed. `saturate` slams the items'
// initial conditions against the rails to cover the per-lane softSat and
// overflow-latch paths. The lane run repeats with the AVX2 kernels (where
// the CPU has them) and on the pure-Go lane loops. Lane mode models a
// noise-free datapath, so unlike FuzzEngineEquivalence the configuration
// never draws noise.
//
// The checked-in corpus under testdata/fuzz pins batches of 1, 2, 7, and
// 16 items; `go test -fuzz=FuzzLaneEquivalence` explores further.
func FuzzLaneEquivalence(f *testing.F) {
	f.Add(int64(0), byte(8), byte(0), false)
	f.Add(int64(3), byte(21), byte(1), true)
	f.Add(int64(7), byte(33), byte(6), false)
	f.Add(int64(11), byte(14), byte(15), true)
	f.Fuzz(func(t *testing.T, seed int64, steps byte, lanes byte, saturate bool) {
		k := int(lanes)%LaneWidth + 1
		cfg := Config{
			Bandwidth:   20e3,
			OffsetSigma: 0.01,
			GainSigma:   0.01,
			Seed:        seed,
		}
		build := func() *Simulator {
			nl, _, _ := buildRandomNetlist(t, rand.New(rand.NewSource(seed)), cfg)
			sim, err := NewSimulator(nl, 0)
			if err != nil {
				if err == ErrAlgebraicLoop {
					t.Skip("builder produced an algebraic loop for this seed")
				}
				t.Fatal(err)
			}
			sim.SetEngine(EngineFused)
			return sim
		}
		// satIC derives item l's integrator initial condition: near the
		// rails when saturating, a small per-lane offset otherwise.
		satIC := func(l int) float64 {
			if saturate {
				return 1.1 + 0.25*float64(l)
			}
			return 0.01 * float64(l)
		}
		// runLanes programs the k items into a fresh lane-mode simulator
		// and runs it for a fractional duration, so every lane crosses
		// the remainder-step path.
		runLanes := func() (*Simulator, float64) {
			simL := build()
			if err := simL.ConfigureLanes(true); err != nil {
				t.Fatal(err)
			}
			for lane := 0; lane < k; lane++ {
				applyLaneParamsLane(t, simL, lane)
				for _, b := range simL.nl.Blocks() {
					if b.Kind == KindIntegrator {
						if err := simL.SetLaneIC(b, lane, satIC(lane)); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			simL.ReloadLaneSteps()
			simL.Reset()
			d := (float64(int(steps)%48) + 0.5) * simL.LaneDt(0)
			if err := simL.RunLanes(d); err != nil {
				t.Fatal(err)
			}
			return simL, d
		}
		// The scalar references are built per kernel mode: reading an
		// ADC latches its overflow, so a reference serves one comparison.
		for _, kernels := range kernelModes() {
			var simL *Simulator
			var d float64
			withKernels(kernels, func() { simL, d = runLanes() })
			for lane := 0; lane < LaneWidth; lane++ {
				nlS, _, _ := buildRandomNetlist(t, rand.New(rand.NewSource(seed)), cfg)
				if lane < k {
					applyLaneParamsScalar(nlS, lane)
					for _, b := range nlS.Blocks() {
						if b.Kind == KindIntegrator {
							b.IC = satIC(lane)
						}
					}
				}
				simS, err := NewSimulator(nlS, 0)
				if err != nil {
					t.Fatal(err)
				}
				simS.SetEngine(EngineFused)
				simS.Run(d)
				expectLaneMatchesScalar(t, simL, lane, simS, fmt.Sprintf("seed=%d items=%d kernels=%t", seed, k, kernels))
			}
		}
	})
}
