package circuit

import "testing"

// Lane-batched fused execution against the sequential batch path on the
// fig8 Poisson gradient-flow netlist at the classic 32×32 size (1024
// states). One "op" advances sixteen solve instances — either as one
// 16-lane fused run streaming 16 lanes per op record, or as sixteen
// scalar fused simulators stepped back to back (the path every batch
// narrower than a full wave takes). scripts/bench.sh 1 renders these into
// BENCH_1.json with the engine microbenchmarks; the lane/sequential ratio
// is the per-op dispatch amortization the batched settle path rides on.

// laneBenchRHS keeps the benchmark solves in-scale: the l=32 Poisson
// equilibrium peaks near 0.0737·(l+1)²·rhs, so 0.009 settles just under
// the ±1 full-scale rail. That is the operating point the batched settle
// path actually runs at — core rescales any solve that overflows — and
// it keeps the measurement on the lane kernel's linear path instead of
// timing tanh saturation, which costs both arms identically and masks
// the per-op dispatch amortization being measured. (benchRHS drives the
// scalar suites hard out of scale on purpose; reusing it here would
// spend ~30% of both arms inside math.Tanh.)
const laneBenchRHS = 0.009

// benchLaneDivergeDAC gives instance k a distinct right-hand side by
// scaling the DAC biases, so lanes are genuinely independent solves, not
// sixteen copies of one trajectory.
func benchLaneDivergeDAC(level float64, k int) float64 {
	return level * (1 - 0.02*float64(k))
}

func benchLaneSim(tb testing.TB, l int) *Simulator {
	tb.Helper()
	sim, err := NewSimulator(buildPoissonNetlist(tb, l, laneBenchRHS), 0)
	if err != nil {
		tb.Fatal(err)
	}
	sim.SetEngine(EngineFused)
	if err := sim.ConfigureLanes(true); err != nil {
		tb.Fatal(err)
	}
	for lane := 0; lane < LaneWidth; lane++ {
		for _, b := range sim.nl.Blocks() {
			if b.Kind == KindDAC {
				if err := sim.SetLaneLevel(b, lane, benchLaneDivergeDAC(b.Level, lane)); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	sim.ReloadLaneSteps()
	sim.Reset()
	return sim
}

func benchScalarSims(tb testing.TB, l, n int) []*Simulator {
	tb.Helper()
	sims := make([]*Simulator, n)
	for k := range sims {
		nl := buildPoissonNetlist(tb, l, laneBenchRHS)
		for _, b := range nl.Blocks() {
			if b.Kind == KindDAC {
				b.Level = benchLaneDivergeDAC(b.Level, k)
			}
		}
		sim, err := NewSimulator(nl, 0)
		if err != nil {
			tb.Fatal(err)
		}
		sim.SetEngine(EngineFused)
		sims[k] = sim
	}
	return sims
}

// BenchmarkStepBatch32Lanes16 advances all 16 instances one RK4 step as a
// single lane-batched run.
func BenchmarkStepBatch32Lanes16(b *testing.B) {
	sim := benchLaneSim(b, 32)
	d := sim.LaneDt(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.RunLanes(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStepBatch32Sequential16 advances the same 16 instances one RK4
// step each as sixteen back-to-back scalar fused runs — the pre-lane
// batch path's cost per settle-poll step.
func BenchmarkStepBatch32Sequential16(b *testing.B) {
	sims := benchScalarSims(b, 32, LaneWidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sims {
			s.Step()
		}
	}
}

// BenchmarkRunBatch32Lanes16 advances all 16 instances through a 50-step
// segment lane-parallel: the shape of one settle-polling chunk.
func BenchmarkRunBatch32Lanes16(b *testing.B) {
	sim := benchLaneSim(b, 32)
	d := 50 * sim.LaneDt(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.RunLanes(d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunBatch32Sequential16 runs the same 50-step segment on each of
// the sixteen scalar simulators in turn.
func BenchmarkRunBatch32Sequential16(b *testing.B) {
	sims := benchScalarSims(b, 32, LaneWidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range sims {
			s.Run(50 * s.Dt())
		}
	}
}
