package circuit

import "testing"

// Suite-5 benchmarks: the fused kernel on the fig8 Poisson gradient-flow
// netlist, at the classic 32×32 size (1024 states, serial) and at
// 128×128 (16384 states, large enough for the level-parallel path)
// across worker bounds. scripts/bench.sh 5 renders these into
// BENCH_5.json.

func benchEngineSim(tb testing.TB, l int, eng Engine, workers int) *Simulator {
	tb.Helper()
	sim, err := NewSimulator(buildPoissonNetlist(tb, l, benchRHS), 0)
	if err != nil {
		tb.Fatal(err)
	}
	sim.SetEngine(eng)
	sim.SetWorkers(workers)
	return sim
}

func benchmarkEvalEngine(b *testing.B, l int, eng Engine, workers int) {
	sim := benchEngineSim(b, l, eng, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.eval(sim.time, sim.state, false)
	}
}

func benchmarkStepEngine(b *testing.B, l int, eng Engine, workers int) {
	sim := benchEngineSim(b, l, eng, workers)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

func BenchmarkEval32Fused(b *testing.B) { benchmarkEvalEngine(b, 32, EngineFused, 1) }
func BenchmarkStep32Fused(b *testing.B) { benchmarkStepEngine(b, 32, EngineFused, 1) }

func BenchmarkEval128FusedW1(b *testing.B) { benchmarkEvalEngine(b, 128, EngineFused, 1) }
func BenchmarkEval128FusedW2(b *testing.B) { benchmarkEvalEngine(b, 128, EngineFused, 2) }
func BenchmarkEval128FusedW4(b *testing.B) { benchmarkEvalEngine(b, 128, EngineFused, 4) }

func BenchmarkStep128FusedW1(b *testing.B) { benchmarkStepEngine(b, 128, EngineFused, 1) }
func BenchmarkStep128FusedW2(b *testing.B) { benchmarkStepEngine(b, 128, EngineFused, 2) }
func BenchmarkStep128FusedW4(b *testing.B) { benchmarkStepEngine(b, 128, EngineFused, 4) }
