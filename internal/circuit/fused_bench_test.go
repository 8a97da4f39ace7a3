package circuit

import "testing"

// Suite-5 benchmarks: the fused kernel on the fig8 Poisson gradient-flow
// netlist, at the classic 32×32 size (1024 states) and at 128×128 (16384
// states). scripts/bench.sh 5 renders these into BENCH_5.json.

func benchEngineSim(tb testing.TB, l int, eng Engine) *Simulator {
	tb.Helper()
	sim, err := NewSimulator(buildPoissonNetlist(tb, l, benchRHS), 0)
	if err != nil {
		tb.Fatal(err)
	}
	sim.SetEngine(eng)
	return sim
}

func benchmarkEvalEngine(b *testing.B, l int, eng Engine) {
	sim := benchEngineSim(b, l, eng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.eval(sim.time, sim.state, false)
	}
}

func benchmarkStepEngine(b *testing.B, l int, eng Engine) {
	sim := benchEngineSim(b, l, eng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

func BenchmarkEval32Fused(b *testing.B) { benchmarkEvalEngine(b, 32, EngineFused) }
func BenchmarkStep32Fused(b *testing.B) { benchmarkStepEngine(b, 32, EngineFused) }

func BenchmarkEval128Fused(b *testing.B) { benchmarkEvalEngine(b, 128, EngineFused) }
func BenchmarkStep128Fused(b *testing.B) { benchmarkStepEngine(b, 128, EngineFused) }
