package circuit

import (
	"fmt"
	"testing"
)

// buildPoissonNetlist wires the gradient-flow datapath du/dt ∝ b − A·u for
// the 2-D L×L Poisson operator, the way the chip layer lays out a fig8
// solve: one integrator per grid point, a fanout tree per point's output,
// one constant-gain multiplier per stencil coefficient, one DAC per
// right-hand-side entry. Row sums are scaled to unit gain budget.
func buildPoissonNetlist(tb testing.TB, l int, rhs float64) *Netlist {
	tb.Helper()
	nl, err := NewNetlist(Config{Bandwidth: 20e3})
	if err != nil {
		tb.Fatal(err)
	}
	n := l * l
	uNets := make([]Net, n)
	dNets := make([]Net, n)
	for i := range uNets {
		uNets[i] = nl.Net()
		dNets[i] = nl.Net()
	}
	idx := func(x, y int) int { return y*l + x }
	const scale = 5.0 // diag 4 + |off-diag| ≤ 1 per row, scaled into ±1 gains
	for y := 0; y < l; y++ {
		for x := 0; x < l; x++ {
			i := idx(x, y)
			nl.AddIntegrator(dNets[i], uNets[i], 0)
			// Consumers of u_i: the self term and each in-grid neighbor.
			consumers := []int{i}
			gains := []float64{-4.0 / scale}
			for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}} {
				nx, ny := x+d[0], y+d[1]
				if nx < 0 || nx >= l || ny < 0 || ny >= l {
					continue
				}
				consumers = append(consumers, idx(nx, ny))
				gains = append(gains, 1.0/scale)
			}
			branches := make([]Net, len(consumers))
			for j := range branches {
				branches[j] = nl.Net()
			}
			nl.AddFanout(uNets[i], branches...)
			for j, c := range consumers {
				nl.AddMultiplier(branches[j], dNets[c], gains[j])
			}
			nl.AddDAC(dNets[i], rhs/scale)
			nl.AddADC(uNets[i])
		}
	}
	return nl
}

func benchSimulator(tb testing.TB, l int, rhs float64, reference bool) *Simulator {
	tb.Helper()
	sim, err := NewSimulator(buildPoissonNetlist(tb, l, rhs), 0)
	if err != nil {
		tb.Fatal(err)
	}
	if reference {
		sim.SetEngine(EngineReference)
	}
	return sim
}

// benchRHS drives the Eval/Step benchmarks hard: the equilibrium is far
// beyond full scale, so states climb through softSat compression — both
// engines do identical work either way.
const benchRHS = 0.5

// settleRHS lands the DAC on an exactly representable 8-bit level
// (code 128 = +1/255 of full scale) after the /scale row normalization:
// the settled solution then peaks at ≈0.42 of full scale, so the gradient
// flow can reach ‖du/dt‖∞ ≤ k·1e-4 instead of clipping forever. (Half-LSB
// levels round up and push the equilibrium back over full scale.)
const settleRHS = 5.0 / 255

func benchmarkEval(b *testing.B, reference bool) {
	sim := benchSimulator(b, 32, benchRHS, reference)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.eval(sim.time, sim.state, false)
	}
}

// The fused counterparts of these reference benchmarks are
// BenchmarkEval32Fused and BenchmarkStep32Fused (fused_bench_test.go).
func BenchmarkEvalReference(b *testing.B) { benchmarkEval(b, true) }

func benchmarkStep(b *testing.B, reference bool) {
	sim := benchSimulator(b, 32, benchRHS, reference)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

func BenchmarkStepReference(b *testing.B) { benchmarkStep(b, true) }

// TestBenchNetlistEnginesAgree keeps the benchmark netlist itself inside
// the differential guarantee (it exercises the fanout-tree layout at a
// scale the randomized tests do not reach).
func TestBenchNetlistEnginesAgree(t *testing.T) {
	ref := benchSimulator(t, 8, benchRHS, true)
	cmp := benchSimulator(t, 8, benchRHS, false)
	for i := 0; i < 25; i++ {
		ref.Step()
		cmp.Step()
	}
	for n := 0; n < ref.nl.NumNets(); n++ {
		if ref.NetValue(Net(n)) != cmp.NetValue(Net(n)) {
			t.Fatalf("net %d: %v vs %v", n, ref.NetValue(Net(n)), cmp.NetValue(Net(n)))
		}
	}
	if fmt.Sprintf("%x", ref.state) != fmt.Sprintf("%x", cmp.state) {
		t.Fatal("states diverge")
	}
}
