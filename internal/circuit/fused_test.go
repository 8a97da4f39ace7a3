package circuit

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestFusedMatchesReference runs the full differential harness (probes,
// fractional runs, state pokes, trim reloads) against the fused kernel.
func TestFusedMatchesReference(t *testing.T) {
	testEngineMatchesReference(t, EngineFused)
}

// TestFusedStepAllocs pins the allocation-free hot loop: once warm, a
// fused step must allocate nothing.
func TestFusedStepAllocs(t *testing.T) {
	sim, err := NewSimulator(buildPoissonNetlist(t, 12, benchRHS), 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.SetEngine(EngineFused)
	for i := 0; i < 8; i++ {
		sim.Step()
	}
	if allocs := testing.AllocsPerRun(50, sim.Step); allocs != 0 {
		t.Fatalf("%v allocs per step, want 0", allocs)
	}
}

// TestFusedSettlesIdentically runs the settle-and-sample pattern on both
// engines and requires identical SettleResults and states.
func TestFusedSettlesIdentically(t *testing.T) {
	run := func(eng Engine) (SettleResult, []float64) {
		sim, err := NewSimulator(buildPoissonNetlist(t, 8, settleRHS), 0)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetEngine(eng)
		res := sim.RunUntilSettled(1e-4, 1.0, 0) // exercises DefaultCheckEvery
		return res, append([]float64(nil), sim.state...)
	}
	refRes, refState := run(EngineReference)
	if !refRes.Settled {
		t.Fatalf("reference did not settle: %+v", refRes)
	}
	res, state := run(EngineFused)
	if res != refRes {
		t.Fatalf("fused settle result %+v != reference %+v", res, refRes)
	}
	for i := range refState {
		if state[i] != refState[i] {
			t.Fatalf("fused state %d diverges", i)
		}
	}
}

// TestLUTNaNInput pins the NaN guard: a stimulus returning NaN reaches a
// LUT without tripping the implementation-defined float→int conversion,
// resolves to table index 0, and does so identically on both engines.
func TestLUTNaNInput(t *testing.T) {
	build := func(eng Engine) (*Simulator, *Block) {
		nl, err := NewNetlist(Config{Bandwidth: 20e3})
		if err != nil {
			t.Fatal(err)
		}
		in, out, d, u := nl.Net(), nl.Net(), nl.Net(), nl.Net()
		nl.AddInput(in, func(float64) float64 { return math.NaN() })
		nl.AddLUT(in, out, func(x float64) float64 { return 0.25 + 0.5*x })
		nl.AddMultiplier(out, d, 0.5)
		integ := nl.AddIntegrator(d, u, 0)
		sim, err := NewSimulator(nl, 0)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetEngine(eng)
		return sim, integ
	}
	refSim, refInteg := build(EngineReference)
	refSim.Run(10 * refSim.Dt())
	refV, _ := refSim.IntegratorValue(refInteg)
	if math.IsNaN(refV) {
		t.Fatalf("NaN leaked through the LUT into the state")
	}
	sim, integ := build(EngineFused)
	sim.Run(10 * sim.Dt())
	if v, _ := sim.IntegratorValue(integ); v != refV {
		t.Fatalf("fused: state %v != reference %v", v, refV)
	}
}

// TestEngineParse covers the name round-trip and rejection, including
// the retired "compiled" engine: its name must fail rather than silently
// select another kernel.
func TestEngineParse(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Engine
	}{
		{"", EngineAuto}, {"auto", EngineAuto},
		{"interpreter", EngineReference}, {"reference", EngineReference},
		{"fused", EngineFused},
	} {
		got, err := ParseEngine(tc.name)
		if err != nil || got != tc.want {
			t.Fatalf("ParseEngine(%q) = (%v, %v), want %v", tc.name, got, err, tc.want)
		}
	}
	for _, name := range []string{"vectorized", "compiled"} {
		_, err := ParseEngine(name)
		if err == nil {
			t.Fatalf("ParseEngine accepted unknown engine %q", name)
		}
		for _, valid := range []string{"auto", "interpreter", "fused"} {
			if !strings.Contains(err.Error(), valid) {
				t.Fatalf("ParseEngine(%q) error %q does not name valid engine %q", name, err, valid)
			}
		}
	}
	if EngineFused.String() != "fused" || EngineReference.String() != "interpreter" {
		t.Fatal("Engine.String names drifted from ParseEngine")
	}

	// A new simulator runs the fused kernel (auto); SetEngine switches.
	nl, err := NewNetlist(Config{Bandwidth: 20e3})
	if err != nil {
		t.Fatal(err)
	}
	buildDecay(nl, 1.0)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	if sim.EngineSelected() != EngineFused {
		t.Fatalf("default engine %v, want fused via auto", sim.EngineSelected())
	}
	sim.SetEngine(EngineReference)
	if sim.EngineSelected() != EngineReference {
		t.Fatalf("SetEngine(EngineReference) selected %v", sim.EngineSelected())
	}
}

// TestFirstDriverFlags checks the lowering invariant the clear-free store
// relies on: exactly one first-driver op per driven net, and it is the
// earliest driver in stream order.
func TestFirstDriverFlags(t *testing.T) {
	sim, err := NewSimulator(buildPoissonNetlist(t, 4, benchRHS), 0)
	if err != nil {
		t.Fatal(err)
	}
	p := sim.prog
	seen := map[int32]bool{}
	for i := range p.kind {
		out := p.out[i]
		if p.first[i] != !seen[out] {
			t.Fatalf("op %d (net %d): first=%v but net already driven=%v", i, out, p.first[i], seen[out])
		}
		seen[out] = true
	}
}

// TestConeClassification pins the cone split on a netlist shaped like an
// idle corner of a chip: a fanout branch feeding a LUT that only an ADC
// reads (a record-only op feeding another), a multiplier with an
// unconnected output, an idle input, and a DAC whose raw level sits past
// full scale, so its latch must see the raw value, not the clipped one.
// Trial stages must run only the
// integrator's cone, the record pass every op, and both engines must
// still agree bit for bit — including the record-only nets and latches.
func TestConeClassification(t *testing.T) {
	build := func(eng Engine) (*Simulator, []*Block, []*Block) {
		nl, err := NewNetlist(Config{Bandwidth: 20e3, OffsetSigma: 0.01, GainSigma: 0.01, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		u, d, a, b, c, idle, e := nl.Net(), nl.Net(), nl.Net(), nl.Net(), nl.Net(), nl.Net(), nl.Net()
		integ := nl.AddIntegrator(d, u, 0.9)
		fan := nl.AddFanout(u, a, b)
		mul := nl.AddMultiplier(a, d, -1)
		dac := nl.AddDAC(d, 0.6)
		lut := nl.AddLUT(b, c, func(x float64) float64 { return 0.5 - x })
		adc := nl.AddADC(c)
		unloaded := nl.AddMultiplier(u, noNet, 1.5) // past full scale: latches
		in := nl.AddInput(idle, nil)
		hot := nl.AddDAC(e, 1.0)
		hot.SetMismatch(0.05, 0)
		adcHot := nl.AddADC(e)
		sim, err := NewSimulator(nl, 0)
		if err != nil {
			t.Fatal(err)
		}
		sim.SetEngine(eng)
		return sim, []*Block{integ, fan, mul, dac, lut, unloaded, in, hot}, []*Block{adc, adcHot}
	}
	sim, blocks, adcs := build(EngineFused)
	integ, fan, mul, dac, lut, unloaded, in, hot := blocks[0], blocks[1], blocks[2], blocks[3], blocks[4], blocks[5], blocks[6], blocks[7]
	p := sim.prog
	wantCone := map[*Block][]bool{
		integ: {true}, dac: {true}, mul: {true}, fan: {true, false},
		lut: {false}, unloaded: {false}, in: {false}, hot: {false},
	}
	got := map[*Block][]bool{}
	for i := range p.kind {
		got[p.blk[i]] = append(got[p.blk[i]], p.cone[i])
		if p.blk[i] == unloaded && p.out[i] != int32(sim.nl.NumNets()) {
			t.Fatalf("unconnected output drives net %d, want the sink %d", p.out[i], sim.nl.NumNets())
		}
	}
	for blk, want := range wantCone {
		if fmt.Sprint(got[blk]) != fmt.Sprint(want) {
			t.Fatalf("%v block %d: cone %v, want %v", blk.Kind, blk.ID, got[blk], want)
		}
	}
	if nc, nr := len(sim.fused.cone.ops), len(sim.fused.rec.ops); nc != 4 || nr != 5 || nc+nr != len(p.kind) {
		t.Fatalf("streams hold %d cone + %d record ops, want 4 + 5 of %d", nc, nr, len(p.kind))
	}

	ref, _, adcsRef := build(EngineReference)
	for i := 0; i < 30; i++ {
		ref.Step()
		sim.Step()
	}
	expectSame(t, ref, sim, adcsRef, adcs, "cone split")
	if !sim.Overflowed(unloaded, 0) || !sim.Overflowed(hot, 0) || sim.PeakAbs(lut, 0) == 0 {
		t.Fatal("record-only ops did not latch")
	}
	if got := sim.PeakAbs(hot, 0); got != 1.05 {
		t.Fatalf("DAC peak %v, want its raw level 1.05", got)
	}
}
