package circuit

import (
	"math"
	"math/rand"
	"testing"
)

// buildRandomNetlist wires a random but legal datapath: integrators close
// feedback loops, combinational blocks (multipliers, var-multipliers,
// fanouts, LUTs) form a DAG over already-driven nets, DACs and stimuli
// inject sources, ADCs observe. Deterministic in rng, so two calls with
// equally seeded rngs build identical netlists (same mismatch draws too).
func buildRandomNetlist(t testing.TB, rng *rand.Rand, cfg Config) (*Netlist, []*Block, []*Block) {
	t.Helper()
	nl, err := NewNetlist(cfg)
	if err != nil {
		t.Fatal(err)
	}
	nInteg := 2 + rng.Intn(4)
	// Every integrator output is a root of the combinational DAG.
	uNets := make([]Net, nInteg)
	dNets := make([]Net, nInteg)
	for i := range uNets {
		uNets[i] = nl.Net()
		dNets[i] = nl.Net()
	}
	avail := append([]Net(nil), uNets...) // nets safe for combinational reads
	integs := make([]*Block, nInteg)
	for i := range integs {
		integs[i] = nl.AddIntegrator(dNets[i], uNets[i], rng.Float64()*0.4-0.2)
	}
	// Sources.
	for i := 0; i < 1+rng.Intn(3); i++ {
		n := nl.Net()
		nl.AddDAC(n, rng.Float64()*1.2-0.6)
		avail = append(avail, n)
	}
	{
		n := nl.Net()
		freq := 500 + rng.Float64()*2000
		nl.AddInput(n, func(tm float64) float64 { return 0.3 * math.Sin(2*math.Pi*freq*tm) })
		avail = append(avail, n)
	}
	pick := func() Net { return avail[rng.Intn(len(avail))] }
	sink := func() Net {
		// Mostly feed integrator inputs; sometimes a fresh (dangling) net.
		if rng.Float64() < 0.75 {
			return dNets[rng.Intn(nInteg)]
		}
		if rng.Float64() < 0.3 {
			return noNet
		}
		return nl.Net()
	}
	for i := 0; i < 4+rng.Intn(8); i++ {
		switch rng.Intn(4) {
		case 0:
			nl.AddMultiplier(pick(), sink(), rng.Float64()*2.4-1.2)
		case 1:
			nl.AddVarMultiplier(pick(), pick(), sink())
		case 2:
			outs := make([]Net, 1+rng.Intn(3))
			for j := range outs {
				outs[j] = sink()
			}
			// New combinational outputs driving fresh nets become readable.
			b := nl.AddFanout(pick(), outs...)
			for _, n := range b.out {
				if n != noNet {
					avail = appendIfFresh(avail, uNets, dNets, n)
				}
			}
			continue
		case 3:
			a, c := rng.Float64()*0.8, rng.Float64()*3
			out := sink()
			nl.AddLUT(pick(), out, func(x float64) float64 { return a * math.Sin(c*x) })
			if out != noNet {
				avail = appendIfFresh(avail, uNets, dNets, out)
			}
			continue
		}
	}
	adcs := make([]*Block, 1+rng.Intn(3))
	for i := range adcs {
		adcs[i] = nl.AddADC(pick())
	}
	// Random trim codes: refold must fold them identically.
	for _, b := range nl.Blocks() {
		b.SetOffsetTrim(rng.Intn(17) - 8)
		b.SetGainTrim(rng.Intn(17) - 8)
	}
	return nl, integs, adcs
}

// appendIfFresh adds n to avail when it is a newly created net (not an
// integrator loop net, which would make reads of it order-sensitive fodder
// for algebraic loops — the builder only reads u-nets of integrators).
func appendIfFresh(avail []Net, uNets, dNets []Net, n Net) []Net {
	for _, u := range uNets {
		if n == u {
			return avail
		}
	}
	for _, d := range dNets {
		if n == d {
			return avail
		}
	}
	return append(avail, n)
}

// expectSame asserts two simulators are in bit-identical externally
// observable states.
func expectSame(t testing.TB, ref, cmp *Simulator, adcsRef, adcsCmp []*Block, tag string) {
	t.Helper()
	if ref.Steps() != cmp.Steps() || ref.Time() != cmp.Time() {
		t.Fatalf("%s: steps/time diverge: (%d, %v) vs (%d, %v)",
			tag, ref.Steps(), ref.Time(), cmp.Steps(), cmp.Time())
	}
	for n := 0; n < ref.nl.NumNets(); n++ {
		if rv, cv := ref.NetValue(Net(n)), cmp.NetValue(Net(n)); rv != cv {
			t.Fatalf("%s: net %d: reference %v engine %v (diff %g)", tag, n, rv, cv, math.Abs(rv-cv))
		}
	}
	for i := range ref.state {
		if ref.state[i] != cmp.state[i] {
			t.Fatalf("%s: state %d: reference %v engine %v", tag, i, ref.state[i], cmp.state[i])
		}
	}
	rb, cb := ref.nl.Blocks(), cmp.nl.Blocks()
	for i := range rb {
		if rp, cp := ref.PeakAbs(rb[i], 0), cmp.PeakAbs(cb[i], 0); rp != cp {
			t.Fatalf("%s: block %d (%v) peak: reference %v engine %v",
				tag, i, rb[i].Kind, rp, cp)
		}
		if ro, co := ref.Overflowed(rb[i], 0), cmp.Overflowed(cb[i], 0); ro != co {
			t.Fatalf("%s: block %d (%v) overflow latch: reference %v engine %v",
				tag, i, rb[i].Kind, ro, co)
		}
	}
	for i := range adcsRef {
		rcode, rv, err := ref.ReadADC(adcsRef[i])
		if err != nil {
			t.Fatal(err)
		}
		ccode, cv, err := cmp.ReadADC(adcsCmp[i])
		if err != nil {
			t.Fatal(err)
		}
		if rcode != ccode || rv != cv {
			t.Fatalf("%s: ADC %d: reference (%d, %v) engine (%d, %v)", tag, i, rcode, rv, ccode, cv)
		}
	}
	if rd, cd := ref.MaxIntegratorDrive(), cmp.MaxIntegratorDrive(); rd != cd {
		t.Fatalf("%s: max drive: reference %v engine %v", tag, rd, cd)
	}
}

// testEngineMatchesReference is the shared differential harness: it
// drives randomized netlists through the reference interpreter and the
// given engine in lockstep and requires bit-identical net values, states,
// peak trackers, overflow latches, and ADC codes
// (TestFusedMatchesReference in fused_test.go runs it).
func testEngineMatchesReference(t *testing.T, engine Engine) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := Config{
			Bandwidth:   20e3,
			OffsetSigma: 0.01,
			GainSigma:   0.01,
			Seed:        seed,
		}
		if seed%3 == 0 {
			cfg.NoiseSigma = 1e-4 // same RNG stream in both engines
		}
		nlRef, _, adcsRef := buildRandomNetlist(t, rand.New(rand.NewSource(seed)), cfg)
		nlCmp, integsCmp, adcsCmp := buildRandomNetlist(t, rand.New(rand.NewSource(seed)), cfg)

		ref, err := NewSimulator(nlRef, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		ref.SetEngine(EngineReference)
		cmp, err := NewSimulator(nlCmp, 0)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cmp.SetEngine(engine)

		prRef := ref.AddProbe(Net(0), 3)
		prCmp := cmp.AddProbe(Net(0), 3)
		ref.Reset()
		cmp.Reset()
		expectSame(t, ref, cmp, adcsRef, adcsCmp, "after reset")
		for i := 0; i < 40; i++ {
			ref.Step()
			cmp.Step()
		}
		expectSame(t, ref, cmp, adcsRef, adcsCmp, "after 40 steps")

		// Partial step (Run remainder path).
		ref.Run(2.5 * ref.Dt())
		cmp.Run(2.5 * cmp.Dt())
		expectSame(t, ref, cmp, adcsRef, adcsCmp, "after fractional Run")

		// State poke invalidates the cached k1 evaluation.
		integsRef := []*Block{}
		for _, b := range nlRef.Blocks() {
			if b.Kind == KindIntegrator {
				integsRef = append(integsRef, b)
			}
		}
		if err := ref.SetIntegratorValue(integsRef[0], 0.123); err != nil {
			t.Fatal(err)
		}
		if err := cmp.SetIntegratorValue(integsCmp[0], 0.123); err != nil {
			t.Fatal(err)
		}
		ref.Step()
		cmp.Step()
		expectSame(t, ref, cmp, adcsRef, adcsCmp, "after state poke")

		// Trim change + reload: the folded constants must refold.
		for i, b := range nlRef.Blocks() {
			b.SetOffsetTrim(i%7 - 3)
			nlCmp.Blocks()[i].SetOffsetTrim(i%7 - 3)
		}
		ref.ReloadBlockParams()
		cmp.ReloadBlockParams()
		ref.Step()
		cmp.Step()
		expectSame(t, ref, cmp, adcsRef, adcsCmp, "after trim reload")

		if len(prRef.Vals) == 0 || len(prRef.Vals) != len(prCmp.Vals) {
			t.Fatalf("seed %d: probe lengths %d vs %d", seed, len(prRef.Vals), len(prCmp.Vals))
		}
		for i := range prRef.Vals {
			if prRef.Vals[i] != prCmp.Vals[i] || prRef.Times[i] != prCmp.Times[i] {
				t.Fatalf("seed %d: probe sample %d diverges", seed, i)
			}
		}
	}
}

// TestCompiledSettlesIdentically checks the settle-and-sample usage
// pattern end to end on a compiled netlist: the reference interpreter
// against the default (fused) engine.
func TestCompiledSettlesIdentically(t *testing.T) {
	build := func() (*Simulator, *Block) {
		nl, err := NewNetlist(Config{Bandwidth: 20e3})
		if err != nil {
			t.Fatal(err)
		}
		integ, _ := buildDecay(nl, 1.0)
		sim, err := NewSimulator(nl, 0)
		if err != nil {
			t.Fatal(err)
		}
		return sim, integ
	}
	ref, refInteg := build()
	ref.SetEngine(EngineReference)
	cmp, cmpInteg := build()
	r1 := ref.RunUntilSettled(1e-4, 1.0, 8)
	r2 := cmp.RunUntilSettled(1e-4, 1.0, 8)
	if r1 != r2 {
		t.Fatalf("settle results diverge: %+v vs %+v", r1, r2)
	}
	v1, _ := ref.IntegratorValue(refInteg)
	v2, _ := cmp.IntegratorValue(cmpInteg)
	if v1 != v2 {
		t.Fatalf("settled values diverge: %v vs %v", v1, v2)
	}
}

// TestProbeEveryNormalizedAtAttach pins the satellite fix: Every is
// clamped when the probe is attached, not inside the per-step loop.
func TestProbeEveryNormalizedAtAttach(t *testing.T) {
	nl, err := NewNetlist(Config{Bandwidth: 20e3})
	if err != nil {
		t.Fatal(err)
	}
	_, u := buildDecay(nl, 1.0)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := sim.AddProbe(u, -3)
	if p.Every != 1 {
		t.Fatalf("AddProbe left Every = %d, want 1", p.Every)
	}
	sim.Run(10 * sim.Dt())
	if len(p.Vals) != 10 {
		t.Fatalf("%d samples after 10 steps with Every=1", len(p.Vals))
	}
}

// TestRunTakesExactStepCounts pins the satellite fix: Run(n·dt) must take
// exactly n whole steps — bit-identical to stepping n times — with no
// spurious remainder step from duration/dt float error.
func TestRunTakesExactStepCounts(t *testing.T) {
	for _, n := range []int{1, 3, 7, 10, 49, 100, 333} {
		build := func() (*Simulator, *Block) {
			nl, err := NewNetlist(Config{Bandwidth: 20e3})
			if err != nil {
				t.Fatal(err)
			}
			integ, _ := buildDecay(nl, 1.0)
			sim, err := NewSimulator(nl, 0)
			if err != nil {
				t.Fatal(err)
			}
			return sim, integ
		}
		byRun, runInteg := build()
		byStep, stepInteg := build()
		byRun.Run(float64(n) * byRun.Dt())
		for i := 0; i < n; i++ {
			byStep.Step()
		}
		if byRun.Steps() != int64(n) {
			t.Fatalf("Run(%d·dt) took %d steps", n, byRun.Steps())
		}
		v1, _ := byRun.IntegratorValue(runInteg)
		v2, _ := byStep.IntegratorValue(stepInteg)
		if v1 != v2 {
			t.Fatalf("Run(%d·dt) state %v != %d×Step state %v (remainder step slipped in)", n, v1, n, v2)
		}
	}
}
