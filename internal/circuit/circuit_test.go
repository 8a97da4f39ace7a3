package circuit

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// idealChip returns a netlist on an ideal (no mismatch, no noise) chip.
func idealChip(t *testing.T, cfg Config) *Netlist {
	t.Helper()
	nl, err := NewNetlist(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return nl
}

// buildDecay wires du/dt = -u: integrator -> inverting multiplier -> back.
func buildDecay(nl *Netlist, ic float64) (*Block, Net) {
	u := nl.Net()
	d := nl.Net()
	integ := nl.AddIntegrator(d, u, ic)
	nl.AddMultiplier(u, d, -1)
	return integ, u
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Bandwidth: -5},
		{FullScale: -1},
		{FullScale: 1, SatLevel: 0.5},
		{ADCBits: 99},
		{DACBits: -2},
		{TrimBits: 50},
		{MaxGain: -1},
		{OffsetSigma: -0.1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
}

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		KindIntegrator: "integrator", KindMultiplier: "multiplier",
		KindFanout: "fanout", KindDAC: "dac", KindADC: "adc",
		KindLUT: "lut", KindInput: "input",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%v != %s", k, want)
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind empty")
	}
}

func TestExponentialDecayMatchesClosedForm(t *testing.T) {
	nl := idealChip(t, Config{Bandwidth: 20e3})
	integ, _ := buildDecay(nl, 1.0)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	k := 2 * math.Pi * 20e3
	tEnd := 1 / k // one time constant
	sim.Run(tEnd)
	got, err := sim.IntegratorValue(integ)
	if err != nil {
		t.Fatal(err)
	}
	want := math.Exp(-k * sim.Time())
	if math.Abs(got-want) > 1e-6 {
		t.Fatalf("u(1/k)=%v want %v", got, want)
	}
}

func TestBandwidthScalesSettlingTime(t *testing.T) {
	// The paper's central performance knob: α× bandwidth gives α× faster
	// settling (Section V-B). Measure time for decay to fall below 1e-3.
	settleTime := func(bw float64) float64 {
		nl := idealChip(t, Config{Bandwidth: bw})
		buildDecay(nl, 1.0)
		sim, err := NewSimulator(nl, 0)
		if err != nil {
			t.Fatal(err)
		}
		res := sim.RunUntilSettled(1e-3, 1.0, 8)
		if !res.Settled {
			t.Fatalf("bw=%v did not settle", bw)
		}
		return res.Time
	}
	t20 := settleTime(20e3)
	t80 := settleTime(80e3)
	ratio := t20 / t80
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("80kHz speedup ratio %v want ~4", ratio)
	}
}

// buildSLE wires du/dt = b - A·u for a small system on an ideal chip.
func buildSLE(nl *Netlist, a [][]float64, b []float64) ([]*Block, []Net) {
	n := len(b)
	uNets := make([]Net, n)
	dNets := make([]Net, n)
	for i := 0; i < n; i++ {
		uNets[i] = nl.Net()
		dNets[i] = nl.Net()
	}
	integs := make([]*Block, n)
	for i := 0; i < n; i++ {
		integs[i] = nl.AddIntegrator(dNets[i], uNets[i], 0)
		nl.AddDAC(dNets[i], b[i])
		for j := 0; j < n; j++ {
			if a[i][j] != 0 {
				nl.AddMultiplier(uNets[j], dNets[i], -a[i][j])
			}
		}
	}
	return integs, uNets
}

func TestTwoVariableSLESettlesToSolution(t *testing.T) {
	// Figure 5's circuit: A = [[0.8, 0.2], [0.2, 0.6]], b = [0.5, 0.3].
	// Exact: u = A⁻¹b = ([0.5*0.6-0.3*0.2]/0.44, [0.8*0.3-0.2*0.5]/0.44).
	nl := idealChip(t, Config{Bandwidth: 20e3, DACBits: 16})
	a := [][]float64{{0.8, 0.2}, {0.2, 0.6}}
	b := []float64{0.5, 0.3}
	integs, _ := buildSLE(nl, a, b)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.RunUntilSettled(1e-9, 0.01, 16)
	if !res.Settled {
		t.Fatalf("did not settle: %+v", res)
	}
	wantU0 := (0.5*0.6 - 0.2*0.3) / (0.8*0.6 - 0.2*0.2)
	wantU1 := (0.8*0.3 - 0.2*0.5) / (0.8*0.6 - 0.2*0.2)
	u0, _ := sim.IntegratorValue(integs[0])
	u1, _ := sim.IntegratorValue(integs[1])
	if math.Abs(u0-wantU0) > 1e-4 || math.Abs(u1-wantU1) > 1e-4 {
		t.Fatalf("settled to (%v, %v) want (%v, %v)", u0, u1, wantU0, wantU1)
	}
	if sim.AnyException() {
		t.Fatal("unexpected overflow exception")
	}
}

func TestQuantizeProperties(t *testing.T) {
	// 8-bit quantization error bounded by half an LSB inside range.
	lsb := 2.0 / 255
	for _, v := range []float64{0, 0.1, -0.37, 0.9999, -1} {
		q := Quantize(v, 1, 8)
		if math.Abs(q-v) > lsb/2+1e-12 {
			t.Fatalf("quantize(%v)=%v error beyond LSB/2", v, q)
		}
	}
	// Out of range clamps to end codes.
	if Quantize(5, 1, 8) != 1 || Quantize(-5, 1, 8) != -1 {
		t.Fatal("clamping wrong")
	}
	// 1-bit converter has exactly two levels.
	if Quantize(0.2, 1, 1) != 1 || Quantize(-0.2, 1, 1) != -1 {
		t.Fatal("1-bit levels wrong")
	}
}

func TestNetsSumLikeJoinedBranches(t *testing.T) {
	// Two DACs driving one net: the net carries their sum (crossbar
	// addition by joining current branches).
	nl := idealChip(t, Config{DACBits: 16})
	n := nl.Net()
	nl.AddDAC(n, 0.25)
	nl.AddDAC(n, 0.5)
	adc := nl.AddADC(n)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step()
	_, v, err := sim.ReadADC(adc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.75) > 0.01 {
		t.Fatalf("summed net reads %v want 0.75", v)
	}
}

func TestFanoutCopiesToAllBranches(t *testing.T) {
	nl := idealChip(t, Config{DACBits: 16})
	src := nl.Net()
	b1, b2 := nl.Net(), nl.Net()
	nl.AddDAC(src, 0.5)
	nl.AddFanout(src, b1, b2)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step()
	if math.Abs(sim.NetValue(b1)-0.5) > 1e-2 || math.Abs(sim.NetValue(b2)-0.5) > 1e-2 {
		t.Fatalf("fanout branches %v %v want 0.5", sim.NetValue(b1), sim.NetValue(b2))
	}
}

func TestVarMultiplier(t *testing.T) {
	nl := idealChip(t, Config{DACBits: 16})
	x, y, p := nl.Net(), nl.Net(), nl.Net()
	nl.AddDAC(x, 0.5)
	nl.AddDAC(y, -0.4)
	nl.AddVarMultiplier(x, y, p)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step()
	if math.Abs(sim.NetValue(p)-(-0.2)) > 1e-2 {
		t.Fatalf("product %v want -0.2", sim.NetValue(p))
	}
}

func TestLUTAppliesNonlinearFunction(t *testing.T) {
	nl := idealChip(t, Config{DACBits: 16})
	in, out := nl.Net(), nl.Net()
	nl.AddDAC(in, 0.5)
	nl.AddLUT(in, out, func(x float64) float64 { return math.Sin(math.Pi * x) })
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step()
	want := math.Sin(math.Pi * 0.5)
	// 8-bit output quantization plus 256-deep input sampling: coarse.
	if math.Abs(sim.NetValue(out)-want) > 0.02 {
		t.Fatalf("lut(0.5)=%v want ~%v", sim.NetValue(out), want)
	}
}

func TestExternalInputStimulus(t *testing.T) {
	nl := idealChip(t, Config{Bandwidth: 1e3})
	in := nl.Net()
	nl.AddInput(in, func(t float64) float64 { return 0.25 })
	adc := nl.AddADC(in)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step()
	_, v, _ := sim.ReadADC(adc)
	if math.Abs(v-0.25) > 0.01 {
		t.Fatalf("input reads %v", v)
	}
}

func TestADCOutOfRangeLatchesException(t *testing.T) {
	nl := idealChip(t, Config{DACBits: 16, SatLevel: 2})
	n := nl.Net()
	nl.AddDAC(n, 0.9)
	nl.AddDAC(n, 0.9) // sums to 1.8 > full scale
	adc := nl.AddADC(n)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Step()
	_, v, _ := sim.ReadADC(adc)
	if v != 1 {
		t.Fatalf("clamped read %v want full scale 1", v)
	}
	if !sim.Overflowed(adc, 0) {
		t.Fatal("ADC overflow not latched")
	}
	if !sim.AnyException() {
		t.Fatal("exception vector empty")
	}
	found := false
	for _, e := range sim.ExceptionVector(0) {
		if e {
			found = true
		}
	}
	if !found {
		t.Fatal("exception vector has no set bit")
	}
}

func TestIntegratorOverflowLatchesAndClips(t *testing.T) {
	// Positive feedback drives the integrator past full scale.
	nl := idealChip(t, Config{Bandwidth: 20e3})
	u, d := nl.Net(), nl.Net()
	integ := nl.AddIntegrator(d, u, 0.1)
	nl.AddMultiplier(u, d, +1) // du/dt = +k·u: exponential growth
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(0.01)
	if !sim.Overflowed(integ, 0) {
		t.Fatal("integrator overflow not latched")
	}
	v, _ := sim.IntegratorValue(integ)
	if v > nl.Config().SatLevel+1e-9 {
		t.Fatalf("integrator escaped saturation: %v", v)
	}
}

func TestAlgebraicLoopDetected(t *testing.T) {
	nl := idealChip(t, Config{})
	a, b := nl.Net(), nl.Net()
	nl.AddMultiplier(a, b, 0.5)
	nl.AddMultiplier(b, a, 0.5)
	if _, err := NewSimulator(nl, 0); !errors.Is(err, ErrAlgebraicLoop) {
		t.Fatalf("err=%v want ErrAlgebraicLoop", err)
	}
}

func TestLoopThroughIntegratorIsFine(t *testing.T) {
	nl := idealChip(t, Config{})
	buildDecay(nl, 0.5)
	if _, err := NewSimulator(nl, 0); err != nil {
		t.Fatalf("integrator loop rejected: %v", err)
	}
}

func TestOffsetErrorAndTrimCalibration(t *testing.T) {
	// A chip with offsets solves a 1-variable system wrong; trimming the
	// offset away restores accuracy. du/dt = b - u -> u* = b.
	cfg := Config{Bandwidth: 20e3, OffsetSigma: 0.02, Seed: 7, DACBits: 16, TrimBits: 10}
	nl := idealChip(t, cfg)
	u, d := nl.Net(), nl.Net()
	integ := nl.AddIntegrator(d, u, 0)
	dac := nl.AddDAC(d, 0.5)
	mul := nl.AddMultiplier(u, d, -1)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.RunUntilSettled(1e-9, 0.01, 16)
	if !res.Settled {
		t.Fatal("did not settle")
	}
	raw, _ := sim.IntegratorValue(integ)
	rawErr := math.Abs(raw - 0.5)
	if rawErr < 1e-4 {
		t.Fatalf("uncalibrated chip suspiciously accurate (%v): offsets not applied?", rawErr)
	}
	// Host-style calibration: binary-search each block's offset trim so its
	// zero-input output is as close to zero as possible. The DAC is
	// calibrated with its level temporarily programmed to zero.
	dac.Level = 0
	for _, b := range []*Block{integ, mul, dac} {
		lo, hi := -(1 << 9), (1<<9)-1
		for lo < hi {
			mid := lo + (hi-lo)/2 // floor division; (lo+hi)/2 loops at lo=-1,hi=0
			b.SetOffsetTrim(mid)
			v, err := nl.TransferAt(b, 0)
			if err != nil {
				t.Fatal(err)
			}
			if v > 0 {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		b.SetOffsetTrim(lo)
	}
	dac.Level = 0.5
	sim.Reset()
	res = sim.RunUntilSettled(1e-9, 0.01, 16)
	if !res.Settled {
		t.Fatal("calibrated chip did not settle")
	}
	cal, _ := sim.IntegratorValue(integ)
	calErr := math.Abs(cal - 0.5)
	if calErr > rawErr/4 {
		t.Fatalf("calibration did not help: raw err %v, calibrated err %v", rawErr, calErr)
	}
}

func TestGainTrimActsOnTransfer(t *testing.T) {
	cfg := Config{GainSigma: 0.05, Seed: 3}
	nl := idealChip(t, cfg)
	in, out := nl.Net(), nl.Net()
	mul := nl.AddMultiplier(in, out, 1)
	v0, err := nl.TransferAt(mul, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mul.SetGainTrim(10)
	v1, _ := nl.TransferAt(mul, 0.5)
	if v0 == v1 {
		t.Fatal("gain trim had no effect")
	}
	if mul.GainTrim() != 10 || mul.OffsetTrim() != 0 {
		t.Fatal("trim accessors wrong")
	}
}

func TestTransferAtRejectsADC(t *testing.T) {
	nl := idealChip(t, Config{})
	n := nl.Net()
	adc := nl.AddADC(n)
	if _, err := nl.TransferAt(adc, 0); err == nil {
		t.Fatal("ADC transfer accepted")
	}
}

func TestNoiseJittersSolution(t *testing.T) {
	cfg := Config{Bandwidth: 20e3, NoiseSigma: 1e-3, Seed: 11, DACBits: 16}
	nl := idealChip(t, cfg)
	u, d := nl.Net(), nl.Net()
	integ := nl.AddIntegrator(d, u, 0)
	nl.AddDAC(d, 0.5)
	nl.AddMultiplier(u, d, -1)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(5e-4)
	a, _ := sim.IntegratorValue(integ)
	sim.Run(1e-5)
	b, _ := sim.IntegratorValue(integ)
	if a == b {
		t.Fatal("noise produced identical successive values")
	}
	if math.Abs(a-0.5) > 0.05 {
		t.Fatalf("noisy settle far off: %v", a)
	}
}

func TestProbeRecordsWaveform(t *testing.T) {
	nl := idealChip(t, Config{Bandwidth: 20e3})
	_, u := buildDecay(nl, 1.0)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := sim.AddProbe(u, 4)
	sim.Run(2e-4)
	if len(p.Vals) < 10 {
		t.Fatalf("probe recorded %d samples", len(p.Vals))
	}
	// Decay: samples must be non-increasing (within tiny numerical slack).
	for i := 1; i < len(p.Vals); i++ {
		if p.Vals[i] > p.Vals[i-1]+1e-9 {
			t.Fatalf("decay waveform rose at %d: %v -> %v", i, p.Vals[i-1], p.Vals[i])
		}
	}
	// Reset clears probe history.
	sim.Reset()
	if len(p.Vals) != 0 {
		t.Fatal("Reset did not clear probe")
	}
}

func TestPeakTrackingDetectsUnusedDynamicRange(t *testing.T) {
	// A problem using only 5% of full scale: the host can see PeakAbs is
	// tiny and rescale for precision (Section III-B "dynamic range is not
	// fully used").
	nl := idealChip(t, Config{Bandwidth: 20e3, DACBits: 16})
	u, d := nl.Net(), nl.Net()
	integ := nl.AddIntegrator(d, u, 0)
	nl.AddDAC(d, 0.05)
	nl.AddMultiplier(u, d, -1)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.RunUntilSettled(1e-9, 0.01, 16)
	if peak := sim.PeakAbs(integ, 0); peak > 0.06 || peak < 0.04 {
		t.Fatalf("peak %v want ~0.05", peak)
	}
}

func TestReadADCAveragedReducesNoise(t *testing.T) {
	cfg := Config{Bandwidth: 20e3, NoiseSigma: 5e-3, Seed: 21, DACBits: 16, ADCBits: 12}
	nl := idealChip(t, cfg)
	u, d := nl.Net(), nl.Net()
	nl.AddIntegrator(d, u, 0)
	nl.AddDAC(d, 0.5)
	nl.AddMultiplier(u, d, -1)
	adc := nl.AddADC(u)
	sim, err := NewSimulator(nl, 0)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(1e-3)
	one, err := sim.ReadADCAveraged(adc, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := sim.ReadADCAveraged(adc, 256)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(many-0.5) > math.Abs(one-0.5)+1e-3 {
		t.Fatalf("averaging made it worse: 1-shot err %v, 256-avg err %v", math.Abs(one-0.5), math.Abs(many-0.5))
	}
}

func TestSimulatorAccessorsAndErrors(t *testing.T) {
	nl := idealChip(t, Config{})
	_, u := buildDecay(nl, 1)
	dac := nl.AddDAC(nl.Net(), 0.1)
	sim, err := NewSimulator(nl, 1e-7)
	if err != nil {
		t.Fatal(err)
	}
	if sim.Dt() != 1e-7 {
		t.Fatalf("Dt=%v", sim.Dt())
	}
	if _, err := sim.IntegratorValue(dac); err == nil {
		t.Fatal("DAC accepted as integrator")
	}
	if err := sim.SetIntegratorValue(dac, 0); err == nil {
		t.Fatal("SetIntegratorValue on DAC accepted")
	}
	if _, _, err := sim.ReadADC(dac); err == nil {
		t.Fatal("ReadADC on DAC accepted")
	}
	sim.Run(1e-6)
	if sim.Steps() != 10 {
		t.Fatalf("Steps=%d want 10", sim.Steps())
	}
	_ = sim.NetValue(u)
}

// Property: on an ideal chip, a random well-scaled SPD 2x2 system settles
// to the true solution within DAC quantization error.
func TestPropSLESettlesToTrueSolution(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// SPD with entries small enough to stay in range: A = I·d + s·J.
		s := 0.3 * r.Float64()
		d0, d1 := 0.5+0.4*r.Float64(), 0.5+0.4*r.Float64()
		a := [][]float64{{d0, s}, {s, d1}}
		if d0*d1-s*s < 0.1 {
			return true // skip near-singular draws
		}
		b0, b1 := 0.3*r.NormFloat64(), 0.3*r.NormFloat64()
		b0 = math.Max(-0.4, math.Min(0.4, b0))
		b1 = math.Max(-0.4, math.Min(0.4, b1))
		det := d0*d1 - s*s
		want0 := (d1*b0 - s*b1) / det
		want1 := (d0*b1 - s*b0) / det
		if math.Abs(want0) > 0.95 || math.Abs(want1) > 0.95 {
			return true // at/over dynamic range; scaling is the core layer's job
		}
		nl, err := NewNetlist(Config{Bandwidth: 20e3, DACBits: 16})
		if err != nil {
			return false
		}
		integs, _ := buildSLE(nl, a, []float64{b0, b1})
		sim, err := NewSimulator(nl, 0)
		if err != nil {
			return false
		}
		res := sim.RunUntilSettled(1e-8, 0.05, 16)
		if !res.Settled {
			return false
		}
		u0, _ := sim.IntegratorValue(integs[0])
		u1, _ := sim.IntegratorValue(integs[1])
		return math.Abs(u0-want0) < 1e-3 && math.Abs(u1-want1) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestAutoStepFactor pins the automatic step: 0.1/(k·G) by default,
// 1/(k·G) on a noise-free configuration with SolveStep, and 0.1/(k·G)
// again once noise is on, since noise is drawn per step. Every lane
// derives the scalar step through the same gain walk, and recomputing a
// step allocates nothing.
func TestAutoStepFactor(t *testing.T) {
	k := 2 * math.Pi * 20e3
	const g = 1.5 // net d sums the multiplier's |−0.5| and the DAC's 1
	cases := []struct {
		name   string
		cfg    Config
		factor float64
	}{
		{"transient", Config{Bandwidth: 20e3}, 0.1},
		{"solve step", Config{Bandwidth: 20e3, SolveStep: true}, 1.0},
		{"noisy solve step", Config{Bandwidth: 20e3, SolveStep: true, NoiseSigma: 1e-4}, 0.1},
	}
	for _, c := range cases {
		nl, err := NewNetlist(c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		u, d := nl.Net(), nl.Net()
		nl.AddIntegrator(d, u, 0.5)
		nl.AddMultiplier(u, d, -0.5)
		nl.AddDAC(d, 0.2)
		sim, err := NewSimulator(nl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := c.factor / (k * g); sim.Dt() != want {
			t.Errorf("%s: dt %v, want %v", c.name, sim.Dt(), want)
		}
		if allocs := testing.AllocsPerRun(10, sim.ReloadStep); allocs != 0 {
			t.Errorf("%s: ReloadStep allocates %v times", c.name, allocs)
		}
		if c.cfg.NoiseSigma > 0 {
			continue // lanes are noise-free only
		}
		if err := sim.ConfigureLanes(3); err != nil {
			t.Fatal(err)
		}
		for l := 0; l < 3; l++ {
			if sim.LaneDt(l) != sim.Dt() {
				t.Errorf("%s: lane %d dt %v, scalar %v", c.name, l, sim.LaneDt(l), sim.Dt())
			}
		}
		if allocs := testing.AllocsPerRun(10, sim.ReloadLaneSteps); allocs != 0 {
			t.Errorf("%s: ReloadLaneSteps allocates %v times", c.name, allocs)
		}
	}
}
