package chip

import (
	"errors"
	"math"
	"testing"

	"analogacc/internal/isa"
)

// hostFor wires an isa.Host to a fresh chip.
func hostFor(t *testing.T, spec Spec) (*isa.Host, *Chip) {
	t.Helper()
	c, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return isa.NewHost(isa.NewLoopback(c)), c
}

func TestSpecValidation(t *testing.T) {
	if err := PrototypeSpec().Validate(); err != nil {
		t.Fatalf("prototype spec invalid: %v", err)
	}
	bad := []Spec{
		{Macroblocks: -1},
		{MulsPerMB: -1},
		{Bandwidth: -1},
		{TimerHz: -1},
		{MaxGain: -2},
		{ADCBits: 99},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d accepted: %+v", i, s)
		}
	}
}

func TestPrototypeInventory(t *testing.T) {
	c := PrototypeSpec().Counts()
	want := Counts{Integrators: 4, Multipliers: 8, Fanouts: 8, ADCs: 2, DACs: 2, LUTs: 2, Inputs: 4}
	if c != want {
		t.Fatalf("counts %+v want %+v", c, want)
	}
}

func TestScaledSpecInventory(t *testing.T) {
	s := ScaledSpec(650, 12, 80e3, 0)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	c := s.Counts()
	if c.Integrators != 650 || c.ADCs != 650 || c.DACs != 650 || c.Multipliers != 650*6 {
		t.Fatalf("scaled counts %+v", c)
	}
	if s.ADCBits != 12 || s.Bandwidth != 80e3 {
		t.Fatalf("scaled spec %+v", s)
	}
}

func TestPortMapRoundTrip(t *testing.T) {
	spec := PrototypeSpec()
	pm := NewPortMap(spec)
	counts := spec.Counts()
	// Every output decodes back to its class/unit/branch.
	for i := 0; i < counts.Integrators; i++ {
		cl, u, _, ok := pm.DecodeOutput(pm.IntegratorOut(i))
		if !ok || cl != ClassIntegrator || u != i {
			t.Fatalf("integrator out %d decoded to %v/%d", i, cl, u)
		}
		cl, u, _, ok = pm.DecodeInput(pm.IntegratorIn(i))
		if !ok || cl != ClassIntegrator || u != i {
			t.Fatalf("integrator in %d decoded to %v/%d", i, cl, u)
		}
	}
	for f := 0; f < counts.Fanouts; f++ {
		for w := 0; w < spec.FanoutWays; w++ {
			cl, u, br, ok := pm.DecodeOutput(pm.FanoutOut(f, w))
			if !ok || cl != ClassFanout || u != f || br != w {
				t.Fatalf("fanout out (%d,%d) decoded to %v/%d/%d", f, w, cl, u, br)
			}
		}
	}
	for m := 0; m < counts.Multipliers; m++ {
		for which := 0; which < 2; which++ {
			cl, u, wh, ok := pm.DecodeInput(pm.MultiplierIn(m, which))
			if !ok || cl != ClassMultiplier || u != m || wh != which {
				t.Fatalf("mul in (%d,%d) decoded to %v/%d/%d", m, which, cl, u, wh)
			}
		}
	}
	if _, _, _, ok := pm.DecodeOutput(uint16(pm.NumOutputs())); ok {
		t.Fatal("out-of-range output decoded")
	}
	if _, _, _, ok := pm.DecodeInput(uint16(pm.NumOutputs() + pm.NumInputs())); ok {
		t.Fatal("out-of-range input decoded")
	}
	if !pm.IsOutput(pm.DACOut(0)) || pm.IsInput(pm.DACOut(0)) {
		t.Fatal("IsOutput/IsInput confused")
	}
	if !pm.IsInput(pm.ADCIn(0)) {
		t.Fatal("ADC input not an input")
	}
}

func TestUnitClassString(t *testing.T) {
	for cl := ClassIntegrator; cl < numClasses; cl++ {
		if cl.String() == "" {
			t.Fatalf("class %d empty name", cl)
		}
	}
	if UnitClass(99).String() == "" {
		t.Fatal("unknown class empty name")
	}
}

// wireSLE2 configures the prototype to solve the 2-variable system of
// Equation 2 / Figure 5 via the ISA, using fanout trees to copy each
// variable to its consumers (matrix row, transposed coupling, and ADC).
func wireSLE2(t *testing.T, h *isa.Host, pm *PortMap, a [2][2]float64, b [2]float64) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// Multiplier assignment: mul[2i+j] carries -a[i][j] from u_j into d_i.
	// Fanouts: variable j uses fanout[2j] (branches: mul[jj], fanout[2j+1])
	// and fanout[2j+1] (branches: mul[other row], ADC j).
	for j := 0; j < 2; j++ {
		must(h.SetConn(pm.IntegratorOut(j), pm.FanoutIn(2*j)))
		must(h.SetConn(pm.FanoutOut(2*j, 0), pm.MultiplierIn(2*0+j, 0)))
		must(h.SetConn(pm.FanoutOut(2*j, 1), pm.FanoutIn(2*j+1)))
		must(h.SetConn(pm.FanoutOut(2*j+1, 0), pm.MultiplierIn(2*1+j, 0)))
		must(h.SetConn(pm.FanoutOut(2*j+1, 1), pm.ADCIn(j)))
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			must(h.SetMulGain(uint16(2*i+j), -a[i][j]))
			must(h.SetConn(pm.MultiplierOut(2*i+j), pm.IntegratorIn(i)))
		}
		must(h.SetDacConstant(uint16(i), b[i]))
		must(h.SetConn(pm.DACOut(i), pm.IntegratorIn(i)))
		must(h.SetIntInitial(uint16(i), 0))
	}
	must(h.CfgCommit())
}

func TestSolveSLEOverISA(t *testing.T) {
	h, c := hostFor(t, PrototypeSpec())
	a := [2][2]float64{{0.8, 0.2}, {0.2, 0.6}}
	b := [2]float64{0.5, 0.3}
	wireSLE2(t, h, c.Ports(), a, b)
	// Settle: ~20 time constants of the slowest mode at 20 kHz bandwidth.
	cycles := uint32(100e6 * 8e-4)
	if err := h.SetTimeout(cycles); err != nil {
		t.Fatal(err)
	}
	if err := h.ExecStart(); err != nil {
		t.Fatal(err)
	}
	det := a[0][0]*a[1][1] - a[0][1]*a[1][0]
	want0 := (a[1][1]*b[0] - a[0][1]*b[1]) / det
	want1 := (a[0][0]*b[1] - a[1][0]*b[0]) / det
	u0, err := h.AnalogAvg(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	u1, err := h.AnalogAvg(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 8-bit DAC/ADC quantization bounds accuracy to a couple of LSBs.
	if math.Abs(u0-want0) > 0.04 || math.Abs(u1-want1) > 0.04 {
		t.Fatalf("ISA solve got (%v, %v) want (%v, %v)", u0, u1, want0, want1)
	}
	// No overflow for this well-scaled problem.
	exp, err := h.ReadExp()
	if err != nil {
		t.Fatal(err)
	}
	for i, bit := range isa.UnpackBits(exp, c.NumUnits()) {
		if bit {
			t.Fatalf("unexpected exception at unit %d", i)
		}
	}
	if c.AnalogTime() <= 0 {
		t.Fatal("analog time not accounted")
	}
	wantTime := float64(cycles) / 100e6
	if math.Abs(c.AnalogTime()-wantTime) > 1e-9 {
		t.Fatalf("analog time %v want %v", c.AnalogTime(), wantTime)
	}
}

func TestExecStateMachine(t *testing.T) {
	h, _ := hostFor(t, PrototypeSpec())
	var de *isa.DeviceError
	// Start before commit: bad state.
	err := h.ExecStart()
	if !errors.As(err, &de) || de.Status != isa.StatusBadState {
		t.Fatalf("start before commit: %v", err)
	}
	// Readback before commit: bad state.
	if _, err := h.ReadSerial(); err == nil {
		t.Fatal("readSerial before commit accepted")
	}
	if _, err := h.ReadExp(); err == nil {
		t.Fatal("readExp before commit accepted")
	}
	if _, err := h.AnalogAvg(0, 1); err == nil {
		t.Fatal("analogAvg before commit accepted")
	}
	if err := h.ExecStop(); err == nil {
		t.Fatal("stop before commit accepted")
	}
	// Commit an empty config: legal (all dangling).
	if err := h.CfgCommit(); err != nil {
		t.Fatal(err)
	}
	// Start without a timeout: bad state (host would lose the chip).
	err = h.ExecStart()
	if !errors.As(err, &de) || de.Status != isa.StatusBadState {
		t.Fatalf("start without timeout: %v", err)
	}
	if err := h.SetTimeout(1000); err != nil {
		t.Fatal(err)
	}
	if err := h.ExecStart(); err != nil {
		t.Fatal(err)
	}
	if err := h.ExecStop(); err != nil {
		t.Fatal(err)
	}
	// Resume: start again continues from held values.
	if err := h.ExecStart(); err != nil {
		t.Fatal(err)
	}
}

func TestIncrementalRunsAccumulate(t *testing.T) {
	// Two runs of T/2 match one run of T for the same decay circuit.
	run := func(splits int) float64 {
		h, c := hostFor(t, PrototypeSpec())
		pm := c.Ports()
		// du/dt = -u via fanout: integ -> fanout -> mul(-1) -> integ.
		if err := h.SetConn(pm.IntegratorOut(0), pm.FanoutIn(0)); err != nil {
			t.Fatal(err)
		}
		if err := h.SetConn(pm.FanoutOut(0, 0), pm.MultiplierIn(0, 0)); err != nil {
			t.Fatal(err)
		}
		if err := h.SetConn(pm.FanoutOut(0, 1), pm.ADCIn(0)); err != nil {
			t.Fatal(err)
		}
		if err := h.SetMulGain(0, -1); err != nil {
			t.Fatal(err)
		}
		if err := h.SetConn(pm.MultiplierOut(0), pm.IntegratorIn(0)); err != nil {
			t.Fatal(err)
		}
		if err := h.SetIntInitial(0, 1.0); err != nil {
			t.Fatal(err)
		}
		if err := h.CfgCommit(); err != nil {
			t.Fatal(err)
		}
		total := uint32(800) // 8 µs at 100 MHz ≈ one 20 kHz time constant
		if err := h.SetTimeout(total / uint32(splits)); err != nil {
			t.Fatal(err)
		}
		for s := 0; s < splits; s++ {
			if err := h.ExecStart(); err != nil {
				t.Fatal(err)
			}
		}
		v, err := h.AnalogAvg(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	whole := run(1)
	split := run(2)
	if math.Abs(whole-split) > 0.02 {
		t.Fatalf("split runs diverge: %v vs %v", whole, split)
	}
	if math.Abs(whole-math.Exp(-1)) > 0.02 {
		t.Fatalf("decay after one time constant %v want ~%v", whole, math.Exp(-1))
	}
}

func TestOverflowExceptionOverISA(t *testing.T) {
	h, c := hostFor(t, PrototypeSpec())
	pm := c.Ports()
	// Unbalanced drive: DAC 0.9 into an integrator with no feedback ramps
	// straight past full scale.
	if err := h.SetDacConstant(0, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := h.SetConn(pm.DACOut(0), pm.IntegratorIn(0)); err != nil {
		t.Fatal(err)
	}
	if err := h.CfgCommit(); err != nil {
		t.Fatal(err)
	}
	if err := h.SetTimeout(20000); err != nil { // 200 µs
		t.Fatal(err)
	}
	if err := h.ExecStart(); err != nil {
		t.Fatal(err)
	}
	exp, err := h.ReadExp()
	if err != nil {
		t.Fatal(err)
	}
	bits := isa.UnpackBits(exp, c.NumUnits())
	idx := c.ExceptionIndex(ClassIntegrator, 0)
	if idx < 0 || !bits[idx] {
		t.Fatalf("integrator overflow bit not set (idx %d, bits %v)", idx, bits[:8])
	}
}

// TestExceptionVectorFollowsBlockIDs pins the layout readExp relies on:
// rebuild adds units class by class in exception-vector order, so every
// unit's block ID is its exception bit and the simulator's per-block
// vector is the wire payload.
func TestExceptionVectorFollowsBlockIDs(t *testing.T) {
	h, c := hostFor(t, ScaledSpec(4, 12, 20e3, 6))
	if err := h.CfgCommit(); err != nil {
		t.Fatal(err)
	}
	if n := len(c.Netlist().Blocks()); n != c.NumUnits() {
		t.Fatalf("%d blocks for %d units", n, c.NumUnits())
	}
	for _, cl := range unitOrder() {
		for u := range c.units[cl] {
			if id, idx := c.Block(cl, u).ID, c.ExceptionIndex(cl, u); id != idx {
				t.Fatalf("%v unit %d: block ID %d, exception bit %d", cl, u, id, idx)
			}
		}
	}
}

func TestOutputDoubleDriveRejected(t *testing.T) {
	h, c := hostFor(t, PrototypeSpec())
	pm := c.Ports()
	if err := h.SetConn(pm.DACOut(0), pm.IntegratorIn(0)); err != nil {
		t.Fatal(err)
	}
	err := h.SetConn(pm.DACOut(0), pm.IntegratorIn(1))
	var de *isa.DeviceError
	if !errors.As(err, &de) || de.Status != isa.StatusBadArgs {
		t.Fatalf("double drive: %v", err)
	}
}

func TestConnRejectsBadPorts(t *testing.T) {
	h, c := hostFor(t, PrototypeSpec())
	pm := c.Ports()
	// Input as source.
	if err := h.SetConn(pm.IntegratorIn(0), pm.IntegratorIn(1)); err == nil {
		t.Fatal("input-as-source accepted")
	}
	// Output as destination.
	if err := h.SetConn(pm.DACOut(0), pm.DACOut(1)); err == nil {
		t.Fatal("output-as-destination accepted")
	}
}

func TestConfigRangeChecks(t *testing.T) {
	h, _ := hostFor(t, PrototypeSpec())
	var de *isa.DeviceError
	if err := h.SetMulGain(0, 1.5); !errors.As(err, &de) || de.Status != isa.StatusExceeded {
		t.Fatalf("overlarge gain: %v", err)
	}
	if err := h.SetIntInitial(0, -2); !errors.As(err, &de) || de.Status != isa.StatusExceeded {
		t.Fatalf("overlarge IC: %v", err)
	}
	if err := h.SetDacConstant(0, 1.01); !errors.As(err, &de) || de.Status != isa.StatusExceeded {
		t.Fatalf("overlarge DAC: %v", err)
	}
	if err := h.SetMulGain(200, 0.5); !errors.As(err, &de) || de.Status != isa.StatusNoUnit {
		t.Fatalf("bad unit: %v", err)
	}
	if err := h.SetIntInitial(200, 0); !errors.As(err, &de) || de.Status != isa.StatusNoUnit {
		t.Fatalf("bad integrator: %v", err)
	}
	if err := h.SetDacConstant(200, 0); !errors.As(err, &de) || de.Status != isa.StatusNoUnit {
		t.Fatalf("bad dac: %v", err)
	}
	if err := h.SetAnaInputEn(200, true); !errors.As(err, &de) || de.Status != isa.StatusNoUnit {
		t.Fatalf("bad input channel: %v", err)
	}
}

func TestLUTOverISA(t *testing.T) {
	h, c := hostFor(t, PrototypeSpec())
	pm := c.Ports()
	// DAC -> LUT(signum-ish soft step) -> ADC.
	var table [256]byte
	for i := range table {
		x := float64(i)/255*2 - 1
		y := math.Tanh(8 * x)
		table[i] = byte(math.Round((y + 1) / 2 * 255))
	}
	if err := h.SetFunction(0, table); err != nil {
		t.Fatal(err)
	}
	if err := h.SetDacConstant(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := h.SetConn(pm.DACOut(0), pm.LUTIn(0)); err != nil {
		t.Fatal(err)
	}
	if err := h.SetConn(pm.LUTOut(0), pm.ADCIn(0)); err != nil {
		t.Fatal(err)
	}
	if err := h.CfgCommit(); err != nil {
		t.Fatal(err)
	}
	if err := h.SetTimeout(100); err != nil {
		t.Fatal(err)
	}
	if err := h.ExecStart(); err != nil {
		t.Fatal(err)
	}
	v, err := h.AnalogAvg(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-math.Tanh(4)) > 0.05 {
		t.Fatalf("LUT(0.5)=%v want ~%v", v, math.Tanh(4))
	}
}

func TestAnalogInputOverISA(t *testing.T) {
	h, c := hostFor(t, PrototypeSpec())
	pm := c.Ports()
	if err := c.SetStimulus(0, func(float64) float64 { return 0.3 }); err != nil {
		t.Fatal(err)
	}
	if err := h.SetConn(pm.InputOut(0), pm.ADCIn(0)); err != nil {
		t.Fatal(err)
	}
	if err := h.CfgCommit(); err != nil {
		t.Fatal(err)
	}
	if err := h.SetTimeout(100); err != nil {
		t.Fatal(err)
	}
	// Disabled channel reads ~0.
	if err := h.ExecStart(); err != nil {
		t.Fatal(err)
	}
	v, _ := h.AnalogAvg(0, 1)
	if math.Abs(v) > 0.02 {
		t.Fatalf("disabled input reads %v", v)
	}
	// Enabled channel passes the stimulus.
	if err := h.SetAnaInputEn(0, true); err != nil {
		t.Fatal(err)
	}
	if err := h.ExecStart(); err != nil {
		t.Fatal(err)
	}
	v, _ = h.AnalogAvg(0, 1)
	if math.Abs(v-0.3) > 0.02 {
		t.Fatalf("enabled input reads %v want 0.3", v)
	}
	if err := c.SetStimulus(99, nil); err == nil {
		t.Fatal("bad stimulus channel accepted")
	}
}

func TestVarModeMultiplierOverISA(t *testing.T) {
	h, c := hostFor(t, PrototypeSpec())
	pm := c.Ports()
	// Square a DAC value: DAC -> fanout -> mul.in0 and mul.in1 -> ADC.
	if err := h.SetDacConstant(0, 0.6); err != nil {
		t.Fatal(err)
	}
	if err := h.SetConn(pm.DACOut(0), pm.FanoutIn(0)); err != nil {
		t.Fatal(err)
	}
	if err := h.SetConn(pm.FanoutOut(0, 0), pm.MultiplierIn(0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := h.SetConn(pm.FanoutOut(0, 1), pm.MultiplierIn(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := h.SetConn(pm.MultiplierOut(0), pm.ADCIn(0)); err != nil {
		t.Fatal(err)
	}
	if err := h.CfgCommit(); err != nil {
		t.Fatal(err)
	}
	if err := h.SetTimeout(100); err != nil {
		t.Fatal(err)
	}
	if err := h.ExecStart(); err != nil {
		t.Fatal(err)
	}
	v, err := h.AnalogAvg(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.36) > 0.03 {
		t.Fatalf("square(0.6)=%v want 0.36", v)
	}
}

func TestCalibrationImprovesAccuracyOverISA(t *testing.T) {
	spec := PrototypeSpec()
	spec.OffsetSigma = 0.02
	spec.GainSigma = 0.02
	spec.Seed = 42
	spec.ADCBits = 12 // calibration measurement resolution
	spec.DACBits = 12
	spec.TrimBits = 10

	solve := func(calibrate bool) (float64, float64) {
		h, c := hostFor(t, spec)
		if calibrate {
			n, err := h.Init()
			if err != nil {
				t.Fatal(err)
			}
			if n != c.Counts().Integrators+c.Counts().Multipliers+c.Counts().Fanouts+c.Counts().DACs {
				t.Fatalf("calibrated %d units", n)
			}
		}
		a := [2][2]float64{{0.8, 0.2}, {0.2, 0.6}}
		b := [2]float64{0.5, 0.3}
		wireSLE2(t, h, c.Ports(), a, b)
		if err := h.SetTimeout(uint32(100e6 * 8e-4)); err != nil {
			t.Fatal(err)
		}
		if err := h.ExecStart(); err != nil {
			t.Fatal(err)
		}
		u0, _ := h.AnalogAvg(0, 1)
		u1, _ := h.AnalogAvg(1, 1)
		return u0, u1
	}
	det := 0.8*0.6 - 0.2*0.2
	want0 := (0.6*0.5 - 0.2*0.3) / det
	want1 := (0.8*0.3 - 0.2*0.5) / det
	r0, r1 := solve(false)
	c0, c1 := solve(true)
	rawErr := math.Max(math.Abs(r0-want0), math.Abs(r1-want1))
	calErr := math.Max(math.Abs(c0-want0), math.Abs(c1-want1))
	if rawErr < 0.01 {
		t.Fatalf("uncalibrated chip suspiciously accurate: %v", rawErr)
	}
	if calErr > rawErr/2 {
		t.Fatalf("calibration did not help: raw %v calibrated %v", rawErr, calErr)
	}
}

func TestWriteParallelAndUnknownOpcode(t *testing.T) {
	h, c := hostFor(t, PrototypeSpec())
	if err := h.WriteParallel(0x5A); err != nil {
		t.Fatal(err)
	}
	if c.ParallelRegister() != 0x5A {
		t.Fatalf("parallel reg %x", c.ParallelRegister())
	}
	if _, st := c.Execute(isa.Opcode(0xEE), nil); st != isa.StatusBadOpcode {
		t.Fatalf("unknown opcode status %v", st)
	}
	// Malformed payloads.
	for _, tc := range []struct {
		op      isa.Opcode
		payload []byte
	}{
		{isa.OpSetConn, []byte{1}},
		{isa.OpSetIntInitial, []byte{1, 2}},
		{isa.OpSetMulGain, nil},
		{isa.OpSetFunction, []byte{0, 0, 1, 2}},
		{isa.OpSetDacConstant, []byte{9}},
		{isa.OpSetTimeout, []byte{1, 2, 3}},
		{isa.OpSetAnaInputEn, []byte{0}},
		{isa.OpWriteParallel, nil},
		{isa.OpAnalogAvg, []byte{0}},
	} {
		if _, st := c.Execute(tc.op, tc.payload); st != isa.StatusBadArgs {
			t.Errorf("%v with bad payload: status %v", tc.op, st)
		}
	}
}

func TestReadSerialReturnsAllADCs(t *testing.T) {
	h, c := hostFor(t, PrototypeSpec())
	pm := c.Ports()
	if err := h.SetDacConstant(0, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := h.SetConn(pm.DACOut(0), pm.ADCIn(0)); err != nil {
		t.Fatal(err)
	}
	if err := h.CfgCommit(); err != nil {
		t.Fatal(err)
	}
	data, err := h.ReadSerial()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != 2*c.Counts().ADCs {
		t.Fatalf("readSerial %d bytes want %d", len(data), 2*c.Counts().ADCs)
	}
	code0 := isa.GetU16(data, 0)
	// 8-bit ADC: 0.5 -> code around 191.
	if code0 < 185 || code0 > 197 {
		t.Fatalf("ADC0 code %d want ~191", code0)
	}
}

func TestAlgebraicLoopRejectedAtCommit(t *testing.T) {
	h, c := hostFor(t, PrototypeSpec())
	pm := c.Ports()
	// mul0 -> mul1 -> mul0: no integrator in the loop.
	if err := h.SetConn(pm.MultiplierOut(0), pm.MultiplierIn(1, 0)); err != nil {
		t.Fatal(err)
	}
	if err := h.SetConn(pm.MultiplierOut(1), pm.MultiplierIn(0, 0)); err != nil {
		t.Fatal(err)
	}
	err := h.CfgCommit()
	var de *isa.DeviceError
	if !errors.As(err, &de) || de.Status != isa.StatusBadArgs {
		t.Fatalf("algebraic loop commit: %v", err)
	}
}

// TestOscillatorKeepsAmplitude pins the transient step PrototypeSpec
// chips simulate at: alasim's undamped oscillator (d²u/dt² = −u, u(0) = 0.8,
// 12-bit converters, driven over the ISA) must keep its amplitude within
// 1% over 1 ms, 20 periods at 20 kHz. Read once per period, u sits at its
// peak. At the solve step (ScaledSpec's SolveStep) RK4 damps the loop by
// about 0.6% per step, and u falls to about 0.3 by 1 ms.
func TestOscillatorKeepsAmplitude(t *testing.T) {
	spec := PrototypeSpec()
	spec.ADCBits, spec.DACBits = 12, 12
	if spec.SolveStep || !ScaledSpec(4, 12, 20e3, 0).SolveStep {
		t.Fatal("only ScaledSpec sets SolveStep")
	}
	h, c := hostFor(t, spec)
	pm := c.Ports()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(h.SetConn(pm.IntegratorOut(1), pm.IntegratorIn(0))) // du/dt = v
	must(h.SetConn(pm.IntegratorOut(0), pm.FanoutIn(0)))
	must(h.SetConn(pm.FanoutOut(0, 0), pm.MultiplierIn(0, 0)))
	must(h.SetConn(pm.FanoutOut(0, 1), pm.ADCIn(0)))
	must(h.SetMulGain(0, -1))
	must(h.SetConn(pm.MultiplierOut(0), pm.IntegratorIn(1))) // dv/dt = −u
	must(h.SetIntInitial(0, 0.8))
	must(h.SetIntInitial(1, 0))
	must(h.CfgCommit())
	period := 1 / spec.Bandwidth // ω = k = 2π·bandwidth
	must(h.SetTimeout(uint32(math.Round(period * spec.TimerHz))))
	for p := 1; p <= 20; p++ {
		must(h.ExecStart())
		u, err := h.AnalogAvg(0, 1)
		must(err)
		if math.Abs(u-0.8) > 0.008 {
			t.Fatalf("after %d periods (%.0f µs) u = %.4f, want 0.8 ± 1%%", p, float64(p)*period*1e6, u)
		}
	}
}
