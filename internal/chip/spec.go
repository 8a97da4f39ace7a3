// Package chip models the analog accelerator chip's microarchitecture: the
// macroblock organization of the 65 nm prototype (Section III-A), the
// crossbar interconnect, the configuration register file, the exception
// vector, and the SPI command controller implementing the Table I ISA
// (isa.Device). The analog physics underneath comes from internal/circuit;
// what this package adds is the *architecture*: resource inventory, static
// configuration, the execution state machine, and host-visible readback.
package chip

import (
	"fmt"

	"analogacc/internal/circuit"
)

// Spec parameterizes a chip design. The fabricated prototype is
// PrototypeSpec(); the paper's scaled accelerators ("using the validated
// schematics we build circuit simulations ... to extrapolate") are produced
// by ScaledSpec.
type Spec struct {
	// Macroblocks is the number of macroblock rows. Each macroblock has
	// one analog input, two multipliers, one integrator, two fanout
	// blocks, and one analog output; every two macroblocks share one ADC,
	// one DAC, and one nonlinear-function lookup table.
	Macroblocks int
	// MulsPerMB, FanoutsPerMB and FanoutWays size the per-macroblock
	// units (prototype: 2, 2, 2).
	MulsPerMB    int
	FanoutsPerMB int
	FanoutWays   int
	// SharePerConverter is how many macroblocks share one ADC/DAC/LUT
	// (prototype: 2). Scaled solver designs dedicate one converter pair
	// per macroblock (1) so each variable has its own bias DAC and
	// readout ADC.
	SharePerConverter int
	// ADCBits / DACBits are converter resolutions (prototype: 8 bits;
	// the paper's model accelerator: 12-bit ADCs).
	ADCBits, DACBits int
	// Bandwidth is the analog bandwidth in Hz (prototype: 20 kHz).
	Bandwidth float64
	// MaxGain is the largest programmable multiplier gain magnitude.
	MaxGain float64
	// TimerHz is the digital timeout timer clock (setTimeout counts its
	// cycles).
	TimerHz float64
	// OffsetSigma/GainSigma/NoiseSigma/Seed configure the analog
	// non-idealities (see circuit.Config).
	OffsetSigma float64
	GainSigma   float64
	NoiseSigma  float64
	TrimBits    int
	Seed        int64
	// Engine names the simulation kernel the chip's datapath runs on
	// ("auto", "interpreter", "fused"; empty = auto). A
	// simulation-fidelity knob, not part of the Table I architecture:
	// every engine is bit-identical, so it never changes answers.
	Engine string
	// SolveStep steps the simulation at RK4's stability limit, ten times
	// the default step, on a noise-free chip (circuit.Config.SolveStep).
	// Another simulation-fidelity knob: a linear solve still meets its
	// tolerance, and its settled codes match the default step's on core's
	// TestSolveStepFidelity cases but need not elsewhere, while transients
	// such as an undamped loop's amplitude do not hold at all, so only
	// ScaledSpec, the linear-solve design, sets it, and ODE mode refuses a
	// chip that has it.
	SolveStep bool
}

// PrototypeSpec returns the fabricated 65 nm chip: four macroblocks,
// 8-bit converters, 20 kHz bandwidth.
func PrototypeSpec() Spec {
	return Spec{
		Macroblocks:       4,
		MulsPerMB:         2,
		FanoutsPerMB:      2,
		FanoutWays:        2,
		SharePerConverter: 2,
		ADCBits:           8,
		DACBits:           8,
		Bandwidth:         20e3,
		MaxGain:           1.0,
		TimerHz:           100e6,
		TrimBits:          6,
	}
}

// ScaledSpec returns the paper's model accelerator sized for `integrators`
// variables: macroblocks widened so each variable has enough multipliers
// for a 2-D stencil row plus its constant bias, 12-bit ADCs, and the given
// bandwidth. mulsPerMB <= 0 selects the default of 6 (five stencil
// neighbours + headroom). It is a linear-solve design, so it sets
// SolveStep.
func ScaledSpec(integrators int, adcBits int, bandwidth float64, mulsPerMB int) Spec {
	s := PrototypeSpec()
	s.Macroblocks = integrators
	if mulsPerMB <= 0 {
		mulsPerMB = 6
	}
	s.MulsPerMB = mulsPerMB
	s.FanoutsPerMB = 2
	s.FanoutWays = 4
	s.SharePerConverter = 1
	if adcBits > 0 {
		s.ADCBits = adcBits
	} else {
		s.ADCBits = 12
	}
	s.DACBits = s.ADCBits
	if bandwidth > 0 {
		s.Bandwidth = bandwidth
	}
	s.SolveStep = true
	return s
}

// withDefaults fills unset fields from the prototype.
func (s Spec) withDefaults() Spec {
	p := PrototypeSpec()
	if s.Macroblocks == 0 {
		s.Macroblocks = p.Macroblocks
	}
	if s.MulsPerMB == 0 {
		s.MulsPerMB = p.MulsPerMB
	}
	if s.FanoutsPerMB == 0 {
		s.FanoutsPerMB = p.FanoutsPerMB
	}
	if s.FanoutWays == 0 {
		s.FanoutWays = p.FanoutWays
	}
	if s.SharePerConverter == 0 {
		s.SharePerConverter = p.SharePerConverter
	}
	if s.ADCBits == 0 {
		s.ADCBits = p.ADCBits
	}
	if s.DACBits == 0 {
		s.DACBits = p.DACBits
	}
	if s.Bandwidth == 0 {
		s.Bandwidth = p.Bandwidth
	}
	if s.MaxGain == 0 {
		s.MaxGain = p.MaxGain
	}
	if s.TimerHz == 0 {
		s.TimerHz = p.TimerHz
	}
	if s.TrimBits == 0 {
		s.TrimBits = p.TrimBits
	}
	return s
}

// Validate rejects meaningless specs.
func (s Spec) Validate() error {
	s = s.withDefaults()
	switch {
	case s.Macroblocks < 1:
		return fmt.Errorf("chip: need at least 1 macroblock, got %d", s.Macroblocks)
	case s.MulsPerMB < 1 || s.FanoutsPerMB < 0 || s.FanoutWays < 1:
		return fmt.Errorf("chip: bad per-macroblock unit counts (%d muls, %d fanouts × %d ways)",
			s.MulsPerMB, s.FanoutsPerMB, s.FanoutWays)
	case s.Bandwidth <= 0:
		return fmt.Errorf("chip: bandwidth %v must be positive", s.Bandwidth)
	case s.TimerHz <= 0:
		return fmt.Errorf("chip: timer clock %v must be positive", s.TimerHz)
	case s.MaxGain <= 0:
		return fmt.Errorf("chip: max gain %v must be positive", s.MaxGain)
	case s.SharePerConverter < 1:
		return fmt.Errorf("chip: converter share %d must be at least 1", s.SharePerConverter)
	}
	if _, err := circuit.ParseEngine(s.Engine); err != nil {
		return err
	}
	return (circuit.Config{
		Bandwidth: s.Bandwidth,
		ADCBits:   s.ADCBits,
		DACBits:   s.DACBits,
		TrimBits:  s.TrimBits,
	}).Validate()
}

// Counts reports the unit inventory of a spec.
type Counts struct {
	Integrators int
	Multipliers int
	Fanouts     int
	ADCs        int
	DACs        int
	LUTs        int
	Inputs      int
}

// Counts derives the inventory from the macroblock organization: shared
// converters are one per two macroblocks (rounded up).
func (s Spec) Counts() Counts {
	s = s.withDefaults()
	shared := (s.Macroblocks + s.SharePerConverter - 1) / s.SharePerConverter
	return Counts{
		Integrators: s.Macroblocks,
		Multipliers: s.Macroblocks * s.MulsPerMB,
		Fanouts:     s.Macroblocks * s.FanoutsPerMB,
		ADCs:        shared,
		DACs:        shared,
		LUTs:        shared,
		Inputs:      s.Macroblocks,
	}
}

// UnitClass identifies a resource class for port addressing.
type UnitClass int

// Resource classes in port-map order.
const (
	ClassIntegrator UnitClass = iota
	ClassMultiplier
	ClassFanout
	ClassADC
	ClassDAC
	ClassLUT
	ClassInput
	numClasses
)

// String names the class.
func (c UnitClass) String() string {
	switch c {
	case ClassIntegrator:
		return "integrator"
	case ClassMultiplier:
		return "multiplier"
	case ClassFanout:
		return "fanout"
	case ClassADC:
		return "adc"
	case ClassDAC:
		return "dac"
	case ClassLUT:
		return "lut"
	case ClassInput:
		return "input"
	default:
		return fmt.Sprintf("UnitClass(%d)", int(c))
	}
}

// PortMap assigns stable uint16 interface IDs to every analog input and
// output port on the chip, in deterministic order. These IDs are what
// setConn carries on the wire; the host obtains them from the same Spec.
type PortMap struct {
	spec   Spec
	counts Counts
	// base offsets per class for inputs and outputs
	inBase  [numClasses]int
	outBase [numClasses]int
	numIn   int
	numOut  int
}

// NewPortMap builds the port numbering for a spec. Output ports and input
// ports share one ID space: outputs first, then inputs.
func NewPortMap(spec Spec) *PortMap {
	spec = spec.withDefaults()
	c := spec.Counts()
	pm := &PortMap{spec: spec, counts: c}
	// Outputs: integrator(1 each), multiplier(1), fanout(FanoutWays),
	// DAC(1), LUT(1), Input(1). ADCs have no analog output.
	off := 0
	pm.outBase[ClassIntegrator] = off
	off += c.Integrators
	pm.outBase[ClassMultiplier] = off
	off += c.Multipliers
	pm.outBase[ClassFanout] = off
	off += c.Fanouts * spec.FanoutWays
	pm.outBase[ClassDAC] = off
	off += c.DACs
	pm.outBase[ClassLUT] = off
	off += c.LUTs
	pm.outBase[ClassInput] = off
	off += c.Inputs
	pm.numOut = off
	// Inputs: integrator(1), multiplier(2: second for var-var mode),
	// fanout(1), ADC(1), LUT(1).
	off = 0
	pm.inBase[ClassIntegrator] = off
	off += c.Integrators
	pm.inBase[ClassMultiplier] = off
	off += c.Multipliers * 2
	pm.inBase[ClassFanout] = off
	off += c.Fanouts
	pm.inBase[ClassADC] = off
	off += c.ADCs
	pm.inBase[ClassLUT] = off
	off += c.LUTs
	pm.numIn = off
	return pm
}

// NumOutputs returns the number of output interface IDs; output IDs are
// 0..NumOutputs-1 and input IDs follow.
func (pm *PortMap) NumOutputs() int { return pm.numOut }

// NumInputs returns the number of input interface IDs.
func (pm *PortMap) NumInputs() int { return pm.numIn }

// IntegratorOut returns the output interface of integrator i.
func (pm *PortMap) IntegratorOut(i int) uint16 { return uint16(pm.outBase[ClassIntegrator] + i) }

// MultiplierOut returns the output interface of multiplier m.
func (pm *PortMap) MultiplierOut(m int) uint16 { return uint16(pm.outBase[ClassMultiplier] + m) }

// FanoutOut returns branch w's output interface of fanout f.
func (pm *PortMap) FanoutOut(f, w int) uint16 {
	return uint16(pm.outBase[ClassFanout] + f*pm.spec.FanoutWays + w)
}

// DACOut returns the output interface of DAC d.
func (pm *PortMap) DACOut(d int) uint16 { return uint16(pm.outBase[ClassDAC] + d) }

// LUTOut returns the output interface of lookup table l.
func (pm *PortMap) LUTOut(l int) uint16 { return uint16(pm.outBase[ClassLUT] + l) }

// InputOut returns the output interface of analog input channel c.
func (pm *PortMap) InputOut(c int) uint16 { return uint16(pm.outBase[ClassInput] + c) }

// IntegratorIn returns the input interface of integrator i.
func (pm *PortMap) IntegratorIn(i int) uint16 {
	return uint16(pm.numOut + pm.inBase[ClassIntegrator] + i)
}

// MultiplierIn returns input `which` (0 or 1) of multiplier m.
func (pm *PortMap) MultiplierIn(m, which int) uint16 {
	return uint16(pm.numOut + pm.inBase[ClassMultiplier] + m*2 + which)
}

// FanoutIn returns the input interface of fanout f.
func (pm *PortMap) FanoutIn(f int) uint16 { return uint16(pm.numOut + pm.inBase[ClassFanout] + f) }

// ADCIn returns the input interface of ADC a.
func (pm *PortMap) ADCIn(a int) uint16 { return uint16(pm.numOut + pm.inBase[ClassADC] + a) }

// LUTIn returns the input interface of lookup table l.
func (pm *PortMap) LUTIn(l int) uint16 { return uint16(pm.numOut + pm.inBase[ClassLUT] + l) }

// DecodeOutput resolves an output interface ID to (class, unit index,
// branch). branch is nonzero only for fanout outputs.
func (pm *PortMap) DecodeOutput(id uint16) (class UnitClass, unit, branch int, ok bool) {
	i := int(id)
	if i < 0 || i >= pm.numOut {
		return 0, 0, 0, false
	}
	switch {
	case i >= pm.outBase[ClassInput]:
		return ClassInput, i - pm.outBase[ClassInput], 0, true
	case i >= pm.outBase[ClassLUT]:
		return ClassLUT, i - pm.outBase[ClassLUT], 0, true
	case i >= pm.outBase[ClassDAC]:
		return ClassDAC, i - pm.outBase[ClassDAC], 0, true
	case i >= pm.outBase[ClassFanout]:
		rel := i - pm.outBase[ClassFanout]
		return ClassFanout, rel / pm.spec.FanoutWays, rel % pm.spec.FanoutWays, true
	case i >= pm.outBase[ClassMultiplier]:
		return ClassMultiplier, i - pm.outBase[ClassMultiplier], 0, true
	default:
		return ClassIntegrator, i - pm.outBase[ClassIntegrator], 0, true
	}
}

// DecodeInput resolves an input interface ID to (class, unit index, which).
// which is 1 only for a multiplier's second input.
func (pm *PortMap) DecodeInput(id uint16) (class UnitClass, unit, which int, ok bool) {
	i := int(id) - pm.numOut
	if i < 0 || i >= pm.numIn {
		return 0, 0, 0, false
	}
	switch {
	case i >= pm.inBase[ClassLUT]:
		return ClassLUT, i - pm.inBase[ClassLUT], 0, true
	case i >= pm.inBase[ClassADC]:
		return ClassADC, i - pm.inBase[ClassADC], 0, true
	case i >= pm.inBase[ClassFanout]:
		return ClassFanout, i - pm.inBase[ClassFanout], 0, true
	case i >= pm.inBase[ClassMultiplier]:
		rel := i - pm.inBase[ClassMultiplier]
		return ClassMultiplier, rel / 2, rel % 2, true
	default:
		return ClassIntegrator, i - pm.inBase[ClassIntegrator], 0, true
	}
}

// IsOutput reports whether an interface ID is an output.
func (pm *PortMap) IsOutput(id uint16) bool { return int(id) < pm.numOut }

// IsInput reports whether an interface ID is an input.
func (pm *PortMap) IsInput(id uint16) bool {
	return int(id) >= pm.numOut && int(id) < pm.numOut+pm.numIn
}
