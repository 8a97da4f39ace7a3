// Package circuit is a behavioural simulator for the continuous-time analog
// computing chip of Guo et al. that the paper's evaluation is built on. It
// models the chip's block inventory — integrators, variable-gain multipliers,
// current-mirror fanouts, DACs, ADCs, and continuous-time SRAM lookup
// tables — connected by summing nets (joining current branches adds values,
// which is how the crossbar performs addition for free).
//
// The simulator is the substitution for the fabricated 65 nm prototype and
// for the authors' Cadence Virtuoso extrapolations (see DESIGN.md): it
// reproduces the behaviours the architecture depends on — settling dynamics
// limited by integrator bandwidth, per-block offset/gain-error/nonlinearity
// with calibration trim DACs, hard dynamic-range limits with overflow
// exception latches, and quantizing converters — while the silicon costs
// (area, power) come from the paper's own Table II model in internal/model.
//
// Variables are normalized: full scale is ±Config.FullScale (default 1.0),
// standing in for the chip's current range.
package circuit

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// Kind enumerates analog block types.
type Kind int

// Block kinds, mirroring the component rows of the paper's Table II plus
// the external analog input channel of the prototype's macroblocks.
const (
	KindIntegrator Kind = iota
	KindMultiplier
	KindFanout
	KindDAC
	KindADC
	KindLUT
	KindInput
)

// String names the kind as in Table II.
func (k Kind) String() string {
	switch k {
	case KindIntegrator:
		return "integrator"
	case KindMultiplier:
		return "multiplier"
	case KindFanout:
		return "fanout"
	case KindDAC:
		return "dac"
	case KindADC:
		return "adc"
	case KindLUT:
		return "lut"
	case KindInput:
		return "input"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config sets the physical parameters of a simulated chip.
type Config struct {
	// Bandwidth is the integrator unity-gain bandwidth in Hz. The
	// prototype is a 20 kHz design; the paper projects 80 kHz, 320 kHz
	// and 1.3 MHz designs.
	Bandwidth float64
	// FullScale is the linear range of every analog value (default 1.0).
	// Exceeding it latches an overflow exception, as the chip's
	// comparators do.
	FullScale float64
	// SatLevel is where values physically clip (default 1.2×FullScale):
	// beyond full scale the transfer characteristic compresses and then
	// saturates (the "nonlinearity" non-ideality of Section III-B).
	SatLevel float64
	// ADCBits is the converter resolution (prototype: 8; model design: 12).
	ADCBits int
	// DACBits is the DAC resolution (prototype: 8).
	DACBits int
	// TrimBits is the resolution of the calibration trim DACs in each
	// block (default 6).
	TrimBits int
	// MaxGain is the largest multiplier gain magnitude (default 1.0);
	// coefficients beyond it force value scaling (Section VI-D inset).
	MaxGain float64
	// OffsetSigma is the std-dev of per-block random offset bias, as a
	// fraction of full scale (default 0: ideal). Process variation makes
	// it differ per block; calibration trims it out.
	OffsetSigma float64
	// GainSigma is the std-dev of per-block random relative gain error
	// (default 0: ideal).
	GainSigma float64
	// NoiseSigma is white noise added at integrator inputs, as a fraction
	// of full scale per √Hz of bandwidth (default 0).
	NoiseSigma float64
	// Seed drives the process-variation and noise RNG; chips built with
	// the same seed have identical mismatch, like re-testing one die.
	Seed int64
	// SolveStep lets the automatic RK4 step run at the stability limit
	// 1/(k·G) instead of 0.1/(k·G) when the configuration is noise-free
	// (see solveStep). It suits circuits read only at equilibrium, and
	// distorts transients such as undamped oscillations.
	SolveStep bool
}

// withDefaults fills zero fields with the prototype's values.
func (c Config) withDefaults() Config {
	if c.Bandwidth == 0 {
		c.Bandwidth = 20e3
	}
	if c.FullScale == 0 {
		c.FullScale = 1.0
	}
	if c.SatLevel == 0 {
		c.SatLevel = 1.2 * c.FullScale
	}
	if c.ADCBits == 0 {
		c.ADCBits = 8
	}
	if c.DACBits == 0 {
		c.DACBits = 8
	}
	if c.TrimBits == 0 {
		c.TrimBits = 6
	}
	if c.MaxGain == 0 {
		c.MaxGain = 1.0
	}
	return c
}

// Validate rejects physically meaningless configurations.
func (c Config) Validate() error {
	c = c.withDefaults()
	switch {
	case c.Bandwidth <= 0:
		return fmt.Errorf("circuit: bandwidth %v must be positive", c.Bandwidth)
	case c.FullScale <= 0:
		return fmt.Errorf("circuit: full scale %v must be positive", c.FullScale)
	case c.SatLevel < c.FullScale:
		return fmt.Errorf("circuit: saturation level %v below full scale %v", c.SatLevel, c.FullScale)
	case c.ADCBits < 1 || c.ADCBits > 24:
		return fmt.Errorf("circuit: ADC bits %d outside 1..24", c.ADCBits)
	case c.DACBits < 1 || c.DACBits > 24:
		return fmt.Errorf("circuit: DAC bits %d outside 1..24", c.DACBits)
	case c.TrimBits < 1 || c.TrimBits > 16:
		return fmt.Errorf("circuit: trim bits %d outside 1..16", c.TrimBits)
	case c.MaxGain <= 0:
		return fmt.Errorf("circuit: max gain %v must be positive", c.MaxGain)
	case c.OffsetSigma < 0 || c.GainSigma < 0 || c.NoiseSigma < 0:
		return errors.New("circuit: variation/noise sigmas must be non-negative")
	}
	return nil
}

// Net identifies a summing node. Multiple outputs driving one net add
// (currents joining a branch); multiple inputs reading one net each see the
// summed value (after fanout copying, which the netlist requires
// explicitly for realism — see Netlist.Connect).
type Net int

// noNet marks unconnected ports.
const noNet Net = -1

// nonIdeal carries a block's process variation and its calibration state.
type nonIdeal struct {
	offset  float64 // additive, output-referred, fraction of full scale
	gainErr float64 // relative multiplicative error
	// Trim codes, set by calibration over the ISA. Each code is a signed
	// integer in [-2^(TrimBits-1), 2^(TrimBits-1)-1] scaled by the trim
	// step sizes below.
	offsetTrim int
	gainTrim   int
}

// Block is one analog functional unit in a netlist.
type Block struct {
	ID   int
	Kind Kind
	// in/out are attached nets (noNet when unused).
	in  []Net
	out []Net

	// Parameters (which ones apply depends on Kind):
	Gain     float64   // multiplier constant gain (set over ISA)
	IC       float64   // integrator initial condition
	Level    float64   // DAC constant output (pre-quantization)
	Table    []float64 // LUT output samples at equally spaced inputs over ±FullScale
	Stimulus func(t float64) float64
	varMode  bool // multiplier uses two analog inputs instead of Gain

	ni nonIdeal

	stateIdx int // integrator state slot; -1 otherwise
}

// SetMismatch overrides the block's randomly drawn process variation.
// The chip layer uses it to keep each physical unit's mismatch stable
// across crossbar reconfigurations (the silicon doesn't change when the
// routing does).
func (b *Block) SetMismatch(offset, gainErr float64) {
	b.ni.offset = offset
	b.ni.gainErr = gainErr
}

// Mismatch returns the block's process variation (offset, relative gain
// error).
func (b *Block) Mismatch() (offset, gainErr float64) { return b.ni.offset, b.ni.gainErr }

// SetOffsetTrim sets the block's offset trim DAC code, clamped to the
// code range implied by the chip's TrimBits.
func (b *Block) SetOffsetTrim(code int) { b.ni.offsetTrim = code }

// SetGainTrim sets the block's gain trim DAC code.
func (b *Block) SetGainTrim(code int) { b.ni.gainTrim = code }

// OffsetTrim returns the current offset trim code.
func (b *Block) OffsetTrim() int { return b.ni.offsetTrim }

// GainTrim returns the current gain trim code.
func (b *Block) GainTrim() int { return b.ni.gainTrim }

// Netlist is a configurable analog datapath: blocks wired by summing nets.
// Build one with the Add* methods, then hand it to NewSimulator.
type Netlist struct {
	cfg    Config
	rng    *rand.Rand
	blocks []*Block
	nets   int
}

// NewNetlist creates an empty netlist on a chip with the given physical
// configuration.
func NewNetlist(cfg Config) (*Netlist, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Netlist{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Config returns the chip configuration.
func (nl *Netlist) Config() Config { return nl.cfg }

// Blocks returns the block list (shared, not a copy).
func (nl *Netlist) Blocks() []*Block { return nl.blocks }

// NumNets returns the number of allocated nets.
func (nl *Netlist) NumNets() int { return nl.nets }

// Net allocates a fresh summing node.
func (nl *Netlist) Net() Net {
	n := Net(nl.nets)
	nl.nets++
	return n
}

func (nl *Netlist) checkNet(n Net) {
	if n != noNet && (n < 0 || int(n) >= nl.nets) {
		panic(fmt.Sprintf("circuit: net %d not allocated", n))
	}
}

func (nl *Netlist) add(b *Block) *Block {
	for _, n := range b.in {
		nl.checkNet(n)
	}
	for _, n := range b.out {
		nl.checkNet(n)
	}
	b.ID = len(nl.blocks)
	b.stateIdx = -1
	// Draw per-block process variation once, at instantiation — each
	// physical copy of a unit has its own mismatch.
	b.ni.offset = nl.rng.NormFloat64() * nl.cfg.OffsetSigma * nl.cfg.FullScale
	b.ni.gainErr = nl.rng.NormFloat64() * nl.cfg.GainSigma
	nl.blocks = append(nl.blocks, b)
	return b
}

// AddIntegrator places an integrator reading `in` and driving `out`, with
// initial condition ic: d(out)/dt = 2π·Bandwidth · in.
func (nl *Netlist) AddIntegrator(in, out Net, ic float64) *Block {
	return nl.add(&Block{Kind: KindIntegrator, in: []Net{in}, out: []Net{out}, IC: ic})
}

// AddMultiplier places a constant-gain multiplier (VGA): out = gain·in.
// Gains beyond ±MaxGain are rejected at commit time by the chip layer; the
// raw netlist clamps nothing so tests can exercise the misbehaviour.
func (nl *Netlist) AddMultiplier(in, out Net, gain float64) *Block {
	return nl.add(&Block{Kind: KindMultiplier, in: []Net{in}, out: []Net{out}, Gain: gain})
}

// AddVarMultiplier places a variable×variable multiplier:
// out = in1·in2 / FullScale.
func (nl *Netlist) AddVarMultiplier(in1, in2, out Net) *Block {
	return nl.add(&Block{Kind: KindMultiplier, in: []Net{in1, in2}, out: []Net{out}, varMode: true})
}

// AddFanout places a current-mirror fanout copying `in` onto each listed
// output branch. A negative branch is produced by wiring the same net to
// an inverting multiplier; the mirror itself copies with unit gain.
func (nl *Netlist) AddFanout(in Net, outs ...Net) *Block {
	if len(outs) == 0 {
		panic("circuit: fanout needs at least one output branch")
	}
	return nl.add(&Block{Kind: KindFanout, in: []Net{in}, out: append([]Net(nil), outs...)})
}

// AddDAC places a constant-bias DAC driving `out` with `level` (quantized
// to DACBits at runtime).
func (nl *Netlist) AddDAC(out Net, level float64) *Block {
	return nl.add(&Block{Kind: KindDAC, in: nil, out: []Net{out}, Level: level})
}

// AddADC places an ADC observing `in`. ADCs do not drive nets; reading one
// quantizes the observed value to ADCBits.
func (nl *Netlist) AddADC(in Net) *Block {
	return nl.add(&Block{Kind: KindADC, in: []Net{in}, out: nil})
}

// AddLUT places a continuous-time SRAM lookup table applying fn:
// out = fn(in), realized as a 256-deep, 8-bit table exactly like the
// prototype's nonlinear function unit.
func (nl *Netlist) AddLUT(in, out Net, fn func(float64) float64) *Block {
	const depth = 256
	fs := nl.cfg.withDefaults().FullScale
	table := make([]float64, depth)
	for i := range table {
		x := -fs + 2*fs*float64(i)/float64(depth-1)
		table[i] = quantize(fn(x), fs, 8)
	}
	return nl.add(&Block{Kind: KindLUT, in: []Net{in}, out: []Net{out}, Table: table})
}

// AddLUTTable places a lookup table with explicit contents: table holds the
// output sample for each of len(table) equally spaced inputs over
// ±FullScale. The chip layer uses this form, since the ISA ships sampled
// tables over the wire rather than function pointers.
func (nl *Netlist) AddLUTTable(in, out Net, table []float64) *Block {
	if len(table) == 0 {
		panic("circuit: empty LUT table")
	}
	return nl.add(&Block{Kind: KindLUT, in: []Net{in}, out: []Net{out}, Table: append([]float64(nil), table...)})
}

// AddInput places an external analog input channel driving `out` with the
// host-supplied stimulus waveform (nil means a grounded input).
func (nl *Netlist) AddInput(out Net, stimulus func(t float64) float64) *Block {
	return nl.add(&Block{Kind: KindInput, in: nil, out: []Net{out}, Stimulus: stimulus})
}

// quantize rounds v to the nearest code of a bits-wide converter spanning
// ±fs, clamping out-of-range inputs to the end codes.
func quantize(v, fs float64, bits int) float64 {
	levels := float64(int64(1)<<uint(bits)) - 1
	code := math.Round((v + fs) / (2 * fs) * levels)
	if code < 0 {
		code = 0
	}
	if code > levels {
		code = levels
	}
	return code/levels*2*fs - fs
}

// Quantize exposes converter quantization for tests and the chip layer.
func Quantize(v, fs float64, bits int) float64 { return quantize(v, fs, bits) }

// trimSteps returns the offset and gain correction per trim code.
func (nl *Netlist) trimSteps() (offStep, gainStep float64) {
	codes := float64(int64(1) << uint(nl.cfg.TrimBits-1))
	// Trim range covers ±4σ of the process variation it must cancel
	// (or a minimal range on an ideal chip so the codes still act).
	offRange := 4 * nl.cfg.OffsetSigma * nl.cfg.FullScale
	if offRange == 0 {
		offRange = 1e-6 * nl.cfg.FullScale
	}
	gainRange := 4 * nl.cfg.GainSigma
	if gainRange == 0 {
		gainRange = 1e-6
	}
	return offRange / codes, gainRange / codes
}

// effective returns a block's output-referred offset and multiplicative
// gain factor after trim correction.
func (nl *Netlist) effective(b *Block) (offset, gainFactor float64) {
	offStep, gainStep := nl.trimSteps()
	offset = b.ni.offset - float64(b.ni.offsetTrim)*offStep
	gainFactor = 1 + b.ni.gainErr - float64(b.ni.gainTrim)*gainStep
	return offset, gainFactor
}

// TransferAt measures a block's DC transfer: the output produced for a
// steady input value `in`, through the block's current non-ideality and trim
// state. Physically this is the calibration hookup of Section III-B — the
// block's input driven by a DAC and its output observed by an ADC — with
// both conversions applied by the caller (see core.Calibrate). For an
// integrator the returned value is the input-referred drive (the derivative
// divided by 2π·bandwidth), which is what drift calibration nulls out.
func (nl *Netlist) TransferAt(b *Block, in float64) (float64, error) {
	off, gf := nl.effective(b)
	fs, sat := nl.cfg.FullScale, nl.cfg.SatLevel
	switch b.Kind {
	case KindMultiplier:
		if b.varMode {
			return softSat(gf*(in*in/fs)+off, fs, sat), nil
		}
		return softSat(gf*b.Gain*in+off, fs, sat), nil
	case KindFanout, KindIntegrator:
		return softSat(gf*in+off, fs, sat), nil
	case KindDAC:
		return softSat(gf*quantize(b.Level, fs, nl.cfg.DACBits)+off, fs, sat), nil
	default:
		return 0, fmt.Errorf("circuit: block kind %v has no calibratable DC transfer", b.Kind)
	}
}
