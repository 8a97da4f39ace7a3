package chip

import (
	"fmt"
	"math"
	"math/rand"

	"analogacc/internal/circuit"
	"analogacc/internal/isa"
)

// execState is the chip's execution state machine.
type execState int

const (
	// stateUnconfigured: powered up, registers staged or empty, no
	// committed datapath.
	stateUnconfigured execState = iota
	// stateReady: configuration committed, integrators at initial
	// conditions, computation not yet started.
	stateReady
	// stateHeld: computation has run and the integrators are holding
	// their present values (execStop, or armed timeout expired).
	stateHeld
)

// unitState carries a physical unit's persistent analog identity (mismatch
// drawn at fabrication) and its calibration codes.
type unitState struct {
	offset     float64
	gainErr    float64
	offsetTrim int
	gainTrim   int
}

// Chip is one simulated analog accelerator die: inventory per Spec, Table I
// command processor, crossbar configuration registers, and the behavioural
// circuit underneath. It implements isa.Device.
type Chip struct {
	spec   Spec
	pm     *PortMap
	counts Counts

	// Persistent per-unit analog identity in class order.
	units map[UnitClass][]unitState

	// Staged configuration registers (written by config instructions,
	// applied to the datapath by cfgCommit).
	gains   []float64
	ics     []float64
	levels  []float64
	tables  [][]float64 // per LUT, 256 output samples in full-scale units
	inputEn []bool
	conns   []conn
	timeout uint32

	// Lane-batched extension: staged lane count plus per-lane override
	// registers. Overrides are allocated lazily per lane and hold NaN
	// where a lane inherits the scalar register above — NaN can never be
	// a programmed value (the range checks reject it), so it is a safe
	// "unset" sentinel. Lane registers are parameters, not topology:
	// committing them rides the in-place fast path.
	lanes      int
	laneGains  [][]float64 // [lane][multiplier]
	laneICs    [][]float64 // [lane][integrator]
	laneLevels [][]float64 // [lane][dac]

	// Bench-side stimulus functions for the analog input pins; the ISA
	// only gates them with setAnaInputEn (a real chip's input is a pin,
	// not a register).
	stimuli []func(t float64) float64

	// Last byte written with writeParallel, readable by the DAC path.
	parallelReg byte

	state      execState
	nl         *circuit.Netlist
	sim        *circuit.Simulator
	blocks     map[UnitClass][]*circuit.Block
	analogTime float64 // accumulated analog computation seconds

	// topoDirty tracks whether any staged change since the last full
	// commit touches the datapath topology (connections, LUT contents).
	// While false, a commit only moves unit parameters — gains, DAC
	// levels, initial conditions — and is applied to the live datapath in
	// place instead of rebuilding netlist and simulator. rebuilds counts
	// the full rebuilds actually performed.
	topoDirty bool
	rebuilds  int
}

type conn struct{ src, dst uint16 }

// New fabricates a chip: draws every unit's process variation from the
// spec's seed and leaves the chip unconfigured.
func New(spec Spec) (*Chip, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	c := &Chip{
		spec:   spec,
		pm:     NewPortMap(spec),
		counts: spec.Counts(),
		units:  map[UnitClass][]unitState{},
	}
	rng := rand.New(rand.NewSource(spec.Seed))
	draw := func(n int) []unitState {
		us := make([]unitState, n)
		for i := range us {
			us[i].offset = rng.NormFloat64() * spec.OffsetSigma
			us[i].gainErr = rng.NormFloat64() * spec.GainSigma
		}
		return us
	}
	c.units[ClassIntegrator] = draw(c.counts.Integrators)
	c.units[ClassMultiplier] = draw(c.counts.Multipliers)
	c.units[ClassFanout] = draw(c.counts.Fanouts)
	c.units[ClassADC] = draw(c.counts.ADCs)
	c.units[ClassDAC] = draw(c.counts.DACs)
	c.units[ClassLUT] = draw(c.counts.LUTs)
	c.units[ClassInput] = draw(c.counts.Inputs)

	c.gains = make([]float64, c.counts.Multipliers)
	c.ics = make([]float64, c.counts.Integrators)
	c.levels = make([]float64, c.counts.DACs)
	c.tables = make([][]float64, c.counts.LUTs)
	c.inputEn = make([]bool, c.counts.Inputs)
	c.stimuli = make([]func(float64) float64, c.counts.Inputs)
	return c, nil
}

// Spec returns the chip's design parameters.
func (c *Chip) Spec() Spec { return c.spec }

// Ports returns the chip's interface numbering, shared with the host.
func (c *Chip) Ports() *PortMap { return c.pm }

// Counts returns the unit inventory.
func (c *Chip) Counts() Counts { return c.counts }

// AnalogTime returns total analog computation seconds since fabrication:
// the performance metric of Figures 8 and 9.
func (c *Chip) AnalogTime() float64 { return c.analogTime }

// SetStimulus attaches a bench waveform to analog input channel ch. It
// takes effect only while the channel is enabled via setAnaInputEn.
func (c *Chip) SetStimulus(ch int, fn func(t float64) float64) error {
	if ch < 0 || ch >= len(c.stimuli) {
		return fmt.Errorf("chip: no analog input channel %d", ch)
	}
	c.stimuli[ch] = fn
	if c.state != stateUnconfigured {
		// Rewire the live block so the bench can change stimuli mid-run.
		blk := c.blocks[ClassInput][ch]
		if c.inputEn[ch] {
			blk.Stimulus = fn
		}
	}
	return nil
}

// unitOrder returns classes in exception-vector order.
func unitOrder() []UnitClass {
	return []UnitClass{ClassIntegrator, ClassMultiplier, ClassFanout, ClassADC, ClassDAC, ClassLUT, ClassInput}
}

// TrimCodes returns a flat snapshot of every unit's calibration codes
// (offset trim, gain trim) in exception-vector unit order. Calibration
// codes "remain constant during accelerator operation and between solving
// different problems", so two snapshots bracketing any amount of solving
// must be identical — the invariant the serve pool's stress test checks
// when a chip comes back from a checkout.
func (c *Chip) TrimCodes() []int {
	codes := make([]int, 0, 2*c.NumUnits())
	for _, cl := range unitOrder() {
		for _, u := range c.units[cl] {
			codes = append(codes, u.offsetTrim, u.gainTrim)
		}
	}
	return codes
}

// NumUnits returns the total unit count (the exception vector length).
func (c *Chip) NumUnits() int {
	n := 0
	for _, cl := range unitOrder() {
		n += len(c.units[cl])
	}
	return n
}

// --- Configuration (staged registers) ---

func (c *Chip) setConn(src, dst uint16) isa.Status {
	if !c.pm.IsOutput(src) || !c.pm.IsInput(dst) {
		return isa.StatusNoUnit
	}
	// An analog output is a current branch: it can feed exactly one
	// destination. Copying a variable requires routing it through a
	// fanout block first (Section III-A).
	for _, cn := range c.conns {
		if cn.src == src {
			return isa.StatusBadArgs
		}
		if cn.src == src && cn.dst == dst {
			return isa.StatusOK
		}
	}
	c.conns = append(c.conns, conn{src, dst})
	c.state = stateUnconfigured
	c.topoDirty = true
	return isa.StatusOK
}

func (c *Chip) setIntInitial(idx int, v float64) isa.Status {
	if idx < 0 || idx >= len(c.ics) {
		return isa.StatusNoUnit
	}
	if math.Abs(v) > 1 || math.IsNaN(v) {
		return isa.StatusExceeded
	}
	c.ics[idx] = v
	c.state = stateUnconfigured
	return isa.StatusOK
}

func (c *Chip) setMulGain(idx int, g float64) isa.Status {
	if idx < 0 || idx >= len(c.gains) {
		return isa.StatusNoUnit
	}
	if math.Abs(g) > c.spec.MaxGain || math.IsNaN(g) {
		return isa.StatusExceeded
	}
	c.gains[idx] = g
	c.state = stateUnconfigured
	return isa.StatusOK
}

func (c *Chip) setDacConstant(idx int, v float64) isa.Status {
	if idx < 0 || idx >= len(c.levels) {
		return isa.StatusNoUnit
	}
	if math.Abs(v) > 1 || math.IsNaN(v) {
		return isa.StatusExceeded
	}
	c.levels[idx] = v
	c.state = stateUnconfigured
	return isa.StatusOK
}

func (c *Chip) setFunction(idx int, table []byte) isa.Status {
	if idx < 0 || idx >= len(c.tables) {
		return isa.StatusNoUnit
	}
	if len(table) != 256 {
		return isa.StatusBadArgs
	}
	vals := make([]float64, 256)
	for i, code := range table {
		vals[i] = float64(code)/255*2 - 1
	}
	c.tables[idx] = vals
	c.state = stateUnconfigured
	c.topoDirty = true
	return isa.StatusOK
}

func (c *Chip) setAnaInputEn(idx int, enable bool) isa.Status {
	if idx < 0 || idx >= len(c.inputEn) {
		return isa.StatusNoUnit
	}
	c.inputEn[idx] = enable
	if c.state != stateUnconfigured {
		blk := c.blocks[ClassInput][idx]
		if enable {
			blk.Stimulus = c.stimuli[idx]
		} else {
			blk.Stimulus = nil
		}
	}
	return isa.StatusOK
}

// --- Lane-batched configuration ---

// setLanes stages the lane count for the next commit. Staging a new
// width clears every per-lane override: a lane program always starts
// from the scalar registers and diverges lane by lane, which is what
// lets the host reuse one matrix configuration across batch waves of
// different widths.
func (c *Chip) setLanes(n int) isa.Status {
	if n < 0 || n > circuit.MaxLanes {
		return isa.StatusExceeded
	}
	c.lanes = n
	c.laneGains = nil
	c.laneICs = nil
	c.laneLevels = nil
	c.state = stateUnconfigured
	return isa.StatusOK
}

// laneReg returns lane's override slice in store, allocating it filled
// with the NaN inherit-sentinel on first touch.
func laneReg(store *[][]float64, lane, n int) []float64 {
	for len(*store) <= lane {
		*store = append(*store, nil)
	}
	if (*store)[lane] == nil {
		s := make([]float64, n)
		for i := range s {
			s[i] = math.NaN()
		}
		(*store)[lane] = s
	}
	return (*store)[lane]
}

func (c *Chip) setIntInitialLane(lane, idx int, v float64) isa.Status {
	if lane < 0 || lane >= c.lanes {
		return isa.StatusNoUnit
	}
	if idx < 0 || idx >= len(c.ics) {
		return isa.StatusNoUnit
	}
	if math.Abs(v) > 1 || math.IsNaN(v) {
		return isa.StatusExceeded
	}
	laneReg(&c.laneICs, lane, len(c.ics))[idx] = v
	c.state = stateUnconfigured
	return isa.StatusOK
}

func (c *Chip) setMulGainLane(lane, idx int, g float64) isa.Status {
	if lane < 0 || lane >= c.lanes {
		return isa.StatusNoUnit
	}
	if idx < 0 || idx >= len(c.gains) {
		return isa.StatusNoUnit
	}
	if math.Abs(g) > c.spec.MaxGain || math.IsNaN(g) {
		return isa.StatusExceeded
	}
	laneReg(&c.laneGains, lane, len(c.gains))[idx] = g
	c.state = stateUnconfigured
	return isa.StatusOK
}

func (c *Chip) setDacConstantLane(lane, idx int, v float64) isa.Status {
	if lane < 0 || lane >= c.lanes {
		return isa.StatusNoUnit
	}
	if idx < 0 || idx >= len(c.levels) {
		return isa.StatusNoUnit
	}
	if math.Abs(v) > 1 || math.IsNaN(v) {
		return isa.StatusExceeded
	}
	laneReg(&c.laneLevels, lane, len(c.levels))[idx] = v
	c.state = stateUnconfigured
	return isa.StatusOK
}

// cfgReset returns all configuration registers and crossbar connections to
// power-on defaults. Calibration codes are silicon trim state and persist.
func (c *Chip) cfgReset() isa.Status {
	c.conns = nil
	for i := range c.gains {
		c.gains[i] = 0
	}
	for i := range c.ics {
		c.ics[i] = 0
	}
	for i := range c.levels {
		c.levels[i] = 0
	}
	for i := range c.tables {
		c.tables[i] = nil
	}
	for i := range c.inputEn {
		c.inputEn[i] = false
	}
	c.timeout = 0
	c.lanes = 0
	c.laneGains = nil
	c.laneICs = nil
	c.laneLevels = nil
	c.state = stateUnconfigured
	c.topoDirty = true
	return isa.StatusOK
}

// commit validates the staged configuration and applies it to the
// datapath. When the staged changes since the last successful commit touch
// only unit parameters (multiplier gains, DAC levels, integrator initial
// conditions) the live datapath is updated in place: the netlist topology
// and the compiled op stream survive. That makes re-biasing a resident
// system — rewriting the RHS between refinement passes or decomposition
// sweeps — O(parameters) instead of O(inventory), which is what lets a
// pinned session amortize one matrix configuration over many solves.
func (c *Chip) commit() isa.Status {
	if c.nl != nil && !c.topoDirty {
		return c.commitParams()
	}
	return c.rebuild()
}

// commitParams is the parameter-only commit fast path: copy the staged
// gains, levels and initial conditions onto the live blocks, refresh the
// integration step (it depends on the gain magnitudes), and reset the
// simulator so folded constants, integrator states and exception latches
// reflect the new configuration — exactly the observable state a full
// rebuild would produce, minus the reseeded noise stream.
func (c *Chip) commitParams() isa.Status {
	for m, blk := range c.blocks[ClassMultiplier] {
		blk.Gain = c.gains[m]
	}
	for d, blk := range c.blocks[ClassDAC] {
		blk.Level = c.levels[d]
	}
	for i, blk := range c.blocks[ClassIntegrator] {
		blk.IC = c.ics[i]
	}
	c.sim.ReloadStep()
	if st := c.applyLanes(); st != isa.StatusOK {
		return st
	}
	c.sim.Reset()
	c.state = stateReady
	return isa.StatusOK
}

// applyLanes pushes the staged lane configuration into the live
// simulator: the lane width, then every per-lane override (registers
// still holding the NaN sentinel inherit the scalar register, which
// ConfigureLanes has already replicated), then the per-lane integration
// steps that depend on the lanes' final gain sets. The caller resets the
// simulator afterwards so lane initial conditions and exception latches
// load, exactly like the scalar commit.
func (c *Chip) applyLanes() isa.Status {
	if c.lanes == 0 {
		if c.sim.Lanes() != 0 {
			c.sim.ConfigureLanes(0)
		}
		return isa.StatusOK
	}
	if err := c.sim.ConfigureLanes(c.lanes); err != nil {
		// Lane mode needs the fused engine and a noise-free spec.
		return isa.StatusBadState
	}
	apply := func(store [][]float64, blocks []*circuit.Block,
		set func(b *circuit.Block, lane int, v float64) error) isa.Status {
		for lane := 0; lane < c.lanes && lane < len(store); lane++ {
			regs := store[lane]
			if regs == nil {
				continue
			}
			for i, v := range regs {
				if math.IsNaN(v) {
					continue
				}
				if err := set(blocks[i], lane, v); err != nil {
					// e.g. a lane gain aimed at a multiplier that the
					// committed topology wired as a variable multiplier.
					return isa.StatusBadArgs
				}
			}
		}
		return isa.StatusOK
	}
	if st := apply(c.laneGains, c.blocks[ClassMultiplier], c.sim.SetLaneGain); st != isa.StatusOK {
		return st
	}
	if st := apply(c.laneLevels, c.blocks[ClassDAC], c.sim.SetLaneLevel); st != isa.StatusOK {
		return st
	}
	if st := apply(c.laneICs, c.blocks[ClassIntegrator], c.sim.SetLaneIC); st != isa.StatusOK {
		return st
	}
	c.sim.ReloadLaneSteps()
	return isa.StatusOK
}

// rebuild constructs the netlist and simulator from scratch.
func (c *Chip) rebuild() isa.Status {
	nl, err := circuit.NewNetlist(circuit.Config{
		Bandwidth:   c.spec.Bandwidth,
		ADCBits:     c.spec.ADCBits,
		DACBits:     c.spec.DACBits,
		TrimBits:    c.spec.TrimBits,
		MaxGain:     c.spec.MaxGain,
		OffsetSigma: c.spec.OffsetSigma,
		GainSigma:   c.spec.GainSigma,
		NoiseSigma:  c.spec.NoiseSigma,
		Seed:        c.spec.Seed,
		SolveStep:   c.spec.SolveStep,
	})
	if err != nil {
		return isa.StatusInternal
	}
	// One net per connected input port; dangling nets elsewhere.
	inNets := make(map[uint16]circuit.Net, len(c.conns))
	for _, cn := range c.conns {
		if _, ok := inNets[cn.dst]; !ok {
			inNets[cn.dst] = nl.Net()
		}
	}
	netForInput := func(id uint16) circuit.Net {
		if n, ok := inNets[id]; ok {
			return n
		}
		return nl.Net() // dangling: reads 0
	}
	// Output port → net it drives (via the single connection allowed).
	outNet := make(map[uint16]circuit.Net, len(c.conns))
	for _, cn := range c.conns {
		outNet[cn.src] = inNets[cn.dst]
	}
	netForOutput := func(id uint16) circuit.Net {
		if n, ok := outNet[id]; ok {
			return n
		}
		return nl.Net() // unloaded output
	}

	blocks := map[UnitClass][]*circuit.Block{}
	for i := 0; i < c.counts.Integrators; i++ {
		b := nl.AddIntegrator(netForInput(c.pm.IntegratorIn(i)), netForOutput(c.pm.IntegratorOut(i)), c.ics[i])
		blocks[ClassIntegrator] = append(blocks[ClassIntegrator], b)
	}
	for m := 0; m < c.counts.Multipliers; m++ {
		in0 := c.pm.MultiplierIn(m, 0)
		in1 := c.pm.MultiplierIn(m, 1)
		_, varMode := inNets[in1]
		var b *circuit.Block
		if varMode {
			b = nl.AddVarMultiplier(netForInput(in0), netForInput(in1), netForOutput(c.pm.MultiplierOut(m)))
		} else {
			b = nl.AddMultiplier(netForInput(in0), netForOutput(c.pm.MultiplierOut(m)), c.gains[m])
		}
		blocks[ClassMultiplier] = append(blocks[ClassMultiplier], b)
	}
	for f := 0; f < c.counts.Fanouts; f++ {
		outs := make([]circuit.Net, c.spec.FanoutWays)
		for w := range outs {
			outs[w] = netForOutput(c.pm.FanoutOut(f, w))
		}
		b := nl.AddFanout(netForInput(c.pm.FanoutIn(f)), outs...)
		blocks[ClassFanout] = append(blocks[ClassFanout], b)
	}
	for a := 0; a < c.counts.ADCs; a++ {
		b := nl.AddADC(netForInput(c.pm.ADCIn(a)))
		blocks[ClassADC] = append(blocks[ClassADC], b)
	}
	for d := 0; d < c.counts.DACs; d++ {
		b := nl.AddDAC(netForOutput(c.pm.DACOut(d)), c.levels[d])
		blocks[ClassDAC] = append(blocks[ClassDAC], b)
	}
	for l := 0; l < c.counts.LUTs; l++ {
		table := c.tables[l]
		if table == nil {
			// Unprogrammed: outputs 0. One zero entry answers every
			// input exactly as 256 would.
			table = []float64{0}
		}
		b := nl.AddLUTTable(netForInput(c.pm.LUTIn(l)), netForOutput(c.pm.LUTOut(l)), table)
		blocks[ClassLUT] = append(blocks[ClassLUT], b)
	}
	for ch := 0; ch < c.counts.Inputs; ch++ {
		var fn func(float64) float64
		if c.inputEn[ch] {
			fn = c.stimuli[ch]
		}
		b := nl.AddInput(netForOutput(c.pm.InputOut(ch)), fn)
		blocks[ClassInput] = append(blocks[ClassInput], b)
	}
	// Stamp persistent mismatch and calibration onto the fresh blocks.
	for _, cl := range unitOrder() {
		for i, b := range blocks[cl] {
			u := c.units[cl][i]
			b.SetMismatch(u.offset, u.gainErr)
			b.SetOffsetTrim(u.offsetTrim)
			b.SetGainTrim(u.gainTrim)
		}
	}
	sim, err := circuit.NewSimulator(nl, 0)
	if err != nil {
		// Algebraic loop in the user's configuration.
		return isa.StatusBadArgs
	}
	// Engine was validated with the spec; a bad name here means the spec
	// skipped Validate, and auto is the right fallback.
	if eng, err := circuit.ParseEngine(c.spec.Engine); err == nil {
		sim.SetEngine(eng)
	}
	c.nl, c.sim, c.blocks = nl, sim, blocks
	if st := c.applyLanes(); st != isa.StatusOK {
		// Leave topoDirty set: the next commit retries the full rebuild.
		return st
	}
	if c.lanes > 0 {
		c.sim.Reset() // load lane initial conditions and latches
	}
	c.state = stateReady
	c.topoDirty = false
	c.rebuilds++
	return isa.StatusOK
}

// Rebuilds returns how many commits rebuilt the datapath from scratch;
// parameter-only commits are applied in place and do not count. The
// difference between total commits and rebuilds is the session-pinning
// payoff the decomposition benchmarks report.
func (c *Chip) Rebuilds() int { return c.rebuilds }

// --- Execution ---

func (c *Chip) execStart() isa.Status {
	if c.state == stateUnconfigured {
		return isa.StatusBadState
	}
	if c.timeout == 0 {
		// Without an armed timeout the chip would free-run with no way
		// for a synchronous host model to regain control.
		return isa.StatusBadState
	}
	duration := float64(c.timeout) / c.spec.TimerHz
	if c.sim.Lanes() > 0 {
		// All lanes integrate concurrently: B solves cost one duration of
		// analog time, which is the lane batching payoff.
		if err := c.sim.RunLanes(duration); err != nil {
			return isa.StatusInternal
		}
	} else {
		c.sim.Run(duration)
	}
	c.analogTime += duration
	c.state = stateHeld
	return isa.StatusOK
}

func (c *Chip) execStop() isa.Status {
	if c.state == stateUnconfigured {
		return isa.StatusBadState
	}
	c.state = stateHeld
	return isa.StatusOK
}

// --- Readback ---

func (c *Chip) readSerial() ([]byte, isa.Status) {
	if c.state == stateUnconfigured {
		return nil, isa.StatusBadState
	}
	if c.sim.Lanes() > 0 {
		// In lane mode only the lanes integrate; the scalar read aliases
		// lane 0 so single-RHS instruction sequences stay meaningful.
		return c.readSerialLane(0)
	}
	out := make([]byte, 0, 2*c.counts.ADCs)
	for _, adc := range c.blocks[ClassADC] {
		code, _, err := c.sim.ReadADC(adc)
		if err != nil {
			return nil, isa.StatusInternal
		}
		out = isa.PutU16(out, uint16(code))
	}
	return out, isa.StatusOK
}

func (c *Chip) readSerialLane(lane int) ([]byte, isa.Status) {
	if c.state == stateUnconfigured {
		return nil, isa.StatusBadState
	}
	if lane < 0 || lane >= c.sim.Lanes() {
		return nil, isa.StatusNoUnit
	}
	out := make([]byte, 0, 2*c.counts.ADCs)
	for _, adc := range c.blocks[ClassADC] {
		code, _, err := c.sim.ReadADCLane(adc, lane)
		if err != nil {
			return nil, isa.StatusInternal
		}
		out = isa.PutU16(out, uint16(code))
	}
	return out, isa.StatusOK
}

func (c *Chip) analogAvg(idx, samples int) ([]byte, isa.Status) {
	if c.state == stateUnconfigured {
		return nil, isa.StatusBadState
	}
	if idx < 0 || idx >= c.counts.ADCs {
		return nil, isa.StatusNoUnit
	}
	if samples <= 0 {
		samples = 1
	}
	if c.sim.Lanes() > 0 {
		return c.analogAvgLane(0, idx, samples)
	}
	// While held, integrators are frozen: sampling does not advance
	// analog time, so the average is over converter readings only.
	var sum float64
	for i := 0; i < samples; i++ {
		_, v, err := c.sim.ReadADC(c.blocks[ClassADC][idx])
		if err != nil {
			return nil, isa.StatusInternal
		}
		sum += v
	}
	return isa.PutF64(nil, sum/float64(samples)), isa.StatusOK
}

func (c *Chip) analogAvgLane(lane, idx, samples int) ([]byte, isa.Status) {
	if c.state == stateUnconfigured {
		return nil, isa.StatusBadState
	}
	if lane < 0 || lane >= c.sim.Lanes() {
		return nil, isa.StatusNoUnit
	}
	if idx < 0 || idx >= c.counts.ADCs {
		return nil, isa.StatusNoUnit
	}
	if samples <= 0 {
		samples = 1
	}
	// Mirrors the scalar averaging loop exactly: lanes are held like the
	// scalar datapath, so the sum-of-reads/samples expression is the same.
	var sum float64
	for i := 0; i < samples; i++ {
		_, v, err := c.sim.ReadADCLane(c.blocks[ClassADC][idx], lane)
		if err != nil {
			return nil, isa.StatusInternal
		}
		sum += v
	}
	return isa.PutF64(nil, sum/float64(samples)), isa.StatusOK
}

// readExp reads one lane's exception vector. Block IDs follow the
// exception-vector unit order (rebuild adds units class by class in
// unitOrder), so the simulator's per-block vector is the payload. The
// scalar instruction reads lane 0, which in lane mode aliases the first
// lane like the other scalar reads; the lane instruction must name a
// configured lane.
func (c *Chip) readExp(lane int, laneOp bool) ([]byte, isa.Status) {
	if c.state == stateUnconfigured {
		return nil, isa.StatusBadState
	}
	if laneOp && (lane < 0 || lane >= c.sim.Lanes()) {
		return nil, isa.StatusNoUnit
	}
	return isa.PackBits(c.sim.ExceptionVector(lane)), isa.StatusOK
}

// ExceptionIndex returns the exception-vector bit position of a unit.
func (c *Chip) ExceptionIndex(class UnitClass, unit int) int {
	pos := 0
	for _, cl := range unitOrder() {
		if cl == class {
			return pos + unit
		}
		pos += len(c.units[cl])
	}
	return -1
}

// Execute implements isa.Device: the chip's SPI command engine.
func (c *Chip) Execute(op isa.Opcode, payload []byte) ([]byte, isa.Status) {
	switch op {
	case isa.OpInit:
		n := c.calibrate()
		return isa.PutU16(nil, uint16(n)), isa.StatusOK
	case isa.OpSetConn:
		if len(payload) != 4 {
			return nil, isa.StatusBadArgs
		}
		return nil, c.setConn(isa.GetU16(payload, 0), isa.GetU16(payload, 2))
	case isa.OpSetIntInitial:
		if len(payload) != 10 {
			return nil, isa.StatusBadArgs
		}
		return nil, c.setIntInitial(int(isa.GetU16(payload, 0)), isa.GetF64(payload, 2))
	case isa.OpSetMulGain:
		if len(payload) != 10 {
			return nil, isa.StatusBadArgs
		}
		return nil, c.setMulGain(int(isa.GetU16(payload, 0)), isa.GetF64(payload, 2))
	case isa.OpSetFunction:
		if len(payload) != 2+256 {
			return nil, isa.StatusBadArgs
		}
		return nil, c.setFunction(int(isa.GetU16(payload, 0)), payload[2:])
	case isa.OpSetDacConstant:
		if len(payload) != 10 {
			return nil, isa.StatusBadArgs
		}
		return nil, c.setDacConstant(int(isa.GetU16(payload, 0)), isa.GetF64(payload, 2))
	case isa.OpSetTimeout:
		if len(payload) != 4 {
			return nil, isa.StatusBadArgs
		}
		c.timeout = isa.GetU32(payload, 0)
		return nil, isa.StatusOK
	case isa.OpCfgCommit:
		return nil, c.commit()
	case isa.OpExecStart:
		return nil, c.execStart()
	case isa.OpExecStop:
		return nil, c.execStop()
	case isa.OpSetAnaInputEn:
		if len(payload) != 3 {
			return nil, isa.StatusBadArgs
		}
		return nil, c.setAnaInputEn(int(isa.GetU16(payload, 0)), payload[2] != 0)
	case isa.OpWriteParallel:
		if len(payload) != 1 {
			return nil, isa.StatusBadArgs
		}
		c.parallelReg = payload[0]
		return nil, isa.StatusOK
	case isa.OpReadSerial:
		return c.readSerial()
	case isa.OpAnalogAvg:
		if len(payload) != 4 {
			return nil, isa.StatusBadArgs
		}
		return c.analogAvg(int(isa.GetU16(payload, 0)), int(isa.GetU16(payload, 2)))
	case isa.OpReadExp:
		return c.readExp(0, false)
	case isa.OpCfgReset:
		return nil, c.cfgReset()
	case isa.OpSetLanes:
		if len(payload) != 2 {
			return nil, isa.StatusBadArgs
		}
		return nil, c.setLanes(int(isa.GetU16(payload, 0)))
	case isa.OpSetIntInitLane:
		if len(payload) != 12 {
			return nil, isa.StatusBadArgs
		}
		return nil, c.setIntInitialLane(int(isa.GetU16(payload, 0)), int(isa.GetU16(payload, 2)), isa.GetF64(payload, 4))
	case isa.OpSetMulGainLane:
		if len(payload) != 12 {
			return nil, isa.StatusBadArgs
		}
		return nil, c.setMulGainLane(int(isa.GetU16(payload, 0)), int(isa.GetU16(payload, 2)), isa.GetF64(payload, 4))
	case isa.OpSetDacConstLane:
		if len(payload) != 12 {
			return nil, isa.StatusBadArgs
		}
		return nil, c.setDacConstantLane(int(isa.GetU16(payload, 0)), int(isa.GetU16(payload, 2)), isa.GetF64(payload, 4))
	case isa.OpReadSerialLane:
		if len(payload) != 2 {
			return nil, isa.StatusBadArgs
		}
		return c.readSerialLane(int(isa.GetU16(payload, 0)))
	case isa.OpAnalogAvgLane:
		if len(payload) != 6 {
			return nil, isa.StatusBadArgs
		}
		return c.analogAvgLane(int(isa.GetU16(payload, 0)), int(isa.GetU16(payload, 2)), int(isa.GetU16(payload, 4)))
	case isa.OpReadExpLane:
		if len(payload) != 2 {
			return nil, isa.StatusBadArgs
		}
		return c.readExp(int(isa.GetU16(payload, 0)), true)
	default:
		return nil, isa.StatusBadOpcode
	}
}

// ParallelRegister returns the last writeParallel byte (bench observation).
func (c *Chip) ParallelRegister() byte { return c.parallelReg }

// Sim exposes the underlying simulator for bench instrumentation (probes,
// direct integrator reads in tests). Nil before the first commit.
func (c *Chip) Sim() *circuit.Simulator { return c.sim }

// SelectEngine switches the simulation kernel on the live datapath and on
// every future rebuild. Like Sim, this is a bench-side knob on the
// simulation itself, not a Table I instruction: engines are bit-identical
// and invisible to programs running on the chip. workers is ignored (the
// fused kernel is serial); the parameter stays because the perfbench
// module calls this two-argument form.
func (c *Chip) SelectEngine(name string, workers int) error {
	eng, err := circuit.ParseEngine(name)
	if err != nil {
		return err
	}
	c.spec.Engine = name
	if c.sim != nil {
		c.sim.SetEngine(eng)
	}
	return nil
}

// Netlist exposes the committed datapath (nil before the first commit).
func (c *Chip) Netlist() *circuit.Netlist { return c.nl }

// Utilization reports how much of the chip's inventory the committed
// configuration uses — the resource-pressure view behind the paper's
// scalability discussion (integrators are the scarce unit).
type Utilization struct {
	Integrators, IntegratorsUsed int
	Multipliers, MultipliersUsed int
	Fanouts, FanoutsUsed         int
	ADCs, ADCsUsed               int
	DACs, DACsUsed               int
	LUTs, LUTsUsed               int
}

// Utilization counts units touched by at least one committed connection.
func (c *Chip) Utilization() Utilization {
	u := Utilization{
		Integrators: c.counts.Integrators,
		Multipliers: c.counts.Multipliers,
		Fanouts:     c.counts.Fanouts,
		ADCs:        c.counts.ADCs,
		DACs:        c.counts.DACs,
		LUTs:        c.counts.LUTs,
	}
	used := map[UnitClass]map[int]bool{}
	mark := func(cl UnitClass, idx int) {
		if used[cl] == nil {
			used[cl] = map[int]bool{}
		}
		used[cl][idx] = true
	}
	for _, cn := range c.conns {
		if cl, unit, _, ok := c.pm.DecodeOutput(cn.src); ok {
			mark(cl, unit)
		}
		if cl, unit, _, ok := c.pm.DecodeInput(cn.dst); ok {
			mark(cl, unit)
		}
	}
	u.IntegratorsUsed = len(used[ClassIntegrator])
	u.MultipliersUsed = len(used[ClassMultiplier])
	u.FanoutsUsed = len(used[ClassFanout])
	u.ADCsUsed = len(used[ClassADC])
	u.DACsUsed = len(used[ClassDAC])
	u.LUTsUsed = len(used[ClassLUT])
	return u
}

// Block returns the live circuit block of a unit (nil before commit).
func (c *Chip) Block(class UnitClass, unit int) *circuit.Block {
	if c.blocks == nil || unit < 0 || unit >= len(c.blocks[class]) {
		return nil
	}
	return c.blocks[class][unit]
}
