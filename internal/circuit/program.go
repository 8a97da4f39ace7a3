package circuit

// Op-stream lowering: NewSimulator lowers the netlist into a flat
// struct-of-arrays op stream, the program the fused kernel (fused.go)
// materialises and walks. The lowering folds each block's effective
// gain/offset (effGain·Gain, effOff) into per-op constants and
// pre-quantizes DAC levels.
//
// It also classifies every op once. An op is in the cone when an
// integrator input reads its output net, directly or through other ops;
// every other op is record-only (ADC taps, unloaded outputs, unprogrammed
// LUTs, idle inputs, unused multipliers). The three non-physical RK4
// trial stages only need the integrator inputs, so they run the cone;
// the one physical post-step evaluation runs the cone and then the
// record-only ops, tracking every op's peak as it goes. Ops whose block
// output is unconnected drive one scratch sink net past the last real
// net, so they run in the same loops as every other op and no reader
// ever sees them.
//
// Equivalence guarantee: the program computes every net value with the
// exact same floating-point expressions, in the exact same summation
// order, as the reference block-walk interpreter (evalReference). The op
// stream keeps source ops in block order and combinational ops in the
// topological order computed by compile(). Every driver of a net shares
// the net's class, so splitting the stream in two never reorders a net's
// sum. The differential tests in program_test.go and fused_test.go
// enforce bit-identical results.

// opcode discriminates op kinds.
type opcode uint8

const (
	// opConst emits a pre-folded, pre-quantized constant (a DAC).
	opConst opcode = iota
	// opState emits an integrator's state slot.
	opState
	// opInput emits an external stimulus sample (read live through the
	// block pointer: the chip layer rewires Stimulus mid-run).
	opInput
	// opLinear emits gain·net[in0] + off (constant-gain multiplier or one
	// fanout branch).
	opLinear
	// opVarMul emits gain·(net[in0]·net[in1]/fs) + off.
	opVarMul
	// opLUT emits gain·table[index(net[in0])] + off.
	opLUT
)

// program is the struct-of-arrays lowering of one netlist. Topology
// (kind/in/out/blk/tab) is fixed at lower time; the folded constants
// (gain/off/craw/cval) are refreshed by refold whenever trim or mismatch
// changes (ReloadBlockParams).
type program struct {
	kind []opcode
	in0  []int32 // net index, or state slot for opState
	in1  []int32 // second net for opVarMul
	out  []int32 // driven net; the sink net for an unconnected output
	gain []float64
	off  []float64
	craw []float64   // opConst raw (pre-saturation) value
	cval []float64   // opConst saturated value
	tab  [][]float64 // opLUT table (shared with the block)
	blk  []*Block    // owning block: stimulus, tables, latch slot

	// first[i] marks the first op in stream order driving out[i]. The
	// fused engine stores (0 + v) there instead of accumulating, which is
	// what lets it skip the netVals clear.
	first []bool

	// cone[i] marks op i as feeding an integrator input (see classify);
	// the rest are record-only.
	cone []bool

	// foldGen increments on every refold; the fused engine re-syncs its
	// materialised copy of the folded constants when it observes a new
	// generation.
	foldGen uint64

	// Integrator derivative stream: du/dt = k·(intGain·net[intNet] + intOff)
	// per state slot, with intNet = -1 for a grounded input.
	intNet  []int32
	intGain []float64
	intOff  []float64
}

// lower builds the op stream for the simulator's netlist. Must run after
// compile() (it consumes the topological order); constants are filled in by
// the first refold. sink is the scratch net unconnected outputs drive.
func (s *Simulator) lower(sink Net) *program {
	n := 0 // ops: one per source and per multiplier or LUT, one per fanout branch
	for _, b := range s.nl.blocks {
		switch b.Kind {
		case KindIntegrator, KindDAC, KindInput:
			n++
		}
	}
	for _, b := range s.order {
		n += len(b.out)
	}
	p := &program{
		kind: make([]opcode, 0, n), in0: make([]int32, 0, n), in1: make([]int32, 0, n),
		out: make([]int32, 0, n), blk: make([]*Block, 0, n), tab: make([][]float64, 0, n),
		gain: make([]float64, 0, n), off: make([]float64, 0, n), craw: make([]float64, 0, n),
		cval: make([]float64, 0, n),
	}
	emit := func(kind opcode, b *Block, in0, in1 int32, out Net) {
		if out == noNet {
			out = sink
		}
		p.kind = append(p.kind, kind)
		p.in0 = append(p.in0, in0)
		p.in1 = append(p.in1, in1)
		p.out = append(p.out, int32(out))
		p.blk = append(p.blk, b)
		var tab []float64
		if kind == opLUT {
			tab = b.Table
		}
		p.tab = append(p.tab, tab)
		p.gain = append(p.gain, 0)
		p.off = append(p.off, 0)
		p.craw = append(p.craw, 0)
		p.cval = append(p.cval, 0)
	}
	// Sources in block order, then combinational blocks in topological
	// order — the same emission order as the reference interpreter, so
	// net sums accumulate bit-identically.
	for _, b := range s.nl.blocks {
		switch b.Kind {
		case KindIntegrator:
			emit(opState, b, int32(b.stateIdx), -1, b.out[0])
		case KindDAC:
			emit(opConst, b, -1, -1, b.out[0])
		case KindInput:
			emit(opInput, b, -1, -1, b.out[0])
		}
	}
	for _, b := range s.order {
		switch b.Kind {
		case KindMultiplier:
			if b.varMode {
				emit(opVarMul, b, int32(b.in[0]), int32(b.in[1]), b.out[0])
			} else {
				emit(opLinear, b, int32(b.in[0]), -1, b.out[0])
			}
		case KindFanout:
			for _, n := range b.out {
				emit(opLinear, b, int32(b.in[0]), -1, n)
			}
		case KindLUT:
			emit(opLUT, b, int32(b.in[0]), -1, b.out[0])
		}
	}

	// Integrator derivative stream, in state-slot order.
	p.intNet = make([]int32, len(s.integrators))
	p.intGain = make([]float64, len(s.integrators))
	p.intOff = make([]float64, len(s.integrators))
	for i, b := range s.integrators {
		p.intNet[i] = int32(b.in[0]) // noNet is already -1
	}

	// First-driver flags, in stream order.
	p.first = make([]bool, len(p.kind))
	seen := make([]bool, sink+1)
	for i, out := range p.out {
		p.first[i] = !seen[out]
		seen[out] = true
	}
	p.classify(int(sink) + 1)
	return p
}

// classify marks the cone: a net is needed when an integrator input or a
// cone op reads it, and an op is in the cone when its output net is
// needed. One reverse walk settles both, because every reader of a net
// follows all of the net's drivers in the stream (sources come first,
// then combinational ops in topological order). All drivers of a needed
// net join the cone, so every net is driven by one class only.
func (p *program) classify(nNets int) {
	needed := make([]bool, nNets)
	for _, n := range p.intNet {
		if n >= 0 {
			needed[n] = true
		}
	}
	p.cone = make([]bool, len(p.kind))
	for i := len(p.kind) - 1; i >= 0; i-- {
		if !needed[p.out[i]] {
			continue
		}
		p.cone[i] = true
		switch p.kind[i] {
		case opVarMul:
			needed[p.in1[i]] = true
			needed[p.in0[i]] = true
		case opLinear, opLUT:
			needed[p.in0[i]] = true
		}
	}
}

// refold refreshes every folded constant from the blocks' current
// parameters and effective trim state. Called by ReloadBlockParams (and so
// by Reset), keeping the op stream in sync with calibration.
func (p *program) refold(s *Simulator) {
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	for i, b := range p.blk {
		off, gf := s.effOff[b.ID], s.effGain[b.ID]
		switch p.kind[i] {
		case opConst:
			// gf·quantize(level) + off, exactly as the reference computes
			// per eval; quantization happens once here instead.
			raw := gf*quantize(b.Level, fs, s.nl.cfg.DACBits) + off
			p.craw[i] = raw
			p.cval[i] = softSat(raw, fs, sat)
		case opState, opInput:
			// No folded constants; integrators and inputs emit raw values.
		case opLinear:
			if b.Kind == KindMultiplier {
				// (gf·Gain)·x + off ≡ gf·Gain·x + off: Go evaluates the
				// reference's product left-to-right, so folding the two
				// leading factors preserves bit-identity.
				p.gain[i] = gf * b.Gain
			} else { // fanout branch
				p.gain[i] = gf
			}
			p.off[i] = off
		case opVarMul, opLUT:
			p.gain[i] = gf
			p.off[i] = off
		}
		if p.kind[i] == opLUT {
			p.tab[i] = b.Table
		}
	}
	for i, b := range s.integrators {
		p.intOff[i], p.intGain[i] = s.effOff[b.ID], s.effGain[b.ID]
	}
	p.foldGen++
}

// stage computes integrator derivatives from the current net values into
// dst and, when tmp is non-nil, fuses the RK4 trial-state update
// tmp = state + c·dst into the same pass.
func (p *program) stage(s *Simulator, dst, tmp []float64, c float64) {
	nv := s.netVals
	k := s.k
	for i := range dst {
		in := 0.0
		if n := p.intNet[i]; n >= 0 {
			in = nv[n]
		}
		d := k * (p.intGain[i]*in + p.intOff[i])
		dst[i] = d
		if tmp != nil {
			tmp[i] = s.state[i] + c*d
		}
	}
}
