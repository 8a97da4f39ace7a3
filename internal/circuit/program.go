package circuit

import "math"

// Op-stream lowering: NewSimulator lowers the netlist into a flat
// struct-of-arrays op stream, the program both the fused kernel
// (fused.go) and the record pass below walk. The lowering folds each
// block's effective gain/offset (effGain·Gain, effOff) into per-op
// constants, pre-quantizes DAC levels, and keeps the per-stage
// peak/overflow bookkeeping out of the trial stages: the three
// non-physical RK4 stages run the fused kernel, and only the one physical
// post-step evaluation runs evalRecord.
//
// Equivalence guarantee: the program computes every net value with the
// exact same floating-point expressions, in the exact same summation
// order, as the reference block-walk interpreter (evalReference). The op
// stream keeps source ops in block order and combinational ops in the
// topological order computed by compile(); ops that drive no net are moved
// to the tail of the stream (they add nothing to any net, and peak/overflow
// latching is order-independent) so the fused kernel can skip them. The
// differential tests in program_test.go and fused_test.go enforce
// bit-identical results.

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
	out  []int32 // driven net; -1 drives nothing
	gain []float64
	off  []float64
	craw []float64   // opConst raw (pre-saturation) value
	cval []float64   // opConst saturated value
	tab  [][]float64 // opLUT table (shared with the block)
	blk  []*Block    // owning block, for record-mode latches

	// nFast is the count of leading ops that drive a net; the fused
	// kernel stops there, evalRecord walks the whole stream.
	nFast int

	// first[i] marks the first op in stream order driving out[i]. The
	// fused engine stores (0 + v) there instead of accumulating, which is
	// what lets it skip the netVals clear.
	first []bool

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
// the first refold.
func (s *Simulator) lower() *program {
	p := &program{}
	emit := func(kind opcode, b *Block, in0, in1 int32, out Net) {
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
	p.partitionSilent()

	// Integrator derivative stream, in state-slot order.
	p.intNet = make([]int32, len(s.integrators))
	p.intGain = make([]float64, len(s.integrators))
	p.intOff = make([]float64, len(s.integrators))
	for i, b := range s.integrators {
		p.intNet[i] = int32(b.in[0]) // noNet is already -1
	}
	return p
}

// partitionSilent stably moves ops that drive no net to the tail of the
// stream. Silent ops only read nets, so any position after their producers
// is topologically valid, and their only effect (peak/overflow latching in
// record mode) is order-independent.
func (p *program) partitionSilent() {
	n := len(p.kind)
	order := make([]int, 0, n)
	var silent []int
	for i := 0; i < n; i++ {
		if p.out[i] >= 0 {
			order = append(order, i)
		} else {
			silent = append(silent, i)
		}
	}
	p.nFast = len(order)
	order = append(order, silent...)
	p.kind = permuteOpcodes(p.kind, order)
	p.in0 = permuteInt32(p.in0, order)
	p.in1 = permuteInt32(p.in1, order)
	p.out = permuteInt32(p.out, order)
	p.gain = permuteFloat64(p.gain, order)
	p.off = permuteFloat64(p.off, order)
	p.craw = permuteFloat64(p.craw, order)
	p.cval = permuteFloat64(p.cval, order)
	p.tab = permuteTables(p.tab, order)
	p.blk = permuteBlocks(p.blk, order)

	// First-driver flags over the final stream order (only the fast
	// region matters: silent ops drive nothing).
	p.first = make([]bool, n)
	seen := make(map[int32]bool, p.nFast)
	for i := 0; i < p.nFast; i++ {
		if !seen[p.out[i]] {
			p.first[i] = true
			seen[p.out[i]] = true
		}
	}
}

func permuteOpcodes(src []opcode, order []int) []opcode {
	dst := make([]opcode, len(src))
	for i, j := range order {
		dst[i] = src[j]
	}
	return dst
}

func permuteInt32(src []int32, order []int) []int32 {
	dst := make([]int32, len(src))
	for i, j := range order {
		dst[i] = src[j]
	}
	return dst
}

func permuteFloat64(src []float64, order []int) []float64 {
	dst := make([]float64, len(src))
	for i, j := range order {
		dst[i] = src[j]
	}
	return dst
}

func permuteTables(src [][]float64, order []int) [][]float64 {
	dst := make([][]float64, len(src))
	for i, j := range order {
		dst[i] = src[j]
	}
	return dst
}

func permuteBlocks(src []*Block, order []int) []*Block {
	dst := make([]*Block, len(src))
	for i, j := range order {
		dst[i] = src[j]
	}
	return dst
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

// evalRecord computes all net values for the given state at time t plus
// the physical-state bookkeeping: overflow exception latching and peak
// tracking, including ops that drive no net (an unloaded output still
// clips and still latches its comparator).
func (p *program) evalRecord(s *Simulator, t float64, state []float64) {
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	ovThresh := fs * (1 + 1e-12)
	nv := s.netVals
	for i := range nv {
		nv[i] = 0
	}
	for i := range p.kind {
		var raw float64
		switch p.kind[i] {
		case opConst:
			raw = p.craw[i]
		case opState:
			raw = state[p.in0[i]]
		case opInput:
			if fn := p.blk[i].Stimulus; fn != nil {
				raw = fn(t)
			}
		case opLinear:
			raw = p.gain[i]*nv[p.in0[i]] + p.off[i]
		case opVarMul:
			raw = p.gain[i]*(nv[p.in0[i]]*nv[p.in1[i]]/fs) + p.off[i]
		case opLUT:
			tab := p.tab[i]
			idx := lutIndex(nv[p.in0[i]], fs, len(tab))
			raw = p.gain[i]*tab[idx] + p.off[i]
		}
		b := p.blk[i]
		if a := math.Abs(raw); a > b.PeakAbs {
			b.PeakAbs = a
		}
		if math.Abs(raw) > ovThresh {
			b.Overflowed = true
		}
		v := raw
		if v > fs {
			v = fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
		} else if v < -fs {
			v = -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
		}
		if out := p.out[i]; out >= 0 {
			nv[out] += v
		}
	}
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
