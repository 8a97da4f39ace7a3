package circuit

import (
	"fmt"
	"math"
)

// Lane-batched execution: one Simulator advances B independent instances
// of the same datapath in lockstep. All lanes share the netlist topology,
// LUT tables, trims, and mismatch — they model one physical chip solving
// B right-hand sides of the same system — while DAC levels, multiplier
// gains, and integrator initial conditions may differ per lane. State and
// net values are laid out lane-contiguous ([net][lane]), so each fused
// segment's store/add pass streams B lanes per 24-byte op record and the
// per-op dispatch, bounds checks, and fold lookups are amortised across
// the batch.
//
// Identity guarantee: lane l's trajectory is bit-identical to a scalar
// fused-engine Simulator configured with lane l's parameters. Every
// floating-point expression, summation order, quantization, latch
// threshold, and the automatic step-size derivation are evaluated
// per-lane with exactly the scalar code's shapes; lanes never mix values.
// Because each lane's programmed gains imply its own stability bound,
// lanes carry their own dt — RunLanes advances every lane by the same
// analog duration, not the same step count. The differential tests in
// lanes_test.go and FuzzLaneEquivalence enforce this.

// LaneWidth is the one lane width: a Simulator in lane mode advances
// exactly this many lanes, the AVX2 kernels' four 4-wide vectors, and
// the chip's setLanes accepts it or 0. Narrower batches run scalar
// (core.Session.solvePass); wider ones run in waves of this width.
const LaneWidth = 16

// LaneKernels reports whether this CPU runs the AVX2 lane kernels. Without
// them a lane wave walks the pure-Go lane loops, which cost more per
// right-hand side than scalar runs, so the chip refuses lane mode there.
func LaneKernels() bool { return laneAVX }

// laneProg holds the per-lane folded constants of a compiled program:
// the lane-indexed counterparts of program.gain/cval/craw, refreshed by
// refoldLanes exactly as refold refreshes the scalar fold. Ops whose
// constants cannot vary per lane (fanout branches, varmuls, LUTs) carry
// B copies of the shared value so the hot loops index uniformly.
type laneProg struct {
	lanes int
	gain  []float64 // [op*B+lane]; holds the saturated cval for opConst
	craw  []float64 // [op*B+lane]; opConst raw value (record-mode latches)
	// foldGen increments on every refoldLanes; the fused engine re-syncs
	// its materialised lane constants when it observes a new generation.
	foldGen uint64
}

// laneIdx addresses a per-block lane slot.
func (s *Simulator) laneIdx(id, lane int) int { return id*s.lanes + lane }

// ConfigureLanes switches the simulator into lane-batched mode, LaneWidth
// lanes wide, or back to scalar mode. Every lane's parameters are
// (re)initialised from the blocks' current scalar parameters; use
// SetLaneGain/SetLaneLevel/SetLaneIC to diverge individual lanes, then
// Reset to load initial conditions. Lane mode requires the fused engine
// and a noise-free configuration (per-lane noise streams would break the
// identity guarantee).
func (s *Simulator) ConfigureLanes(on bool) error {
	if !on {
		s.lanes = 0
		s.resizeLatches()
		// Keep lprog (and its foldGen) across teardown: the fused engine
		// decides whether its materialised lane constants are current by
		// comparing generations, so the counter must stay monotonic for
		// the simulator's lifetime. A fresh laneProg restarting at zero
		// could collide with the last synced generation and leave the
		// kernel running a previous lane program's folded constants.
		if s.lprog != nil {
			s.lprog.lanes = 0
		}
		return nil
	}
	if s.EngineSelected() != EngineFused {
		return fmt.Errorf("circuit: lane batching requires the fused engine (have %v)", s.EngineSelected())
	}
	if s.nl.cfg.NoiseSigma > 0 {
		return fmt.Errorf("circuit: lane batching requires a noise-free configuration")
	}
	lanes := LaneWidth
	s.lanes = lanes
	nb := len(s.nl.blocks)
	ni := len(s.integrators)
	s.laneGainP = resizeF(s.laneGainP, nb*lanes)
	s.laneLevel = resizeF(s.laneLevel, nb*lanes)
	s.laneIC = resizeF(s.laneIC, nb*lanes)
	for _, b := range s.nl.blocks {
		for l := 0; l < lanes; l++ {
			i := s.laneIdx(b.ID, l)
			s.laneGainP[i] = b.Gain
			s.laneLevel[i] = b.Level
			s.laneIC[i] = b.IC
		}
	}
	s.laneState = resizeF(s.laneState, ni*lanes)
	s.laneNets = resizeF(s.laneNets, len(s.netVals)*lanes) // sink net included
	for i := range s.laneScratch {
		s.laneScratch[i] = resizeF(s.laneScratch[i], ni*lanes)
	}
	s.laneTime = resizeF(s.laneTime, lanes)
	s.laneDt = resizeF(s.laneDt, lanes)
	s.laneHs = resizeF(s.laneHs, lanes)
	s.laneCs = resizeF(s.laneCs, lanes)
	s.laneTs = resizeF(s.laneTs, lanes)
	s.laneSteps = resizeI64(s.laneSteps, lanes)
	s.laneWhole = resizeI64(s.laneWhole, lanes)
	s.laneActive = resizeBool(s.laneActive, lanes)
	s.resizeLatches()
	if len(s.laneIntIDs) != ni {
		s.laneIntIDs = make([]int32, ni)
		for i, b := range s.integrators {
			s.laneIntIDs[i] = int32(b.ID)
		}
	}
	if s.lprog == nil {
		s.lprog = &laneProg{}
	}
	s.lprog.lanes = lanes
	n := len(s.prog.kind) * lanes
	s.lprog.gain = resizeF(s.lprog.gain, n)
	s.lprog.craw = resizeF(s.lprog.craw, n)
	s.ReloadLaneParams()
	s.ReloadLaneSteps()
	return nil
}

// Lanes returns the configured lane width (0 in scalar mode).
func (s *Simulator) Lanes() int { return s.lanes }

// resizeLatches lays the latch store out for the current lane width and
// clears it: a latch from the previous layout would land in another
// block's slot.
func (s *Simulator) resizeLatches() {
	n := len(s.nl.blocks) * s.latchB()
	s.over = resizeBool(s.over, n)
	s.peak = resizeF(s.peak, n)
	s.ClearExceptions()
}

func resizeF(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func resizeI64(b []int64, n int) []int64 {
	if cap(b) < n {
		return make([]int64, n)
	}
	return b[:n]
}

func resizeBool(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	return b[:n]
}

func (s *Simulator) checkLane(lane int) error {
	if s.lanes == 0 {
		return fmt.Errorf("circuit: simulator is not in lane mode")
	}
	if lane < 0 || lane >= s.lanes {
		return fmt.Errorf("circuit: lane %d outside 0..%d", lane, s.lanes-1)
	}
	return nil
}

// SetLaneGain overrides a multiplier's constant gain on one lane.
func (s *Simulator) SetLaneGain(b *Block, lane int, gain float64) error {
	if err := s.checkLane(lane); err != nil {
		return err
	}
	if b.Kind != KindMultiplier || b.varMode {
		return fmt.Errorf("circuit: block %d is not a constant-gain multiplier", b.ID)
	}
	s.laneGainP[s.laneIdx(b.ID, lane)] = gain
	s.laneFoldDirty = true
	return nil
}

// SetLaneLevel overrides a DAC's constant level on one lane.
func (s *Simulator) SetLaneLevel(b *Block, lane int, level float64) error {
	if err := s.checkLane(lane); err != nil {
		return err
	}
	if b.Kind != KindDAC {
		return fmt.Errorf("circuit: block %d is not a DAC", b.ID)
	}
	s.laneLevel[s.laneIdx(b.ID, lane)] = level
	s.laneFoldDirty = true
	return nil
}

// SetLaneIC overrides an integrator's initial condition on one lane
// (loaded at the next Reset).
func (s *Simulator) SetLaneIC(b *Block, lane int, ic float64) error {
	if err := s.checkLane(lane); err != nil {
		return err
	}
	if b.Kind != KindIntegrator || b.stateIdx < 0 {
		return fmt.Errorf("circuit: block %d is not a compiled integrator", b.ID)
	}
	s.laneIC[s.laneIdx(b.ID, lane)] = ic
	return nil
}

// ReloadLaneParams refreshes the per-lane folded constants from the lane
// parameter tables and the blocks' effective trim state — refold,
// evaluated per lane with identical expressions.
func (s *Simulator) ReloadLaneParams() {
	if s.lanes == 0 {
		return
	}
	p, lp := s.prog, s.lprog
	B := s.lanes
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	for i, b := range p.blk {
		off, gf := s.effOff[b.ID], s.effGain[b.ID]
		switch p.kind[i] {
		case opConst:
			for l := 0; l < B; l++ {
				raw := gf*quantize(s.laneLevel[s.laneIdx(b.ID, l)], fs, s.nl.cfg.DACBits) + off
				lp.craw[i*B+l] = raw
				lp.gain[i*B+l] = softSat(raw, fs, sat)
			}
		case opState, opInput:
			// No folded constants.
		case opLinear:
			if b.Kind == KindMultiplier {
				for l := 0; l < B; l++ {
					lp.gain[i*B+l] = gf * s.laneGainP[s.laneIdx(b.ID, l)]
				}
			} else { // fanout branch: physical, shared across lanes
				for l := 0; l < B; l++ {
					lp.gain[i*B+l] = gf
				}
			}
		case opVarMul, opLUT:
			for l := 0; l < B; l++ {
				lp.gain[i*B+l] = gf
			}
		}
	}
	lp.foldGen++
	s.laneFoldDirty = false
	s.laneValsDirty = true
}

// ReloadLaneSteps recomputes every lane's automatic integration step from
// its current gains (the lane counterpart of ReloadStep).
func (s *Simulator) ReloadLaneSteps() {
	for l := 0; l < s.lanes; l++ {
		if dt := s.autoStep(l); dt > 0 {
			s.laneDt[l] = dt
		}
	}
}

// LaneDt returns lane l's integration step.
func (s *Simulator) LaneDt(lane int) float64 { return s.laneDt[lane] }

// LaneTime returns lane l's simulated (analog) time in seconds.
func (s *Simulator) LaneTime(lane int) float64 { return s.laneTime[lane] }

// LaneSteps returns the RK4 steps lane l has taken since Reset.
func (s *Simulator) LaneSteps(lane int) int64 { return s.laneSteps[lane] }

// resetLanes is Reset's lane-mode body: per-lane initial conditions and
// times, then one recording evaluation (Reset has cleared the latches).
func (s *Simulator) resetLanes() {
	B := s.lanes
	for i, b := range s.integrators {
		for l := 0; l < B; l++ {
			s.laneState[i*B+l] = s.laneIC[s.laneIdx(b.ID, l)]
		}
	}
	for l := 0; l < B; l++ {
		s.laneTime[l] = 0
		s.laneSteps[l] = 0
		s.laneTs[l] = 0
	}
	// The fused record pass stores into every driven net but never touches
	// undriven ones; clear them all so a reset always reads from zero.
	clear(s.laneNets)
	if s.laneFoldDirty {
		s.ReloadLaneParams()
	}
	s.evalLanes(s.laneTs, s.laneState, true)
	s.laneValsDirty = false
}

// evalLanes computes all lanes' net values for the given lane states at
// the given per-lane times. Record mode latches per-lane overflow and
// peak trackers; trial stages run the fused lane kernel.
func (s *Simulator) evalLanes(ts, state []float64, record bool) {
	if record {
		s.fused.evalLanesRecord(s, ts, state)
		return
	}
	s.fused.evalLanes(s, ts, state)
}

// stageLanes computes per-lane integrator derivatives into dst and fuses
// the RK4 trial-state update tmp = state + c_l·d with per-lane step
// fractions. cs[l] is lane l's c (h_l/2 or h_l); inactive lanes carry
// c = 0 — their trial values are never observed (the combine skips them
// and the post-step recording evaluation recomputes their nets from the
// untouched state).
func (s *Simulator) stageLanes(dst, tmp, cs []float64) {
	p := s.prog
	nv := s.laneNets
	k := s.k
	B := s.lanes
	i0 := 0
	if laneAVX && len(p.intNet) > 0 && len(nv) > 0 {
		var tp, cp *float64
		if tmp != nil {
			tp, cp = &tmp[0], &cs[0]
		}
		laneStage16(len(p.intNet), &p.intNet[0], &p.intGain[0], &p.intOff[0],
			&nv[0], &dst[0], tp, &s.laneState[0], cp, k)
		i0 = len(p.intNet)
	}
	for i := i0; i < len(p.intNet); i++ {
		g, off := p.intGain[i], p.intOff[i]
		n := p.intNet[i]
		for l := 0; l < B; l++ {
			in := 0.0
			if n >= 0 {
				in = nv[int(n)*B+l]
			}
			d := k * (g*in + off)
			dst[i*B+l] = d
			if tmp != nil {
				tmp[i*B+l] = s.laneState[i*B+l] + cs[l]*d
			}
		}
	}
}

// stepLanesH advances every active lane by its own step hs[l]: the exact
// scalar RK4 step body with an inner lane loop. Inactive lanes (their
// tick budget for the current run is spent) keep their state and time;
// the shared evaluations recompute their unchanged net values, which is
// latch-idempotent.
func (s *Simulator) stepLanesH(hs []float64, active []bool) {
	B := s.lanes
	k1 := s.laneScratch[0]
	k2 := s.laneScratch[1]
	k3 := s.laneScratch[2]
	k4 := s.laneScratch[3]
	tmp := s.laneScratch[4]
	cs := s.laneCs
	ts := s.laneTs
	if s.laneValsDirty {
		for l := 0; l < B; l++ {
			ts[l] = s.laneTime[l]
		}
		s.evalLanes(ts, s.laneState, false)
		s.laneValsDirty = false
	}
	for l := 0; l < B; l++ {
		cs[l] = hs[l] / 2
		ts[l] = s.laneTime[l] + hs[l]/2
	}
	s.stageLanes(k1, tmp, cs)
	s.evalLanes(ts, tmp, false)
	s.stageLanes(k2, tmp, cs)
	s.evalLanes(ts, tmp, false)
	for l := 0; l < B; l++ {
		cs[l] = hs[l]
		ts[l] = s.laneTime[l] + hs[l]
	}
	s.stageLanes(k3, tmp, cs)
	s.evalLanes(ts, tmp, false)
	s.stageLanes(k4, nil, nil)
	fs, sat := s.nl.cfg.FullScale, s.nl.cfg.SatLevel
	ovThresh := fs * (1 + 1e-12)
	// With every lane active the AVX2 kernel combines; an integrator with
	// a lane beyond the overflow threshold runs alone in the Go loop
	// (overflow latch + soft saturation), and the kernel resumes at the
	// next.
	avx := laneAVX
	for l := 0; avx && l < B; l++ {
		avx = active[l]
	}
	n := len(s.integrators)
	for i := 0; i < n; i++ {
		if avx {
			if i += laneCombine16(n-i, &s.laneIntIDs[i], &s.laneState[i*B],
				&k1[i*B], &k2[i*B], &k3[i*B], &k4[i*B], &hs[0], &s.peak[0], ovThresh); i == n {
				break
			}
		}
		b := s.integrators[i]
		for l := 0; l < B; l++ {
			if !active[l] {
				continue
			}
			si := i*B + l
			x := s.laneState[si] + hs[l]/6*(k1[si]+2*k2[si]+2*k3[si]+k4[si])
			li := b.ID*B + l
			if math.Abs(x) > ovThresh {
				s.over[li] = true
				x = softSat(x, fs, sat)
			}
			if a := math.Abs(x); a > s.peak[li] {
				s.peak[li] = a
			}
			s.laneState[si] = x
		}
	}
	for l := 0; l < B; l++ {
		if active[l] {
			s.laneTime[l] += hs[l]
			s.laneSteps[l]++
		}
		ts[l] = s.laneTime[l]
	}
	s.evalLanes(ts, s.laneState, true)
}

// RunLanes advances every lane by exactly duration seconds of analog
// time: whole steps of the lane's own dt plus one shorter remainder
// step, with the same floor epsilon as the scalar Run. Lanes whose step
// budget is spent sit out the remaining lockstep ticks, so each lane's
// step sequence — sizes and count — is bit-identical to a scalar Run on
// that lane's parameters.
func (s *Simulator) RunLanes(duration float64) error {
	if s.lanes == 0 {
		return fmt.Errorf("circuit: simulator is not in lane mode")
	}
	B := s.lanes
	if s.laneFoldDirty {
		s.ReloadLaneParams()
	}
	var maxWhole int64
	for l := 0; l < B; l++ {
		w := int64(math.Floor(duration/s.laneDt[l] + 1e-9))
		s.laneWhole[l] = w
		if w > maxWhole {
			maxWhole = w
		}
	}
	hs := s.laneHs
	for tick := int64(0); tick < maxWhole; tick++ {
		for l := 0; l < B; l++ {
			s.laneActive[l] = tick < s.laneWhole[l]
			if s.laneActive[l] {
				hs[l] = s.laneDt[l]
			} else {
				hs[l] = 0
			}
		}
		s.stepLanesH(hs, s.laneActive)
	}
	any := false
	for l := 0; l < B; l++ {
		rem := duration - float64(s.laneWhole[l])*s.laneDt[l]
		if rem > s.laneDt[l]*1e-9 {
			s.laneActive[l] = true
			hs[l] = rem
			any = true
		} else {
			s.laneActive[l] = false
			hs[l] = 0
		}
	}
	if any {
		s.stepLanesH(hs, s.laneActive)
	}
	return nil
}

// ReadADCLane samples the net observed by an ADC block on one lane:
// ReadADC evaluated against the lane's net value and latching the lane's
// overflow exception.
func (s *Simulator) ReadADCLane(b *Block, lane int) (code int, value float64, err error) {
	if err := s.checkLane(lane); err != nil {
		return 0, 0, err
	}
	if b.Kind != KindADC {
		return 0, 0, fmt.Errorf("circuit: block %d is not an ADC", b.ID)
	}
	fs := s.nl.cfg.FullScale
	v := s.laneNets[int(b.in[0])*s.lanes+lane]
	if math.Abs(v) > fs*(1+1e-12) {
		s.over[b.ID*s.lanes+lane] = true
	}
	q := quantize(v, fs, s.nl.cfg.ADCBits)
	levels := float64(int64(1)<<uint(s.nl.cfg.ADCBits)) - 1
	code = int(math.Round((q + fs) / (2 * fs) * levels))
	return code, q, nil
}

// LaneNetValue returns the value on a net for one lane as of the last
// completed lane step.
func (s *Simulator) LaneNetValue(n Net, lane int) float64 {
	return s.laneNets[:s.nl.nets*s.lanes][int(n)*s.lanes+lane]
}
