package circuit

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

// ErrAlgebraicLoop is returned when combinational blocks (multipliers,
// fanouts, LUTs) form a cycle that contains no integrator. Physical analog
// computers forbid such loops too: every feedback path must pass through an
// integrator.
var ErrAlgebraicLoop = errors.New("circuit: algebraic loop (feedback path without an integrator)")

// Probe records the waveform on a net while the simulator runs: the digital
// twin of attaching a scope to one of the chip's analog output pins.
type Probe struct {
	Net   Net
	Every int // record every Every-th step
	Times []float64
	Vals  []float64
}

// Simulator integrates a Netlist's dynamics in continuous time (fixed-step
// RK4 standing in for the physics). One Simulator corresponds to one
// powered-up chip run: execStart ≈ Reset+Run, execStop ≈ stopping time.
type Simulator struct {
	nl          *Netlist
	order       []*Block // combinational evaluation order
	integrators []*Block
	state       []float64 // one slot per integrator
	netVals     []float64
	scratch     [5][]float64 // RK4 stage storage
	time        float64
	dt          float64
	k           float64 // 2π · bandwidth
	noise       *rand.Rand
	steps       int64
	probes      []*Probe
	// Cached effective offset/gain per block (trim state is fixed while
	// a committed datapath runs; see ReloadBlockParams).
	effOff  []float64
	effGain []float64
	// prog is the op-stream lowering of the netlist (see program.go);
	// fused is its segmented view (see fused.go). engine selects which
	// kernel eval dispatches to.
	prog   *program
	fused  *fusedProg
	engine Engine
	// valsDirty marks netVals stale relative to (time, state): stepH can
	// otherwise reuse the post-step evaluation as the next step's k1 stage.
	valsDirty bool
	// gainSum is autoStep's per-net gain buffer.
	gainSum []float64

	// Latch store: one peak tracker and one overflow latch per block and
	// lane, slot [id*B+lane] with B = max(lanes, 1); ClearExceptions (and
	// so Reset) zeroes it. Every engine's record pass folds each op's
	// |raw| into peak. A block's overflow exception is over || peak past
	// the overflow threshold (see overflowed), so the record passes never
	// write over: it holds only the latches no peak records, the
	// integrator combine's saturation (whose clipped peak may sit just
	// under the threshold) and the ADC reads.
	over []bool
	peak []float64

	// Lane-batched mode (see lanes.go): lanes is the batch width B (0 in
	// scalar mode). All lane buffers are lane-contiguous: slot [x*B+l]
	// holds lane l's copy of entity x.
	lanes         int
	lprog         *laneProg
	laneGainP     []float64 // per-lane multiplier gains    [blockID*B+l]
	laneLevel     []float64 // per-lane DAC levels          [blockID*B+l]
	laneIC        []float64 // per-lane initial conditions  [blockID*B+l]
	laneState     []float64 // per-lane integrator states   [stateIdx*B+l]
	laneNets      []float64 // per-lane net values          [net*B+l]
	laneScratch   [5][]float64
	laneTime      []float64
	laneDt        []float64
	laneSteps     []int64
	laneWhole     []int64
	laneActive    []bool
	laneHs        []float64 // per-lane step sizes for the current tick
	laneCs        []float64 // per-lane RK4 stage fractions
	laneTs        []float64 // per-lane evaluation times
	laneIntIDs    []int32   // integrator block IDs (AVX combine latch addressing)
	laneFoldDirty bool
	laneValsDirty bool
}

// NewSimulator compiles the netlist (detecting algebraic loops) and prepares
// a run. dt <= 0 selects an automatic step: a fraction of the fastest loop
// time constant implied by the programmed gains (see autoStep).
func NewSimulator(nl *Netlist, dt float64) (*Simulator, error) {
	// netVals carries one scratch sink net past the last real net: ops
	// whose output is unconnected drive it, and NetValue never reads it.
	s := &Simulator{
		nl:      nl,
		netVals: make([]float64, nl.nets+1),
		gainSum: make([]float64, nl.nets),
		over:    make([]bool, len(nl.blocks)),
		peak:    make([]float64, len(nl.blocks)),
		k:       2 * math.Pi * nl.cfg.Bandwidth,
	}
	if nl.cfg.NoiseSigma > 0 {
		s.noise = rand.New(rand.NewSource(nl.cfg.Seed + 0x9e3779b9))
	}
	for _, b := range nl.blocks {
		if b.Kind == KindIntegrator {
			b.stateIdx = len(s.integrators)
			s.integrators = append(s.integrators, b)
		}
	}
	s.state = make([]float64, len(s.integrators))
	for i := range s.scratch {
		s.scratch[i] = make([]float64, len(s.integrators))
	}
	if err := s.compile(); err != nil {
		return nil, err
	}
	s.prog = s.lower(Net(nl.nets))
	s.fused = s.prog.buildFused(len(s.netVals))
	s.ReloadBlockParams()
	if dt <= 0 {
		dt = s.autoStep(-1)
	}
	if dt <= 0 {
		return nil, fmt.Errorf("circuit: cannot choose a step for bandwidth %v", nl.cfg.Bandwidth)
	}
	s.dt = dt
	s.Reset()
	return s, nil
}

// compile topologically orders the combinational blocks. The ordering is
// deterministic: nodes are visited in block-instantiation order, never in
// map order, so two commits of the same configuration produce the same
// net-summation order — and therefore bit-identical trajectories — across
// processes. The parallel decomposition determinism guarantee (identical
// results regardless of worker count) rests on this.
func (s *Simulator) compile() error {
	type nodeInfo struct {
		block *Block
		deps  int
		succ  []int
	}
	nodes := make([]nodeInfo, 0, len(s.nl.blocks))
	for _, b := range s.nl.blocks {
		switch b.Kind {
		case KindMultiplier, KindFanout, KindLUT:
			nodes = append(nodes, nodeInfo{block: b})
		}
	}
	// netDrivenBy[n] lists combinational nodes driving net n.
	netDrivenBy := make([][]int, s.nl.nets)
	for i := range nodes {
		for _, n := range nodes[i].block.out {
			if n != noNet {
				netDrivenBy[n] = append(netDrivenBy[n], i)
			}
		}
	}
	for i := range nodes {
		b := nodes[i].block
		seen := map[int]bool{}
		for _, n := range b.in {
			if n == noNet {
				continue
			}
			for _, src := range netDrivenBy[n] {
				if src == i || seen[src] {
					// Self-loop: still a dependency cycle; record once.
					if src == i {
						nodes[i].deps++
						nodes[src].succ = append(nodes[src].succ, i)
					}
					continue
				}
				seen[src] = true
				nodes[i].deps++
				nodes[src].succ = append(nodes[src].succ, i)
			}
		}
	}
	queue := make([]int, 0, len(nodes)) // every node is queued once
	for i := range nodes {
		if nodes[i].deps == 0 {
			queue = append(queue, i)
		}
	}
	s.order = make([]*Block, 0, len(nodes))
	for len(queue) > 0 {
		i := queue[0]
		queue = queue[1:]
		s.order = append(s.order, nodes[i].block)
		for _, j := range nodes[i].succ {
			nodes[j].deps--
			if nodes[j].deps == 0 {
				queue = append(queue, j)
			}
		}
	}
	if len(s.order) != len(nodes) {
		return ErrAlgebraicLoop
	}
	return nil
}

// The automatic RK4 step is a fraction of 1/(k·G), where G is the largest
// summed |gain| into a net, so k·G bounds the loop eigenvalues. RK4 stays
// stable up to about |λ·dt| = 2.8.
//
// transientStep resolves the waveform: an undamped loop loses about
// (λ·dt)⁶/144 of its amplitude per step, under 1e-8 here.
//
// solveStep is for noise-free circuits read only at equilibrium
// (Config.SolveStep). A fixed point of the RK4 map is a state with zero
// derivative, so the equilibrium does not depend on the step. A noisy
// circuit keeps transientStep, because its noise is drawn once per step
// and a new step would draw new noise. At solveStep an undamped loop
// loses about 0.6% of its amplitude per step.
const (
	transientStep = 0.1
	solveStep     = 1.0
)

// autoStep derives the integration step from the programmed gains, lane
// l's gains in lane mode or the blocks' own with l < 0. Scalar and lane
// steps share this one walk, so a lane's dt is the dt a scalar simulator
// derives for that lane's parameters. It sums into the simulator's own
// buffer, so it allocates nothing.
func (s *Simulator) autoStep(l int) float64 {
	gainSum := s.gainSum
	clear(gainSum)
	for _, b := range s.nl.blocks {
		g := 1.0
		if b.Kind == KindMultiplier && !b.varMode {
			if l < 0 {
				g = math.Abs(b.Gain)
			} else {
				g = math.Abs(s.laneGainP[s.laneIdx(b.ID, l)])
			}
		}
		if b.Kind == KindADC {
			continue
		}
		for _, n := range b.out {
			if n != noNet {
				gainSum[n] += math.Max(g, 1e-9)
			}
		}
	}
	maxSum := 1.0
	for _, g := range gainSum {
		if g > maxSum {
			maxSum = g
		}
	}
	factor := transientStep
	if s.nl.cfg.SolveStep && s.nl.cfg.NoiseSigma == 0 {
		factor = solveStep
	}
	return factor / (s.k * maxSum)
}

// ReloadStep recomputes the automatic integration step from the blocks'
// current gains. The chip layer calls it after a parameter-only commit on
// a live simulator: new multiplier gains move the stability bound, and a
// full rebuild would have re-derived dt the same way.
func (s *Simulator) ReloadStep() {
	if dt := s.autoStep(-1); dt > 0 {
		s.dt = dt
	}
}

// ReloadBlockParams re-caches every block's effective offset and gain.
// Call after changing trim codes or mismatch on a live simulator (the
// chip's calibration path does); ordinary reconfiguration rebuilds the
// simulator and picks the values up automatically.
func (s *Simulator) ReloadBlockParams() {
	if cap(s.effOff) < len(s.nl.blocks) {
		s.effOff = make([]float64, len(s.nl.blocks))
		s.effGain = make([]float64, len(s.nl.blocks))
	}
	for i, b := range s.nl.blocks {
		s.effOff[i], s.effGain[i] = s.nl.effective(b)
	}
	if s.prog != nil {
		s.prog.refold(s)
	}
	s.valsDirty = true
	if s.lanes > 0 {
		// Effective offsets/gains feed the lane fold too.
		s.laneFoldDirty = true
	}
}

// Reset loads integrator initial conditions, rewinds time, and clears
// exception latches. Probes are kept but their histories cleared. In lane
// mode the latch store holds the lanes' latches and only the lanes are
// evaluated; the scalar net values stay stale (valsDirty) until a scalar
// step.
func (s *Simulator) Reset() {
	s.ReloadBlockParams() // pick up any trim changes since the last run
	for i, b := range s.integrators {
		s.state[i] = b.IC
	}
	s.time = 0
	s.steps = 0
	s.ClearExceptions()
	for _, p := range s.probes {
		p.Times = p.Times[:0]
		p.Vals = p.Vals[:0]
	}
	if s.lanes > 0 {
		s.resetLanes()
		return
	}
	s.eval(s.time, s.state, true)
	s.valsDirty = false
}

// Time returns the simulated (analog) time in seconds.
func (s *Simulator) Time() float64 { return s.time }

// Steps returns the number of RK4 steps taken since Reset.
func (s *Simulator) Steps() int64 { return s.steps }

// Dt returns the integration step.
func (s *Simulator) Dt() float64 { return s.dt }

// softSat models the compressive transfer characteristic past full scale:
// linear inside ±fs, smoothly saturating toward ±sat outside.
func softSat(v, fs, sat float64) float64 {
	if v > fs {
		return fs + (sat-fs)*math.Tanh((v-fs)/(sat-fs))
	}
	if v < -fs {
		return -fs - (sat-fs)*math.Tanh((-v-fs)/(sat-fs))
	}
	return v
}

// eval computes net values for the given state at time t. When record
// is true it computes every net and also latches overflow exceptions and
// updates peak trackers; when false (the RK4 trial stages, which are not
// physical states) the fused kernel computes only the cone, the nets the
// integrator inputs depend on. It dispatches on the selected engine
// (SetEngine): the fused kernel by default, or the reference block-walk
// interpreter, which always computes every net.
func (s *Simulator) eval(t float64, state []float64, record bool) {
	switch {
	case s.engine == EngineReference:
		s.evalReference(t, state, record)
	case record:
		s.fused.evalRecord(s, t, state)
	default:
		s.fused.eval(s, t, state)
	}
}

// evalReference is the original block-walk interpreter: the executable
// specification the fused kernel is differentially tested against.
func (s *Simulator) evalReference(t float64, state []float64, record bool) {
	fs := s.nl.cfg.FullScale
	sat := s.nl.cfg.SatLevel
	for i := range s.netVals {
		s.netVals[i] = 0
	}
	emit := func(b *Block, n Net, raw float64) {
		v := softSat(raw, fs, sat)
		if record {
			if a := math.Abs(raw); a > s.peak[b.ID] {
				s.peak[b.ID] = a
			}
		}
		if n != noNet {
			s.netVals[n] += v
		}
	}
	// Sources first: integrators (state), DACs, external inputs.
	for _, b := range s.nl.blocks {
		switch b.Kind {
		case KindIntegrator:
			emit(b, b.out[0], state[b.stateIdx])
		case KindDAC:
			off, gf := s.effOff[b.ID], s.effGain[b.ID]
			lvl := quantize(b.Level, fs, s.nl.cfg.DACBits)
			emit(b, b.out[0], gf*lvl+off)
		case KindInput:
			v := 0.0
			if b.Stimulus != nil {
				v = b.Stimulus(t)
			}
			emit(b, b.out[0], v)
		}
	}
	// Combinational blocks in dependency order.
	for _, b := range s.order {
		off, gf := s.effOff[b.ID], s.effGain[b.ID]
		switch b.Kind {
		case KindMultiplier:
			if b.varMode {
				emit(b, b.out[0], gf*(s.netVals[b.in[0]]*s.netVals[b.in[1]]/fs)+off)
			} else {
				emit(b, b.out[0], gf*b.Gain*s.netVals[b.in[0]]+off)
			}
		case KindFanout:
			in := s.netVals[b.in[0]]
			for _, n := range b.out {
				emit(b, n, gf*in+off)
			}
		case KindLUT:
			idx := lutIndex(s.netVals[b.in[0]], fs, len(b.Table))
			emit(b, b.out[0], gf*b.Table[idx]+off)
		}
	}
}

// stage computes integrator derivatives from the current net values into
// dst and, when tmp is non-nil, fuses the RK4 trial-state update
// tmp = state + c·dst into the same pass. Callers must have evaluated
// netVals for the state the derivatives belong to.
func (s *Simulator) stage(dst, tmp []float64, c float64) {
	if s.engine != EngineReference {
		s.prog.stage(s, dst, tmp, c)
		return
	}
	for i, b := range s.integrators {
		off, gf := s.effOff[b.ID], s.effGain[b.ID]
		in := 0.0
		if b.in[0] != noNet {
			in = s.netVals[b.in[0]]
		}
		d := s.k * (gf*in + off)
		dst[i] = d
		if tmp != nil {
			tmp[i] = s.state[i] + c*d
		}
	}
}

var probeLimit = 1 << 22 // safety cap on recorded samples per probe

// probes are attached scopes. Every is normalized here, at attach time, so
// the hot loop never mutates probe state.
func (s *Simulator) addProbeInternal(p *Probe) {
	if p.Every <= 0 {
		p.Every = 1
	}
	s.probes = append(s.probes, p)
}

// Step advances one RK4 step, applies saturation and noise, latches
// exceptions, and records probes.
func (s *Simulator) Step() { s.stepH(s.dt) }

func (s *Simulator) stepH(h float64) {
	k1, k2, k3, k4, tmp := s.scratch[0], s.scratch[1], s.scratch[2], s.scratch[3], s.scratch[4]
	// The post-step recording evaluation already computed netVals for
	// (time, state), so the k1 stage can reuse it: four evaluations per
	// step instead of five. valsDirty guards the cases that invalidate the
	// cache (Reset-less state pokes, trim reloads, engine switches).
	if s.valsDirty {
		s.eval(s.time, s.state, false)
		s.valsDirty = false
	}
	s.stage(k1, tmp, h/2)
	s.eval(s.time+h/2, tmp, false)
	s.stage(k2, tmp, h/2)
	s.eval(s.time+h/2, tmp, false)
	s.stage(k3, tmp, h)
	s.eval(s.time+h, tmp, false)
	s.stage(k4, nil, 0)
	fs, sat := s.nl.cfg.FullScale, s.nl.cfg.SatLevel
	noiseAmp := 0.0
	if s.nl.cfg.NoiseSigma > 0 {
		// White noise integrated over one step: σ·fs·√(k·dt).
		noiseAmp = s.nl.cfg.NoiseSigma * fs * math.Sqrt(s.k*h)
	}
	for i, b := range s.integrators {
		x := s.state[i] + h/6*(k1[i]+2*k2[i]+2*k3[i]+k4[i])
		if noiseAmp > 0 {
			x += noiseAmp * s.noise.NormFloat64()
		}
		// The integrator output stage saturates like every other block.
		if math.Abs(x) > fs*(1+1e-12) {
			s.over[b.ID] = true
			x = softSat(x, fs, sat)
		}
		if a := math.Abs(x); a > s.peak[b.ID] {
			s.peak[b.ID] = a
		}
		s.state[i] = x
	}
	s.time += h
	s.steps++
	s.eval(s.time, s.state, true)
	for _, p := range s.probes {
		if s.steps%int64(p.Every) == 0 && len(p.Vals) < probeLimit {
			p.Times = append(p.Times, s.time)
			p.Vals = append(p.Vals, s.netVals[p.Net])
		}
	}
}

// Run advances simulated time by exactly duration: whole steps of dt plus
// one shorter final step for the remainder, so armed timeouts correspond to
// precise amounts of analog time.
func (s *Simulator) Run(duration float64) {
	// Floor with a relative epsilon: duration = n·dt must map to exactly
	// n whole steps even when duration/s.dt lands a few ulps below n, or
	// an armed timeout takes n−1 whole steps plus a spurious ~dt-long
	// "remainder" step.
	whole := int(math.Floor(duration/s.dt + 1e-9))
	for i := 0; i < whole; i++ {
		s.Step()
	}
	if rem := duration - float64(whole)*s.dt; rem > s.dt*1e-9 {
		s.stepH(rem)
	}
}

// NetValue returns the value on a net as of the last completed step.
func (s *Simulator) NetValue(n Net) float64 { return s.netVals[:s.nl.nets][n] }

// IntegratorValue returns an integrator's current output.
func (s *Simulator) IntegratorValue(b *Block) (float64, error) {
	if b.Kind != KindIntegrator || b.stateIdx < 0 {
		return 0, fmt.Errorf("circuit: block %d is not a compiled integrator", b.ID)
	}
	return s.state[b.stateIdx], nil
}

// SetIntegratorValue overwrites an integrator's state (used by tests and by
// the host to hold values across reconfiguration).
func (s *Simulator) SetIntegratorValue(b *Block, v float64) error {
	if b.Kind != KindIntegrator || b.stateIdx < 0 {
		return fmt.Errorf("circuit: block %d is not a compiled integrator", b.ID)
	}
	s.state[b.stateIdx] = v
	s.valsDirty = true
	return nil
}

// ReadADC samples the net observed by an ADC block: returns the output code
// and its value in volts-equivalent units. Out-of-range inputs clamp to the
// end codes and latch the ADC's overflow exception.
func (s *Simulator) ReadADC(b *Block) (code int, value float64, err error) {
	if b.Kind != KindADC {
		return 0, 0, fmt.Errorf("circuit: block %d is not an ADC", b.ID)
	}
	fs := s.nl.cfg.FullScale
	v := s.netVals[b.in[0]]
	if math.Abs(v) > fs*(1+1e-12) {
		s.over[b.ID] = true
	}
	q := quantize(v, fs, s.nl.cfg.ADCBits)
	levels := float64(int64(1)<<uint(s.nl.cfg.ADCBits)) - 1
	code = int(math.Round((q + fs) / (2 * fs) * levels))
	return code, q, nil
}

// ReadADCAveraged samples an ADC n times, advancing one step between
// samples, and returns the mean value: the analogAvg instruction. Averaging
// beats quantization noise down only when noise dithers the input, exactly
// as on real hardware.
func (s *Simulator) ReadADCAveraged(b *Block, n int) (float64, error) {
	if n <= 0 {
		n = 1
	}
	var sum float64
	for i := 0; i < n; i++ {
		_, v, err := s.ReadADC(b)
		if err != nil {
			return 0, err
		}
		sum += v
		if i+1 < n {
			s.Step()
		}
	}
	return sum / float64(n), nil
}

// AddProbe attaches a waveform recorder to a net, sampling every `every`
// steps (min 1).
func (s *Simulator) AddProbe(n Net, every int) *Probe {
	if every <= 0 {
		every = 1
	}
	p := &Probe{Net: n, Every: every}
	s.addProbeInternal(p)
	return p
}

// latchB is the latch store's lane stride: the lane width, or 1 in scalar
// mode.
func (s *Simulator) latchB() int { return max(s.lanes, 1) }

// overflowed reads latch slot i. An op latches its comparator exactly
// when its |raw| passes the threshold, which is exactly when it lifts the
// slot's peak past it; NaN does neither.
func (s *Simulator) overflowed(i int) bool {
	return s.over[i] || s.peak[i] > s.nl.cfg.FullScale*(1+1e-12)
}

// Overflowed reports a block's overflow latch on one lane (lane 0 in
// scalar mode).
func (s *Simulator) Overflowed(b *Block, lane int) bool {
	return s.overflowed(b.ID*s.latchB() + lane)
}

// PeakAbs returns the largest |output| a block produced on one lane (lane
// 0 in scalar mode) since the last Reset, so the host can detect unused
// dynamic range (low precision).
func (s *Simulator) PeakAbs(b *Block, lane int) float64 {
	return s.peak[b.ID*s.latchB()+lane]
}

// ClearExceptions resets every overflow latch and peak tracker on every
// lane.
func (s *Simulator) ClearExceptions() {
	clear(s.over)
	clear(s.peak)
}

// ExceptionVector returns one bit per block, in block order: true where
// the block's overflow latched on the given lane (lane 0 in scalar mode).
// It is the readExp payload of the ISA.
func (s *Simulator) ExceptionVector(lane int) []bool {
	B := s.latchB()
	v := make([]bool, len(s.nl.blocks))
	for i := range v {
		v[i] = s.overflowed(i*B + lane)
	}
	return v
}

// AnyException reports whether any block latched an overflow on any lane.
func (s *Simulator) AnyException() bool {
	for i := range s.over {
		if s.overflowed(i) {
			return true
		}
	}
	return false
}
