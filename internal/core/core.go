// Package core implements the paper's primary contribution: the analog
// accelerator *architecture* (Sections III-B and IV) by which a digital
// host safely uses a continuous-time analog chip as a linear-algebra
// solver. The host side owns:
//
//   - compilation of a sparse system A·u = b onto chip resources
//     (variable→integrator, coefficient→multiplier gain, bias→DAC,
//     copying→fanout trees, summation→crossbar net joining);
//   - value/time scaling so arbitrary-magnitude coefficients fit the
//     multipliers' gain range (the Section VI-D inset derivation);
//   - calibration orchestration (Table I `init`);
//   - the run loop with overflow-exception handling and automatic
//     rescale-and-retry;
//   - precision refinement by residual iteration (Algorithm 2), which
//     builds arbitrarily many digits from a low-resolution ADC;
//   - domain decomposition for problems bigger than the chip
//     (Section IV-B);
//   - the chip's native ODE mode (Figure 1); and
//   - the continuous-time Newton extension for nonlinear systems that the
//     paper names as future work (Section VI-F).
//
// Everything the host does to the chip goes through the Table I ISA
// (internal/isa): core never touches the simulator behind the transport.
package core

import (
	"errors"
	"fmt"
	"math"

	"analogacc/internal/chip"
	"analogacc/internal/isa"
	"analogacc/internal/la"
)

// Matrix is the coefficient-matrix abstraction the compiler needs: apply
// (for digital residuals) plus per-row access (for gain programming).
// la.CSR and la.PoissonStencil both satisfy it.
type Matrix interface {
	la.Operator
	la.RowVisitor
}

// Capacity errors.
var (
	// ErrTooLarge: the system needs more variables than the chip has
	// integrators/converters. Use SolveDecomposed.
	ErrTooLarge = errors.New("core: system exceeds chip capacity")
	// ErrNotSettled: the analog run hit its time budget before the ADC
	// readings stabilized.
	ErrNotSettled = errors.New("core: analog computation did not settle within the time budget")
	// ErrRescaleLimit: overflow exceptions persisted through the maximum
	// number of problem rescales.
	ErrRescaleLimit = errors.New("core: overflow exceptions persisted after maximum rescales")
	// ErrUnresolvable: the scaled system's conditioning exceeds the
	// converter resolution — the bias signal is below the residual floor
	// that ADC quantization imposes, so no reading can verify settling
	// (Section VI-D's dynamic-range trade at its breaking point). Use a
	// higher-resolution ADC or decompose into better-conditioned blocks.
	ErrUnresolvable = errors.New("core: system conditioning exceeds ADC resolution at this scale")
	// ErrSolveStep: ODE mode reads the transient, and a chip whose spec
	// sets SolveStep simulates it at a step that is faithful only at
	// equilibrium (an undamped loop loses amplitude every step). Run ODE
	// mode on a spec without it, such as PrototypeSpec.
	ErrSolveStep = errors.New("core: ODE mode needs a chip without chip.Spec.SolveStep")
)

// Accelerator is the host-side driver for one analog accelerator chip.
type Accelerator struct {
	host *isa.Host
	spec chip.Spec
	pm   *chip.PortMap

	analogTime   float64 // Σ armed-and-executed timeout durations
	runs         int     // execStart count
	configs      int     // full matrix programming passes (gains + routing)
	calibrated   bool
	calibrations int // Calibrate successes; caches watch it for trim drift
	// current is the session whose matrix is programmed on the chip;
	// sessions re-acquire ownership transparently (see Session.ensureOwned).
	current *Session
	// biasMulBase is the first multiplier of the bias-gain path in the
	// currently programmed configuration (see setBias).
	biasMulBase int
	// laneSupport caches the lane-batched-mode probe: 0 unknown, 1 the
	// device accepted a setLanes commit, -1 it answered StatusBadOpcode
	// (an older device) or refused lane mode at commit (a noisy or
	// interpreter datapath); batches then run scalar without re-probing.
	laneSupport int8
}

// New binds a driver to a chip behind a transport. The spec must match the
// physical chip (the host compiles against the same resource map).
func New(t isa.Transport, spec chip.Spec) (*Accelerator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Accelerator{
		host: isa.NewHost(t),
		spec: spec,
		pm:   chip.NewPortMap(spec),
	}, nil
}

// NewSimulated fabricates a simulated chip for the spec and binds a driver
// to it over an in-memory SPI loopback. The returned chip is the "bench"
// handle (probing, stimulus injection); all solving goes over the ISA.
func NewSimulated(spec chip.Spec) (*Accelerator, *chip.Chip, error) {
	dev, err := chip.New(spec)
	if err != nil {
		return nil, nil, err
	}
	acc, err := New(isa.NewLoopback(dev), spec)
	if err != nil {
		return nil, nil, err
	}
	return acc, dev, nil
}

// Spec returns the chip design this driver compiles against.
func (acc *Accelerator) Spec() chip.Spec { return acc.spec }

// Host exposes the raw ISA driver (examples use it for low-level access).
func (acc *Accelerator) Host() *isa.Host { return acc.host }

// AnalogTime returns the accumulated analog computation seconds this driver
// has armed and executed: the performance metric of Figures 8, 9 and 12.
func (acc *Accelerator) AnalogTime() float64 { return acc.analogTime }

// Runs returns how many execStart cycles the driver has issued.
func (acc *Accelerator) Runs() int { return acc.runs }

// Configurations returns how many full linear-system programming passes
// (matrix gains + crossbar routing + commit) the driver has compiled onto
// the chip. Bias-only rewrites between refinement passes and sweeps do not
// count — the gap between block solves and configurations is the payoff of
// session pinning, and the decomposition stats report it as reuse hits.
func (acc *Accelerator) Configurations() int { return acc.configs }

// Calibrate runs the chip's init sequence (Table I) once; repeated calls
// re-calibrate. Returns the number of units trimmed.
func (acc *Accelerator) Calibrate() (int, error) {
	n, err := acc.host.Init()
	if err == nil {
		acc.calibrated = true
		acc.calibrations++
	}
	return n, err
}

// Calibrated reports whether Calibrate has succeeded on this driver.
func (acc *Accelerator) Calibrated() bool { return acc.calibrated }

// CalibrationCount returns how many init sequences have succeeded on this
// driver. Session caches compare it across loans: a change means the trims
// drifted under a resident configuration, whose learned scales are then
// stale and must be invalidated.
func (acc *Accelerator) CalibrationCount() int { return acc.calibrations }

// ResidentFingerprint returns the la.Fingerprint and order of the matrix
// currently programmed on the chip (the live session), or (0, 0) when the
// chip holds no system. The serve pool keys its operator-affinity cache on
// it: a checkout for a matrix with the same fingerprint adopts the
// resident configuration through the BeginSession fast path instead of
// reprogramming gains and routing.
func (acc *Accelerator) ResidentFingerprint() (uint64, int) {
	if acc.current == nil {
		return 0, 0
	}
	return acc.current.fp, acc.current.n
}

// ResidentAdoptable reports whether a fresh BeginSession over the same
// matrix would adopt the resident configuration without reprogramming.
// A dynamic-range boost reprograms the gains at a value scale above the
// session's compile-time base, and a new session always starts at the
// base scale, so a boosted resident configuration is not reusable as-is.
// Session caches should only advertise residents for which this holds —
// otherwise a "hit" still pays the full gain/routing rewrite.
func (acc *Accelerator) ResidentAdoptable() bool {
	cur := acc.current
	return cur != nil && cur.sc.S == cur.baseS
}

// Requirements describes the chip resources a compiled system needs.
type Requirements struct {
	Variables   int
	Multipliers int
	Fanouts     int
}

// requirementsOf walks the matrix structure and totals resource needs.
// Each variable j is consumed by the multipliers of column j plus one ADC
// tap, all fed from a fanout tree (an analog output can drive exactly one
// destination; copying needs current mirrors). Each row additionally uses
// one bias-gain multiplier between its DAC and its integrator: the DAC
// codes then always use full range, with the common bias magnitude carried
// by the gain — without it, a strongly value-scaled system's biases would
// quantize to zero or a single LSB (the Section VI-D dynamic-range trap).
func requirementsOf(a Matrix) Requirements {
	n := a.Dim()
	colUse := make([]int, n)
	muls := n // bias-gain path, one per row
	for i := 0; i < n; i++ {
		a.VisitRow(i, func(j int, _ float64) {
			muls++
			colUse[j]++
		})
	}
	fanouts := 0
	for j := 0; j < n; j++ {
		consumers := colUse[j] + 1 // matrix columns + ADC readout
		fanouts += fanoutTreeSize(consumers, 0)
	}
	return Requirements{Variables: n, Multipliers: muls, Fanouts: fanouts}
}

// fanoutTreeSize returns how many fanout blocks of `ways` branches are
// needed to copy one source to `consumers` destinations. ways == 0 means
// "use the spec default at call time" — callers pass the real value.
func fanoutTreeSize(consumers, ways int) int {
	if ways <= 1 {
		ways = 2
	}
	if consumers <= 1 {
		// Even a single consumer goes through one mirror: the integrator
		// output itself is also a single branch, but we keep the tree
		// uniform so the readout tap never steals the feedback path.
		return 1
	}
	// f fanouts chained give f·(ways-1)+1 leaves.
	return (consumers + ways - 3) / (ways - 1)
}

// Fits reports whether the system can be compiled onto the chip, and the
// shortfall if not.
func (acc *Accelerator) Fits(a Matrix) error { return SpecFits(acc.spec, a) }

// SpecFits reports whether a system can be compiled onto a chip of the
// given design, without fabricating one — the check the serve pool uses to
// pick the smallest size class whose chips can hold a request's matrix.
func SpecFits(spec chip.Spec, a Matrix) error {
	req := requirementsOf(a)
	counts := spec.Counts()
	n := a.Dim()
	colUse := make([]int, n)
	for i := 0; i < n; i++ {
		a.VisitRow(i, func(j int, _ float64) { colUse[j]++ })
	}
	fanouts := 0
	for j := 0; j < n; j++ {
		fanouts += fanoutTreeSize(colUse[j]+1, spec.FanoutWays)
	}
	switch {
	case req.Variables > counts.Integrators:
		return fmt.Errorf("core: %d variables > %d integrators: %w", req.Variables, counts.Integrators, ErrTooLarge)
	case req.Variables > counts.ADCs:
		return fmt.Errorf("core: %d variables > %d ADCs: %w", req.Variables, counts.ADCs, ErrTooLarge)
	case req.Variables > counts.DACs:
		return fmt.Errorf("core: %d variables > %d DACs: %w", req.Variables, counts.DACs, ErrTooLarge)
	case req.Multipliers > counts.Multipliers:
		return fmt.Errorf("core: %d coefficients > %d multipliers: %w", req.Multipliers, counts.Multipliers, ErrTooLarge)
	case fanouts > counts.Fanouts:
		return fmt.Errorf("core: %d fanout blocks needed > %d available: %w", fanouts, counts.Fanouts, ErrTooLarge)
	}
	return nil
}

// MaxVariables returns the largest system order this chip can hold by
// converter/integrator count alone (structure may constrain further).
func (acc *Accelerator) MaxVariables() int {
	c := acc.spec.Counts()
	n := c.Integrators
	if c.ADCs < n {
		n = c.ADCs
	}
	if c.DACs < n {
		n = c.DACs
	}
	return n
}

// program compiles the scaled system (as, bs, initial conditions) into
// configuration instructions and commits it. Multiplier m carries gain
// -as[i][j] from variable j into integrator i's summing net; DAC i carries
// bs[i]; a fanout tree copies each variable to its consumers and its ADC.
func (acc *Accelerator) program(as Matrix, bs la.Vector, ics la.Vector) error {
	n := as.Dim()
	if err := acc.Fits(as); err != nil {
		return err
	}
	h, pm := acc.host, acc.pm
	if err := h.CfgReset(); err != nil {
		return fmt.Errorf("core: config reset: %w", err)
	}
	nextMul := 0
	nextFanout := 0

	// Column consumer lists: for each variable j, the multiplier input
	// ports that need u_j (assigned while walking rows) plus ADC j.
	consumers := make([][]uint16, n)
	var programErr error
	for i := 0; i < n && programErr == nil; i++ {
		row := i
		as.VisitRow(row, func(j int, aij float64) {
			if programErr != nil {
				return
			}
			m := nextMul
			nextMul++
			if err := h.SetMulGain(uint16(m), -aij); err != nil {
				programErr = fmt.Errorf("core: gain for a[%d][%d]: %w", row, j, err)
				return
			}
			if err := h.SetConn(pm.MultiplierOut(m), pm.IntegratorIn(row)); err != nil {
				programErr = fmt.Errorf("core: multiplier %d output: %w", m, err)
				return
			}
			consumers[j] = append(consumers[j], pm.MultiplierIn(m, 0))
		})
	}
	if programErr != nil {
		return programErr
	}
	// Bias-gain path: DAC_i -> multiplier(γ) -> integrator_i, so the DAC
	// always runs at full range and γ carries the bias magnitude.
	acc.biasMulBase = nextMul
	for i := 0; i < n; i++ {
		m := nextMul
		nextMul++
		if err := h.SetConn(pm.DACOut(i), pm.MultiplierIn(m, 0)); err != nil {
			return fmt.Errorf("core: DAC %d to bias multiplier: %w", i, err)
		}
		if err := h.SetConn(pm.MultiplierOut(m), pm.IntegratorIn(i)); err != nil {
			return fmt.Errorf("core: bias multiplier %d output: %w", m, err)
		}
	}
	beta, bq := la.NewVector(n), la.NewVector(n)
	gamma, err := acc.quantizeBias(bs, beta, bq, 0)
	if err != nil {
		return err
	}
	if err := acc.setBias(scalarLane, gamma, beta); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		ic := 0.0
		if ics != nil {
			ic = ics[i]
		}
		if err := h.SetIntInitial(uint16(i), ic); err != nil {
			return fmt.Errorf("core: initial condition u[%d]: %w", i, err)
		}
	}
	// Fanout trees: copy each variable to its consumers + its ADC.
	for j := 0; j < n; j++ {
		dsts := append(consumers[j], acc.pm.ADCIn(j))
		if err := acc.wireTree(pm.IntegratorOut(j), dsts, &nextFanout); err != nil {
			return fmt.Errorf("core: fanout tree for u[%d]: %w", j, err)
		}
	}
	if err := h.CfgCommit(); err != nil {
		return fmt.Errorf("core: commit: %w", err)
	}
	acc.configs++
	return nil
}

// wireTree routes src to every destination through chained fanout blocks.
func (acc *Accelerator) wireTree(src uint16, dsts []uint16, nextFanout *int) error {
	h, pm := acc.host, acc.pm
	ways := acc.spec.FanoutWays
	for {
		f := *nextFanout
		*nextFanout++
		if err := h.SetConn(src, pm.FanoutIn(f)); err != nil {
			return err
		}
		if len(dsts) <= ways {
			for w, d := range dsts {
				if err := h.SetConn(pm.FanoutOut(f, w), d); err != nil {
					return err
				}
			}
			return nil
		}
		// Fill ways-1 branches with destinations; chain the last branch
		// into the next fanout.
		for w := 0; w < ways-1; w++ {
			if err := h.SetConn(pm.FanoutOut(f, w), dsts[w]); err != nil {
				return err
			}
		}
		dsts = dsts[ways-1:]
		src = pm.FanoutOut(f, ways-1)
	}
}

// quantizeBias splits a scaled right-hand side into what the bias path
// programs: the shared gain γ = ‖bs‖∞ / margin (returned), which puts the
// largest bias at the DAC's usable full scale so the DAC's relative
// resolution applies no matter how small value scaling has made the
// biases, and each row's DAC value β_i = bs_i/γ (into beta). γ is capped
// at the multiplier's gain range; the DAC codes then absorb the rest,
// which is only legal while ‖bs‖∞ ≤ MaxGain — the σ policy guarantees it.
// Into bq goes the bias the chip realizes, γ·quantize(β_i): the host knows
// both γ and the DAC transfer, so settle polls compare readings against
// what was actually programmed, not the ideal value.
//
// Verifiability check: at steady state the reconstructed residual cannot
// be driven below the reading-quantization floor; if the entire realized
// bias sits under floor, a "settled" reading is indistinguishable from an
// untouched chip, so the solve is refused with ErrUnresolvable. A zero
// floor refuses nothing.
func (acc *Accelerator) quantizeBias(bs, beta, bq la.Vector, floor float64) (float64, error) {
	gamma := bs.NormInf() / margin
	if gamma > acc.spec.MaxGain {
		gamma = acc.spec.MaxGain
	}
	dacLevels := math.Pow(2, float64(acc.spec.DACBits)) - 1
	for i, v := range bs {
		b := 0.0
		if gamma != 0 {
			b = v / gamma
		}
		beta[i] = b
		code := math.Round((b + 1) / 2 * dacLevels)
		bq[i] = gamma * (code/dacLevels*2 - 1)
	}
	if bqn := bq.NormInf(); bqn > 0 && bqn < floor {
		return gamma, fmt.Errorf("core: bias %.3g below residual floor %.3g at %d ADC bits: %w",
			bqn, floor, acc.spec.ADCBits, ErrUnresolvable)
	}
	return gamma, nil
}

// scalarLane is the lane argument that selects the chip's scalar registers
// and opcodes in the lane-indexed accessors below. A scalar solve attempt
// is a one-job wave on scalarLane.
const scalarLane = -1

// setBias stages one lane's bias path (staged; the caller commits): DAC i
// carries β_i and bias multiplier i the shared gain γ.
func (acc *Accelerator) setBias(lane int, gamma float64, beta la.Vector) error {
	h := acc.host
	for i, b := range beta {
		mul := uint16(acc.biasMulBase + i)
		var err error
		if lane == scalarLane {
			err = h.SetDacConstant(uint16(i), b)
		} else {
			err = h.SetDacConstantLane(uint16(lane), uint16(i), b)
		}
		if err != nil {
			return fmt.Errorf("core: bias b[%d]: %w", i, err)
		}
		if lane == scalarLane {
			err = h.SetMulGain(mul, gamma)
		} else {
			err = h.SetMulGainLane(uint16(lane), mul, gamma)
		}
		if err != nil {
			return fmt.Errorf("core: bias gain %d: %w", i, err)
		}
	}
	return nil
}

// runFor arms the timer for the given analog duration and starts the chip.
func (acc *Accelerator) runFor(seconds float64) error {
	cycles := uint32(seconds * acc.spec.TimerHz)
	if cycles == 0 {
		cycles = 1
	}
	if err := acc.host.SetTimeout(cycles); err != nil {
		return err
	}
	if err := acc.host.ExecStart(); err != nil {
		return err
	}
	acc.analogTime += acc.armedDuration(seconds)
	acc.runs++
	return nil
}

// armedDuration is the analog time one runFor(seconds) actually arms,
// after the timer's cycle quantization; the settle loop bills it to every
// job still pending in the chunk.
func (acc *Accelerator) armedDuration(seconds float64) float64 {
	cycles := uint32(seconds * acc.spec.TimerHz)
	if cycles == 0 {
		cycles = 1
	}
	return float64(cycles) / acc.spec.TimerHz
}

// readCodesInto fills codes with one lane's raw ADC readings (scalarLane:
// the scalar ones) of the first len(codes) converters; the settle loop
// reuses one buffer per job across its poll chunks.
func (acc *Accelerator) readCodesInto(lane int, codes []int) error {
	var raw []byte
	var err error
	if lane == scalarLane {
		raw, err = acc.host.ReadSerial()
	} else {
		raw, err = acc.host.ReadSerialLane(uint16(lane))
	}
	if err != nil {
		return err
	}
	if len(raw) < 2*len(codes) {
		return fmt.Errorf("core: ADC read returned %d bytes, need %d", len(raw), 2*len(codes))
	}
	for i := range codes {
		codes[i] = int(isa.GetU16(raw, 2*i))
	}
	return nil
}

// readSolution averages each variable's scalar ADC and returns values in
// full-scale units.
func (acc *Accelerator) readSolution(n, samples int) (la.Vector, error) {
	u := la.NewVector(n)
	if err := acc.readSolutionInto(scalarLane, u, samples); err != nil {
		return nil, err
	}
	return u, nil
}

// readSolutionInto averages one lane's ADCs (scalarLane: the scalar ones)
// into a caller-owned buffer.
func (acc *Accelerator) readSolutionInto(lane int, u la.Vector, samples int) error {
	for i := range u {
		var v float64
		var err error
		if lane == scalarLane {
			v, err = acc.host.AnalogAvg(uint16(i), uint16(samples))
		} else {
			v, err = acc.host.AnalogAvgLane(uint16(lane), uint16(i), uint16(samples))
		}
		if err != nil {
			return err
		}
		u[i] = v
	}
	return nil
}

// anyException reads one lane's exception vector (scalarLane: the scalar
// one) and reports whether any unit latched an overflow.
func (acc *Accelerator) anyException(lane int) (bool, error) {
	var raw []byte
	var err error
	if lane == scalarLane {
		raw, err = acc.host.ReadExp()
	} else {
		raw, err = acc.host.ReadExpLane(uint16(lane))
	}
	if err != nil {
		return false, err
	}
	for _, b := range raw {
		if b != 0 {
			return true, nil
		}
	}
	return false, nil
}
