package cli

import (
	"context"
	"fmt"
	"strings"
	"time"

	"analogacc/internal/chip"
	"analogacc/internal/core"
	"analogacc/internal/la"
	"analogacc/internal/solvers"
)

// Backend dispatch shared by cmd/alasolve and the internal/serve daemon:
// one registry of solver names, one chip-sizing rule, one entry point that
// runs a system on any backend. Keeping it here means the CLI and the
// network service cannot drift apart on what "backend" means.

// Backend names beyond the solvers registry.
const (
	BackendAnalog        = "analog"
	BackendAnalogRefined = "analog-refined"
	BackendDecomposed    = "decomposed"
	BackendDirect        = "direct"
)

// Backends lists every solvable backend: the analog modes (one-shot,
// refined, parallel block decomposition), dense LU, and the Figure 7
// iterative methods.
func Backends() []string {
	names := []string{BackendAnalog, BackendAnalogRefined, BackendDecomposed}
	for _, n := range solvers.AllNames() {
		names = append(names, string(n))
	}
	return append(names, BackendDirect)
}

// ValidBackend reports whether name is a known backend.
func ValidBackend(name string) bool {
	for _, n := range Backends() {
		if n == name {
			return true
		}
	}
	return false
}

// BackendUsage is the "known backends" string for error messages and flag
// help.
func BackendUsage() string { return strings.Join(Backends(), " | ") }

// IsAnalogBackend reports whether the backend runs on exactly one
// accelerator chip (and therefore needs one checked out of a pool, or
// built ad hoc). The decomposed backend is analog too but fans out over
// several block workers through a core.WorkerProvider, so it is routed
// separately.
func IsAnalogBackend(name string) bool {
	return name == BackendAnalog || name == BackendAnalogRefined
}

// SpecFor sizes a model accelerator for one system: enough multipliers per
// macroblock for the densest row plus its bias path, and fanout trees wide
// enough to copy each variable to its consumers.
func SpecFor(a *la.CSR, adcBits int, bandwidth float64) chip.Spec {
	spec := chip.ScaledSpec(a.Dim(), adcBits, bandwidth, a.MaxRowNNZ()+1)
	spec.FanoutsPerMB = (a.MaxRowNNZ()+3)/3 + 1
	return spec
}

// SolveParams tunes a backend run. The zero value gives the alasolve
// defaults (tol 1e-8, 12-bit converters, 20 kHz bandwidth).
type SolveParams struct {
	// Tol is the convergence / refinement tolerance (default 1e-8).
	Tol float64
	// ADCBits and Bandwidth size the ad-hoc chip for analog backends
	// (defaults 12 bits, 20 kHz); ignored when Acc is set.
	ADCBits   int
	Bandwidth float64
	// Calibrate runs the chip init sequence before solving.
	Calibrate bool
	// MaxLanes caps how many right-hand sides a batch solve drives
	// lane-parallel through the chip (0 = device limit, 1 = one at a
	// time). Lane widths are bit-identical, so this changes speed, never
	// answers.
	MaxLanes int
	// Acc, if non-nil, is a pre-built accelerator the analog backends run
	// on (the serve pool's warm chips); nil builds a chip sized by
	// SpecFor. Digital backends ignore it.
	Acc *core.Accelerator
	// Workers caps how many chips the decomposed backend fans out over
	// (default: one per block, bounded by what the provider lends).
	Workers int
	// BlockSize overrides the decomposed backend's per-block order
	// (default: chosen by the provider, or n split over max(Workers, 2)
	// ad-hoc chips).
	BlockSize int
	// Provider lends block workers to the decomposed backend (the serve
	// pool); nil builds Workers (default 2) identical simulated chips
	// sized for one block.
	Provider core.WorkerProvider
	// OnSweep observes decomposed outer sweeps (the daemon's per-sweep
	// latency histogram).
	OnSweep func(sweep int, residual float64, elapsed time.Duration)
}

func (p SolveParams) withDefaults() SolveParams {
	if p.Tol <= 0 {
		p.Tol = 1e-8
	}
	if p.ADCBits <= 0 {
		p.ADCBits = 12
	}
	if p.Bandwidth <= 0 {
		p.Bandwidth = 20e3
	}
	return p
}

// Outcome is what a backend run produced, with enough cost accounting for
// both the CLI's one-line summary and the daemon's metrics.
type Outcome struct {
	U la.Vector
	// Note is a human-readable cost summary ("3 refinements, ...").
	Note string
	// Analog is set when the solve ran on a chip; the analog cost fields
	// below are populated only then.
	Analog      bool
	AnalogTime  float64
	SettleTime  float64
	Runs        int
	Rescales    int
	Overflows   int
	Refinements int
	ScaleS      float64
	// Lanes is the widest lane wave this answer settled in; 0 when every
	// run took the scalar path.
	Lanes int
	// Decompose carries the outer-iteration stats of a decomposed solve.
	Decompose *core.DecomposeStats
	// Iterations and MACs are the digital iterative costs.
	Iterations int
	MACs       int64
}

// SolveSystem runs A·u = b on the named backend. Analog backends honor
// ctx down to the chip's settle loop; digital backends are checked before
// dispatch (the baselines are fast enough that mid-iteration cancellation
// buys nothing).
func SolveSystem(ctx context.Context, backend string, a *la.CSR, b la.Vector, p SolveParams) (Outcome, error) {
	p = p.withDefaults()
	if !ValidBackend(backend) {
		return Outcome{}, fmt.Errorf("cli: unknown backend %q (known: %s)", backend, BackendUsage())
	}
	if err := ctx.Err(); err != nil {
		return Outcome{}, err
	}
	switch backend {
	case BackendAnalog, BackendAnalogRefined:
		// A solo analog solve is a one-item batch.
		outs, err := solveAnalog(ctx, backend, a, []la.Vector{b}, p)
		if err != nil {
			return Outcome{}, err
		}
		return outs[0], nil
	case BackendDecomposed:
		return solveDecomposed(ctx, a, b, p)
	case BackendDirect:
		u, err := solvers.SolveCSRDirect(a, b)
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{U: u, Note: "dense LU with partial pivoting"}, nil
	default:
		res, err := solvers.Solve(solvers.Name(backend), a, b, solvers.Options{Tol: p.Tol})
		if err != nil {
			return Outcome{}, err
		}
		return Outcome{
			U:          res.X,
			Note:       fmt.Sprintf("%d iterations, %d MACs", res.Iterations, res.MACs),
			Iterations: res.Iterations,
			MACs:       res.MACs,
		}, nil
	}
}

// SolveSystemBatch runs A·u = rhs[k] for every right-hand side on the
// named backend. On the analog backends the matrix is compiled onto the
// chip once (a core.Session) and only the DAC biases are rewritten
// between items — a batch of N costs one configuration, not N. Other
// backends solve the items sequentially. Outcomes are positional; the
// first failing item aborts the batch with its index in the error, and a
// one-item batch fails exactly like SolveSystem.
func SolveSystemBatch(ctx context.Context, backend string, a *la.CSR, rhs []la.Vector, p SolveParams) ([]Outcome, error) {
	p = p.withDefaults()
	if !ValidBackend(backend) {
		return nil, fmt.Errorf("cli: unknown backend %q (known: %s)", backend, BackendUsage())
	}
	if len(rhs) == 0 {
		return nil, fmt.Errorf("cli: batch solve needs at least one right-hand side")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if IsAnalogBackend(backend) {
		return solveAnalog(ctx, backend, a, rhs, p)
	}
	outs := make([]Outcome, len(rhs))
	for k, b := range rhs {
		out, err := SolveSystem(ctx, backend, a, b, p)
		if err != nil {
			if len(rhs) > 1 {
				err = fmt.Errorf("cli: batch rhs %d: %w", k, err)
			}
			return nil, err
		}
		outs[k] = out
	}
	return outs, nil
}

// solveAnalog runs the right-hand sides on one chip (p.Acc, or one built
// by SpecFor) as a core batch, plain or refined, and is the one place an
// analog Outcome is built.
func solveAnalog(ctx context.Context, backend string, a *la.CSR, rhs []la.Vector, p SolveParams) ([]Outcome, error) {
	acc := p.Acc
	if acc == nil {
		var err error
		acc, _, err = core.NewSimulated(SpecFor(a, p.ADCBits, p.Bandwidth))
		if err != nil {
			return nil, fmt.Errorf("cli: building chip: %w", err)
		}
	}
	sess, err := acc.BeginSession(a)
	if err != nil {
		return nil, err
	}
	opt := core.SolveOptions{Tolerance: p.Tol, Calibrate: p.Calibrate, MaxLanes: p.MaxLanes}
	var (
		us    []la.Vector
		stats []core.Stats
	)
	if backend == BackendAnalog {
		us, stats, err = sess.SolveBatch(ctx, rhs, opt)
	} else {
		us, stats, err = sess.SolveBatchRefined(ctx, rhs, opt)
	}
	if err != nil {
		return nil, err
	}
	outs := make([]Outcome, len(rhs))
	for k, st := range stats {
		note := fmt.Sprintf("analog time %.3e s, %d runs, %d refinements, %d rescales, value scale S=%.4g",
			st.AnalogTime, st.Runs, st.Refinements, st.Rescales, st.Scaling.S)
		if st.Lanes > 1 {
			note += fmt.Sprintf(", %d lanes", st.Lanes)
		}
		outs[k] = Outcome{
			U:           us[k],
			Note:        note,
			Analog:      true,
			AnalogTime:  st.AnalogTime,
			SettleTime:  st.SettleTime,
			Runs:        st.Runs,
			Rescales:    st.Rescales,
			Overflows:   st.Overflows,
			Refinements: st.Refinements,
			ScaleS:      st.Scaling.S,
			Lanes:       st.Lanes,
		}
	}
	return outs, nil
}

// solveDecomposed runs the parallel block-Jacobi backend. With a provider
// (the serve pool) workers are leased; without one it fabricates Workers
// (default 2) identical simulated chips sized for one block — identical
// specs and seeds, so the answer does not depend on which chip solves
// which block.
func solveDecomposed(ctx context.Context, a *la.CSR, b la.Vector, p SolveParams) (Outcome, error) {
	prov := p.Provider
	size := p.BlockSize
	if prov == nil {
		chips := p.Workers
		if chips <= 0 {
			chips = 2
		}
		if size <= 0 {
			parts := max(chips, 2)
			size = (a.Dim() + parts - 1) / parts
		}
		// SpecFor's rule for a's rows, on a chip of one block's order.
		spec := SpecFor(a, p.ADCBits, p.Bandwidth)
		spec.Macroblocks = size
		accs := make(core.Accelerators, chips)
		for i := range accs {
			acc, _, err := core.NewSimulated(spec)
			if err != nil {
				return Outcome{}, fmt.Errorf("cli: building chip %d: %w", i, err)
			}
			if p.Calibrate {
				if _, err := acc.Calibrate(); err != nil {
					return Outcome{}, fmt.Errorf("cli: calibrating chip %d: %w", i, err)
				}
			}
			accs[i] = acc
		}
		prov = accs
	}
	// The caller's tolerance is the global residual target; the per-block
	// solves refine one decade tighter so block precision never limits the
	// outer iteration.
	innerTol := p.Tol / 10
	pd := &core.ParallelDecompose{
		Provider: prov,
		Workers:  p.Workers,
		Opt: core.DecomposeOptions{
			BlockSize:      size,
			OuterTolerance: p.Tol,
			Inner:          core.SolveOptions{Tolerance: innerTol, MaxLanes: p.MaxLanes},
		},
		OnSweep: p.OnSweep,
	}
	u, ds, err := pd.Solve(ctx, a, b)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{
		U: u,
		Note: fmt.Sprintf("%d blocks × %d sweeps on %d chips, %d matrix configs (%d pinned reuses), %d inner refinements, analog %.3e s (critical path %.3e s)",
			ds.Blocks, ds.Sweeps, ds.Chips, ds.Configs, ds.ReuseHits, ds.InnerRefinements, ds.AnalogTime, ds.AnalogCritical),
		Analog:      true,
		AnalogTime:  ds.AnalogTime,
		Runs:        ds.Runs,
		Refinements: ds.InnerRefinements,
		Decompose:   &ds,
	}, nil
}
