// Package analogacc is a full-system reproduction of "Evaluation of an
// Analog Accelerator for Linear Algebra" (ISCA 2016): a behavioural model
// of the continuous-time analog accelerator chip, the Table I instruction
// set it is driven by, and the host architecture that compiles systems of
// linear equations A·u = b onto it — value/time scaling, calibration,
// overflow-exception handling, Algorithm 2 precision refinement, domain
// decomposition, multigrid support, native ODE mode, and the nonlinear
// Newton extension — together with the paper's digital baselines and the
// benchmark harness that regenerates every figure and table of its
// evaluation.
//
// # Quick start
//
//	acc, _, err := analogacc.NewSimulated(analogacc.PrototypeChip())
//	if err != nil { ... }
//	a := analogacc.MustCSR(2, []analogacc.COOEntry{
//		{Row: 0, Col: 0, Val: 0.8}, {Row: 0, Col: 1, Val: 0.2},
//		{Row: 1, Col: 0, Val: 0.2}, {Row: 1, Col: 1, Val: 0.6},
//	})
//	b := analogacc.VectorOf(0.5, 0.3)
//	u, stats, err := acc.SolveRefined(a, b, analogacc.SolveOptions{Tolerance: 1e-7})
//
// The chip behind NewSimulated is a circuit-level behavioural simulation:
// it clips, latches overflow exceptions, quantizes through its converters,
// and settles at a rate set by its analog bandwidth. Solve times reported
// in Stats.AnalogTime are virtual analog seconds.
package analogacc

import (
	"analogacc/internal/bench"
	"analogacc/internal/chip"
	"analogacc/internal/core"
	"analogacc/internal/dda"
	"analogacc/internal/la"
	"analogacc/internal/model"
	"analogacc/internal/pde"
	"analogacc/internal/solvers"
)

// Linear-algebra substrate.
type (
	// Vector is a dense float64 column vector.
	Vector = la.Vector
	// Dense is a row-major dense matrix.
	Dense = la.Dense
	// CSR is a compressed-sparse-row square matrix.
	CSR = la.CSR
	// COOEntry assembles CSR matrices from (row, col, value) triplets.
	COOEntry = la.COOEntry
	// Grid describes a finite-difference grid (1-D/2-D/3-D).
	Grid = la.Grid
	// PoissonStencil is the matrix-free −∇² operator.
	PoissonStencil = la.PoissonStencil
)

// Accelerator architecture (the paper's contribution).
type (
	// Accelerator is the host-side driver for one analog chip.
	Accelerator = core.Accelerator
	// Session is a compiled matrix resident on the chip.
	Session = core.Session
	// Matrix is what the compiler accepts: Operator + row access.
	Matrix = core.Matrix
	// SolveOptions tunes analog solves and Algorithm 2 refinement.
	SolveOptions = core.SolveOptions
	// Stats reports solve cost (analog seconds, runs, rescales, ...).
	Stats = core.Stats
	// DecomposeOptions tunes Section IV-B domain decomposition.
	DecomposeOptions = core.DecomposeOptions
	// DecomposeStats reports the outer block iteration.
	DecomposeStats = core.DecomposeStats
	// ODEOptions tunes native ODE-mode runs (Figure 1).
	ODEOptions = core.ODEOptions
	// Trajectory is a sampled ODE-mode waveform.
	Trajectory = core.Trajectory
	// NonlinearProblem is F(u) = 0 with an explicit sparse Jacobian.
	NonlinearProblem = core.NonlinearProblem
	// NewtonOptions tunes the Section VI-F Newton extension.
	NewtonOptions = core.NewtonOptions
	// NewtonStats reports the Newton outer loop.
	NewtonStats = core.NewtonStats
	// LUTTerm is one lookup-table nonlinearity in nonlinear ODE mode.
	LUTTerm = core.LUTTerm
	// NonlinearODEOptions tunes nonlinear ODE-mode runs.
	NonlinearODEOptions = core.NonlinearODEOptions
	// Farm is a pool of accelerators for parallel block solves.
	Farm = core.Farm
	// ChipSpec parameterizes a chip design (macroblocks, converters,
	// bandwidth, mismatch).
	ChipSpec = chip.Spec
	// Chip is the simulated device (bench handle).
	Chip = chip.Chip
)

// Sentinel errors from the accelerator architecture.
var (
	// ErrTooLarge: system exceeds chip capacity; use SolveDecomposed.
	ErrTooLarge = core.ErrTooLarge
	// ErrNotSettled: the analog run hit its time budget.
	ErrNotSettled = core.ErrNotSettled
	// ErrRescaleLimit: overflow exceptions persisted through rescaling.
	ErrRescaleLimit = core.ErrRescaleLimit
	// ErrSolveStep: ODE mode refused a chip built for linear solves
	// (ChipSpec.SolveStep, set by ScaledChip).
	ErrSolveStep = core.ErrSolveStep
)

// NewFarm pools accelerators for SolveDecomposedParallel (Section IV-B's
// "solved separately on multiple accelerators").
func NewFarm(accs ...*Accelerator) (*Farm, error) { return core.NewFarm(accs...) }

// NewSimulated fabricates a simulated chip for spec and returns a driver
// bound to it over the in-memory SPI loopback, plus the chip itself for
// bench-style instrumentation.
func NewSimulated(spec ChipSpec) (*Accelerator, *Chip, error) {
	return core.NewSimulated(spec)
}

// PrototypeChip is the fabricated 65 nm chip: four macroblocks, 8-bit
// converters, 20 kHz bandwidth.
func PrototypeChip() ChipSpec { return chip.PrototypeSpec() }

// ScaledChip is the paper's model accelerator sized for n variables with
// the given ADC resolution and bandwidth (Section V). mulsPerVariable <= 0
// picks a default that fits 2-D stencil rows plus the bias path. It is a
// linear-solve design: it sets ChipSpec.SolveStep, so a noise-free chip
// simulates at ten times the transient step with the same settled
// answers, and ODE mode refuses it with ErrSolveStep (use PrototypeChip,
// or clear the field).
func ScaledChip(n, adcBits int, bandwidthHz float64, mulsPerVariable int) ChipSpec {
	return chip.ScaledSpec(n, adcBits, bandwidthHz, mulsPerVariable)
}

// Vector and matrix constructors.
var (
	// NewVector returns a zero vector.
	NewVector = la.NewVector
	// VectorOf builds a vector from values.
	VectorOf = la.VectorOf
	// MustCSR assembles a CSR matrix, panicking on bad indices.
	MustCSR = la.MustCSR
	// NewCSR assembles a CSR matrix.
	NewCSR = la.NewCSR
	// NewGrid describes a finite-difference grid.
	NewGrid = la.NewGrid
	// NewPoissonStencil builds the matrix-free −∇² operator.
	NewPoissonStencil = la.NewPoissonStencil
	// PoissonMatrix materializes the −∇² operator as CSR.
	PoissonMatrix = la.PoissonMatrix
)

// PDE workloads and multigrid.
type (
	// Problem is a discretized boundary-value problem.
	Problem = pde.Problem
	// Multigrid is a geometric V-cycle solver with pluggable smoother
	// and coarse solver (Section IV-A).
	Multigrid = pde.Multigrid
	// MGOptions tunes multigrid.
	MGOptions = pde.MGOptions
	// MGStats reports a multigrid solve.
	MGStats = pde.MGStats
	// CoarseSolver solves the coarsest level (pluggable: analog!).
	CoarseSolver = pde.CoarseSolver
	// Bratu is the nonlinear test problem for the Newton extension.
	Bratu = pde.Bratu
)

// PDE constructors.
var (
	// Poisson builds −∇²u = f with a known manufactured solution.
	Poisson = pde.Poisson
	// Figure7Problem is the paper's Figure 7 boundary-value problem.
	Figure7Problem = pde.Figure7Problem
	// NewMultigrid builds a V-cycle hierarchy.
	NewMultigrid = pde.NewMultigrid
	// NewBratu discretizes the Bratu problem.
	NewBratu = pde.NewBratu
	// RedBlackSmoother is the order-independent Gauss-Seidel smoother.
	RedBlackSmoother = pde.RedBlackSmoother
)

// Digital baselines (Figure 7's methods and the direct solvers).
type (
	// DigitalOptions configures the iterative baselines.
	DigitalOptions = solvers.Options
	// DigitalResult reports an iterative solve.
	DigitalResult = solvers.Result
	// SolverName identifies an iterative method ("cg", "jacobi", ...).
	SolverName = solvers.Name
)

// Convergence criteria for the digital baselines.
const (
	// RelResidual stops on ‖b − A·x‖/‖b‖ ≤ Tol.
	RelResidual = solvers.RelResidual
	// DeltaInf is the paper's stop: no element of x changes by more than
	// Tol in one iteration (Section V's 1/256-of-full-scale rule).
	DeltaInf = solvers.DeltaInf
)

// Digital solver entry points.
var (
	// CG is conjugate gradients (matrix-free capable).
	CG = solvers.CG
	// SteepestDescent is gradient descent with exact line search.
	SteepestDescent = solvers.SteepestDescent
	// Jacobi, GaussSeidel and SOR are the classical stationary methods.
	Jacobi      = solvers.Jacobi
	GaussSeidel = solvers.GaussSeidel
	SOR         = solvers.SOR
	// PCG is preconditioned conjugate gradients.
	PCG = solvers.PCG
	// NewJacobiPreconditioner and NewSSORPreconditioner build the two
	// stock preconditioners.
	NewJacobiPreconditioner = solvers.NewJacobiPreconditioner
	NewSSORPreconditioner   = solvers.NewSSORPreconditioner
	// SolveDigital dispatches by name.
	SolveDigital = solvers.Solve
	// SolveDirect is dense LU with partial pivoting.
	SolveDirect = solvers.SolveDense
	// SolveDirectCSR densifies and LU-solves a sparse system.
	SolveDirectCSR = solvers.SolveCSRDirect
)

// Silicon model (Table II, bandwidth scaling, CPU/GPU baselines).
type (
	// Design is a bandwidth variant of the accelerator.
	Design = model.Design
	// Complement is the per-grid-point hardware budget.
	Complement = model.Complement
)

// Model entry points.
var (
	// TableII returns the prototype component measurements.
	TableII = model.TableII
	// MacroblockComplement is the per-point hardware at prototype ratio.
	MacroblockComplement = model.MacroblockComplement
	// PaperBandwidths lists the four evaluated designs.
	PaperBandwidths = model.PaperBandwidths
)

// Digital differential analyzer (Section VII related work).
type (
	// DDA is a serial digital differential analyzer.
	DDA = dda.Machine
	// DDAIntegrator is one incremental integrator unit.
	DDAIntegrator = dda.Integrator
)

// NewDDA builds a DDA with the given fraction width in bits.
func NewDDA(width uint) (*DDA, error) { return dda.NewMachine(width) }

// Experiments (the reproduction harness behind cmd/alabench).
type (
	// Experiment regenerates one paper table/figure.
	Experiment = bench.Experiment
	// ResultTable is an experiment's output grid.
	ResultTable = bench.Table
	// ExperimentConfig tunes experiment scale.
	ExperimentConfig = bench.Config
)

// Experiment registry access.
var (
	// Experiments lists all registered reproduction targets.
	Experiments = bench.All
	// ExperimentByID looks one up ("fig8", "table3", ...).
	ExperimentByID = bench.ByID
	// RunExperiments runs experiments concurrently (ExperimentConfig.Jobs
	// workers) and returns their tables in input order.
	RunExperiments = bench.RunMany
)
