package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"analogacc/internal/chip"
	"analogacc/internal/la"
	"analogacc/internal/solvers"
)

// simAcc builds a simulated accelerator, failing the test on error.
func simAcc(t *testing.T, spec chip.Spec) *Accelerator {
	t.Helper()
	acc, _, err := NewSimulated(spec)
	if err != nil {
		t.Fatal(err)
	}
	return acc
}

// eq2System is the two-variable example of Equation 2 / Figure 5.
func eq2System() (*la.CSR, la.Vector) {
	a := la.MustCSR(2, []la.COOEntry{
		{Row: 0, Col: 0, Val: 0.8}, {Row: 0, Col: 1, Val: 0.2},
		{Row: 1, Col: 0, Val: 0.2}, {Row: 1, Col: 1, Val: 0.6},
	})
	return a, la.VectorOf(0.5, 0.3)
}

func TestSolveEquation2OnPrototype(t *testing.T) {
	acc := simAcc(t, chip.PrototypeSpec())
	a, b := eq2System()
	u, stats, err := acc.Solve(a, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := solvers.SolveCSRDirect(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// One run of an 8-bit chip: a few LSBs of accuracy.
	if !u.Equal(want, 0.05) {
		t.Fatalf("u=%v want %v", u, want)
	}
	if stats.AnalogTime <= 0 || stats.Runs == 0 {
		t.Fatalf("stats not accounted: %+v", stats)
	}
	if stats.Scaling.S <= 0 || stats.Scaling.Sigma <= 0 {
		t.Fatalf("scaling not recorded: %+v", stats.Scaling)
	}
}

func TestSolveStencilMatrix(t *testing.T) {
	// The matrix-free stencil drives the compiler directly.
	g, _ := la.NewGrid(1, 4)
	st := la.NewPoissonStencil(g)
	spec := chip.ScaledSpec(4, 12, 20e3, 4)
	acc := simAcc(t, spec)
	b := la.VectorOf(0.5, -0.2, 0.3, 0.1)
	u, _, err := acc.Solve(st, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := solvers.SolveCSRDirect(st.CSR(), b)
	if err != nil {
		t.Fatal(err)
	}
	if !u.Equal(want, want.NormInf()*0.02+1e-3) {
		t.Fatalf("u=%v want %v", u, want)
	}
}

func TestValueScalingInvariance(t *testing.T) {
	// The inset derivation, part 1: scaling A and b together leaves both
	// the answer and the chip program unchanged — a system with
	// coefficients 100× beyond the gain range solves identically,
	// because value scaling normalizes it back.
	spec := chip.PrototypeSpec()
	spec.ADCBits = 12
	spec.DACBits = 12
	base, b := eq2System()
	var times [2]float64
	var sols [2]la.Vector
	for i, scale := range []float64{1, 100} {
		acc := simAcc(t, spec)
		a := base.Scaled(scale)
		bs := b.Scaled(scale)
		u, stats, err := acc.Solve(a, bs, SolveOptions{})
		if err != nil {
			t.Fatalf("scale %v: %v", scale, err)
		}
		times[i] = stats.AnalogTime
		sols[i] = u
		if stats.Scaling.S < scale/2 && scale > 1 {
			t.Fatalf("scale %v: S=%v suspiciously small", scale, stats.Scaling.S)
		}
	}
	if !sols[0].Equal(sols[1], 0.01) {
		t.Fatalf("scaled system changed the answer: %v vs %v", sols[0], sols[1])
	}
	if math.Abs(times[0]-times[1]) > 1e-12 {
		t.Fatalf("uniformly scaled system should take identical analog time: %v vs %v", times[0], times[1])
	}
}

func TestTimeScalingDilation(t *testing.T) {
	// The inset derivation, part 2: restricted dynamic range in A costs
	// time. Two systems with the same slow eigenvalue, but the second
	// has a 100× larger max coefficient, forcing S 100× larger and the
	// slow mode of A_s 100× slower.
	spec := chip.PrototypeSpec()
	spec.ADCBits = 12
	spec.DACBits = 12
	run := func(a *la.CSR, b la.Vector) float64 {
		acc := simAcc(t, spec)
		u, stats, err := acc.Solve(a, b, SolveOptions{DisableBoost: true})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := solvers.SolveCSRDirect(a, b)
		if !u.Equal(want, 0.02*math.Max(1, want.NormInf())) {
			t.Fatalf("u=%v want %v", u, want)
		}
		return stats.AnalogTime
	}
	aFast := la.MustCSR(2, []la.COOEntry{{Row: 0, Col: 0, Val: 0.5}, {Row: 1, Col: 1, Val: 0.5}})
	aSlow := la.MustCSR(2, []la.COOEntry{{Row: 0, Col: 0, Val: 0.5}, {Row: 1, Col: 1, Val: 50}})
	tFast := run(aFast, la.VectorOf(0.3, 0.3))
	tSlow := run(aSlow, la.VectorOf(0.3, 30)) // same solution (0.6, 0.6)
	// S grows 100×, so the slow mode dilates ~100×; chunk doubling
	// quantizes the measurement, so require at least 16×.
	if tSlow < tFast*16 {
		t.Fatalf("time dilation missing: fast %v vs slow %v", tFast, tSlow)
	}
}

func TestSolveRefinedBeatsADCResolution(t *testing.T) {
	// Algorithm 2's claim: precision beyond the ADC's bits. An 8-bit
	// converter gives ~2.4 decimal digits; refinement reaches 1e-7.
	acc := simAcc(t, chip.PrototypeSpec())
	a, b := eq2System()
	u, stats, err := acc.SolveRefined(a, b, SolveOptions{Tolerance: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := solvers.SolveCSRDirect(a, b)
	if !u.Equal(want, 1e-6) {
		t.Fatalf("refined error %v", la.Sub2(u, want).NormInf())
	}
	if stats.Refinements < 2 {
		t.Fatalf("only %d refinements for 8-bit chip", stats.Refinements)
	}
	if stats.Residual > 1e-7 {
		t.Fatalf("reported residual %v", stats.Residual)
	}
}

func TestOverflowDrivesRescale(t *testing.T) {
	// Solution magnitude ≈ 8 at unit dynamic range: the first runs must
	// latch overflow exceptions and the driver must rescale.
	a := la.MustCSR(2, []la.COOEntry{
		{Row: 0, Col: 0, Val: 0.5}, {Row: 0, Col: 1, Val: -0.45},
		{Row: 1, Col: 0, Val: -0.45}, {Row: 1, Col: 1, Val: 0.5},
	})
	b := la.VectorOf(0.4, 0.4)
	spec := chip.PrototypeSpec()
	spec.ADCBits = 12
	spec.DACBits = 12
	acc := simAcc(t, spec)
	u, stats, err := acc.Solve(a, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := solvers.SolveCSRDirect(a, b) // [8, 8]
	if stats.Rescales == 0 {
		t.Fatalf("no rescales for out-of-range solution (u=%v)", u)
	}
	if !u.Equal(want, want.NormInf()*0.02) {
		t.Fatalf("u=%v want %v", u, want)
	}
}

func TestDynamicRangeBoost(t *testing.T) {
	// A solution much smaller than the initial scale: the driver should
	// notice the unused dynamic range and rescale for precision.
	n := 10
	entries := make([]la.COOEntry, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			v := 0.09
			if i == j {
				v = 0.14
			}
			entries = append(entries, la.COOEntry{Row: i, Col: j, Val: v})
		}
	}
	a := la.MustCSR(n, entries)
	b := la.Constant(n, 0.1)
	spec := chip.ScaledSpec(n, 12, 20e3, n+1)
	spec.FanoutsPerMB = 5
	acc := simAcc(t, spec)
	u, stats, err := acc.Solve(a, b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := solvers.SolveCSRDirect(a, b)
	if stats.Rescales == 0 {
		t.Fatalf("no dynamic-range boost (u=%v, want %v)", u, want)
	}
	if !u.Equal(want, want.NormInf()*0.02) {
		t.Fatalf("u=%v want %v", u, want)
	}
	// And boosting can be disabled.
	acc2 := simAcc(t, spec)
	_, stats2, err := acc2.Solve(a, b, SolveOptions{DisableBoost: true})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Rescales != 0 {
		t.Fatalf("boost ran despite DisableBoost: %+v", stats2)
	}
}

func TestFitsCapacityErrors(t *testing.T) {
	acc := simAcc(t, chip.PrototypeSpec()) // 4 integrators, 2 ADCs/DACs
	// 3 variables exceed the prototype's 2 converters.
	a := la.Tridiag(3, -0.2, 0.9, -0.2)
	if err := acc.Fits(a); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err=%v want ErrTooLarge", err)
	}
	if _, _, err := acc.Solve(a, la.NewVector(3), SolveOptions{}); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("solve err=%v", err)
	}
	// Dense 2x2 fits.
	two, _ := eq2System()
	if err := acc.Fits(two); err != nil {
		t.Fatal(err)
	}
	if acc.MaxVariables() != 2 {
		t.Fatalf("MaxVariables=%d", acc.MaxVariables())
	}
}

func TestCalibrateOverDriver(t *testing.T) {
	spec := chip.PrototypeSpec()
	spec.OffsetSigma = 0.01
	spec.GainSigma = 0.01
	spec.ADCBits = 12
	spec.DACBits = 12
	spec.TrimBits = 10
	spec.Seed = 5
	acc := simAcc(t, spec)
	if acc.Calibrated() {
		t.Fatal("calibrated before init")
	}
	a, b := eq2System()
	// Solve with Calibrate: should succeed and mark the driver.
	u, _, err := acc.Solve(a, b, SolveOptions{Calibrate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !acc.Calibrated() {
		t.Fatal("driver not marked calibrated")
	}
	want, _ := solvers.SolveCSRDirect(a, b)
	if !u.Equal(want, 0.02) {
		t.Fatalf("calibrated solve u=%v want %v", u, want)
	}
}

func TestSessionReuseAcrossRHS(t *testing.T) {
	acc := simAcc(t, chip.PrototypeSpec())
	a, _ := eq2System()
	sess, err := acc.BeginSession(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []la.Vector{la.VectorOf(0.5, 0.3), la.VectorOf(-0.2, 0.4), la.VectorOf(0, 0)} {
		u, _, err := sess.SolveFor(b, SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want, _ := solvers.SolveCSRDirect(a, b)
		if !u.Equal(want, 0.05) {
			t.Fatalf("rhs %v: u=%v want %v", b, u, want)
		}
	}
}

func TestSessionOwnershipSwitch(t *testing.T) {
	// Two different matrices on one chip: sessions must transparently
	// reprogram when ownership changes.
	acc := simAcc(t, chip.PrototypeSpec())
	a1, _ := eq2System()
	a2 := la.MustCSR(2, []la.COOEntry{
		{Row: 0, Col: 0, Val: 0.9}, {Row: 1, Col: 1, Val: 0.9},
	})
	s1, err := acc.BeginSession(a1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := acc.BeginSession(a2)
	if err != nil {
		t.Fatal(err)
	}
	b := la.VectorOf(0.4, 0.2)
	u2, _, err := s2.SolveFor(b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	u1, _, err := s1.SolveFor(b, SolveOptions{}) // forces reprogram back to a1
	if err != nil {
		t.Fatal(err)
	}
	w1, _ := solvers.SolveCSRDirect(a1, b)
	w2, _ := solvers.SolveCSRDirect(a2, b)
	if !u1.Equal(w1, 0.05) || !u2.Equal(w2, 0.05) {
		t.Fatalf("ownership switch broke solves: %v/%v vs %v/%v", u1, u2, w1, w2)
	}
}

func TestSessionFingerprintIdentity(t *testing.T) {
	// Sessions identify their matrix by la.Fingerprint; two sessions over
	// equal-by-value matrices must share an identity (that's what the
	// serve-pool cache and BeginSession adoption key on), and distinct
	// matrices must not.
	acc := simAcc(t, chip.PrototypeSpec())
	a1, _ := eq2System()
	a2, _ := eq2System()
	s1, err := acc.BeginSession(a1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := acc.BeginSession(a2)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Fatal("equal matrices produced different session fingerprints")
	}
	if fp, n := acc.ResidentFingerprint(); fp != s2.Fingerprint() || n != 2 {
		t.Fatalf("resident fingerprint %#x/%d, want %#x/2", fp, n, s2.Fingerprint())
	}
	for name, m := range map[string]*la.CSR{
		"scaled values": a2.Scaled(2),
		"bigger":        la.Tridiag(3, -1, 2, -1),
		"sparser":       la.MustCSR(2, []la.COOEntry{{Row: 0, Col: 0, Val: 0.8}, {Row: 1, Col: 1, Val: 0.6}}),
	} {
		if la.Fingerprint(m) == s1.Fingerprint() {
			t.Fatalf("%s: fingerprint collides with base system", name)
		}
	}
}

func TestBeginSessionAdoptionSkipsReprogram(t *testing.T) {
	// A second BeginSession over an equal matrix must adopt the resident
	// configuration instead of recompiling it: the chip sees no new
	// configuration commits.
	acc := simAcc(t, chip.PrototypeSpec())
	a1, _ := eq2System()
	a2, _ := eq2System()
	if _, err := acc.BeginSession(a1); err != nil {
		t.Fatal(err)
	}
	before := acc.Configurations()
	sess, err := acc.BeginSession(a2)
	if err != nil {
		t.Fatal(err)
	}
	if got := acc.Configurations(); got != before {
		t.Fatalf("adoption reprogrammed the chip: %d configurations, want %d", got, before)
	}
	// The adopted session must still solve correctly.
	b := la.VectorOf(0.5, 0.3)
	u, _, err := sess.SolveFor(b, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := solvers.SolveCSRDirect(a2, b)
	if !u.Equal(want, 0.05) {
		t.Fatalf("adopted session solve u=%v want %v", u, want)
	}
}

func TestResidentAdoptableTracksScaleDrift(t *testing.T) {
	// ResidentAdoptable is the pool's cache-worthiness test: true while the
	// resident gains sit at the session's compile-time base scale, false
	// once a dynamic-range boost has grown sc.S — a fresh BeginSession over
	// the same matrix would then reprogram rather than adopt.
	acc := simAcc(t, chip.PrototypeSpec())
	a, b := eq2System()
	sess, err := acc.BeginSession(a)
	if err != nil {
		t.Fatal(err)
	}
	if !acc.ResidentAdoptable() {
		t.Fatal("fresh session not adoptable")
	}
	if _, _, err := sess.SolveFor(b, SolveOptions{DisableBoost: true}); err != nil {
		t.Fatal(err)
	}
	if !acc.ResidentAdoptable() {
		t.Fatal("unboosted solve left the session non-adoptable")
	}
	// Simulate a sticky dynamic-range boost: gains reprogrammed at 2·baseS.
	sess.sc.S *= 2
	sess.as = newScaledView(sess.a, sess.sc.S)
	if err := acc.program(sess.as, la.NewVector(sess.n), nil); err != nil {
		t.Fatal(err)
	}
	if acc.ResidentAdoptable() {
		t.Fatal("boosted session still claims adoptable")
	}
	// And indeed a fresh BeginSession over the same matrix must reprogram.
	before := acc.Configurations()
	if _, err := acc.BeginSession(a); err != nil {
		t.Fatal(err)
	}
	if got := acc.Configurations(); got == before {
		t.Fatal("BeginSession adopted a boosted resident configuration")
	}
}

func TestSolveDecomposedPoisson2D(t *testing.T) {
	// 2-D Poisson with 36 unknowns on a chip holding only 6: six 1-D
	// strip subproblems with an outer block iteration (Section IV-B).
	g, _ := la.NewGrid(2, 6)
	a := la.PoissonMatrix(g)
	exact := la.NewVector(g.N())
	for i := range exact {
		xi, yi, _ := g.Coords(i)
		x, y := float64(xi+1)*g.H(), float64(yi+1)*g.H()
		exact[i] = x * (1 - x) * y * (1 - y) * (1 + x)
	}
	b := la.NewVector(g.N())
	a.Apply(b, exact)

	spec := chip.ScaledSpec(6, 12, 20e3, 4)
	acc := simAcc(t, spec)
	opt := DecomposeOptions{
		OuterTolerance: 5e-4,
		Inner:          SolveOptions{Tolerance: 1e-5},
	}
	x, stats, err := acc.SolveDecomposed(a, b, opt)
	if err != nil {
		t.Fatalf("%v (stats %+v)", err, stats)
	}
	if stats.Blocks != 6 {
		t.Fatalf("blocks=%d want 6", stats.Blocks)
	}
	if stats.AnalogTime <= 0 || stats.Runs == 0 {
		t.Fatalf("decomposition stats not accounted: %+v", stats)
	}
	if stats.Sweeps < 2 {
		t.Fatalf("suspiciously few sweeps: %d", stats.Sweeps)
	}
	if la.RelativeResidual(a, x, b) > 5e-4 {
		t.Fatalf("residual %v", la.RelativeResidual(a, x, b))
	}
	if !x.Equal(exact, exact.NormInf()*0.01+1e-3) {
		t.Fatalf("decomposed error %v", la.Sub2(x, exact).NormInf())
	}
}

func TestSolveDecomposedJacobiMode(t *testing.T) {
	g, _ := la.NewGrid(2, 4)
	a := la.PoissonMatrix(g)
	b := la.Constant(g.N(), 1)
	spec := chip.ScaledSpec(4, 12, 20e3, 4)
	acc := simAcc(t, spec)
	opt := DecomposeOptions{
		Jacobi:         true,
		OuterTolerance: 1e-3,
		Inner:          SolveOptions{Tolerance: 1e-5},
	}
	x, _, err := acc.SolveDecomposed(a, b, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := solvers.SolveCSRDirect(a, b)
	if !x.Equal(want, want.NormInf()*0.01) {
		t.Fatalf("jacobi decomposition error %v", la.Sub2(x, want).NormInf())
	}
}

func TestBlockRangesAndTreeSize(t *testing.T) {
	blocks := blockRanges(10, 4)
	if len(blocks) != 3 || len(blocks[2]) != 2 || blocks[2][0] != 8 {
		t.Fatalf("blockRanges wrong: %v", blocks)
	}
	// f fanouts with w ways serve f·(w-1)+1 consumers.
	cases := []struct{ consumers, ways, want int }{
		{1, 2, 1}, {2, 2, 1}, {3, 2, 2}, {5, 2, 4},
		{4, 4, 1}, {5, 4, 2}, {7, 4, 2}, {8, 4, 3},
	}
	for _, c := range cases {
		if got := fanoutTreeSize(c.consumers, c.ways); got != c.want {
			t.Errorf("fanoutTreeSize(%d,%d)=%d want %d", c.consumers, c.ways, got, c.want)
		}
	}
}

func TestSolveODEDecay(t *testing.T) {
	// du/dt = -2u, u(0)=0.8: u(t) = 0.8·e^{-2t}.
	spec := chip.PrototypeSpec()
	spec.ADCBits = 12
	spec.DACBits = 12
	acc := simAcc(t, spec)
	m := la.MustCSR(1, []la.COOEntry{{Row: 0, Col: 0, Val: -0.8}})
	traj, err := acc.SolveODE(m, la.VectorOf(0), la.VectorOf(0.8), ODEOptions{Duration: 3, SamplePoints: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(traj.Times) != 17 {
		t.Fatalf("%d samples", len(traj.Times))
	}
	for i, tt := range traj.Times {
		want := 0.8 * math.Exp(-0.8*tt)
		if math.Abs(traj.States[i][0]-want) > 0.01 {
			t.Fatalf("u(%v)=%v want %v", tt, traj.States[i][0], want)
		}
	}
	if traj.AnalogTime <= 0 {
		t.Fatal("no analog time recorded")
	}
}

func TestSolveODEDampedOscillator(t *testing.T) {
	// u'' = -u - 0.4u' as a 2-state system; compare against the digital
	// closed form via eigen-decay envelope at a few points.
	spec := chip.PrototypeSpec()
	spec.ADCBits = 12
	spec.DACBits = 12
	acc := simAcc(t, spec)
	m := la.MustCSR(2, []la.COOEntry{
		{Row: 0, Col: 1, Val: 1},
		{Row: 1, Col: 0, Val: -1}, {Row: 1, Col: 1, Val: -0.4},
	})
	traj, err := acc.SolveODE(m, la.NewVector(2), la.VectorOf(0.6, 0), ODEOptions{Duration: 10, SamplePoints: 50})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: damped cosine u(t)=0.6·e^{-0.2t}(cos ωt + (0.2/ω) sin ωt), ω=√(1-0.04).
	om := math.Sqrt(1 - 0.04)
	for i, tt := range traj.Times {
		want := 0.6 * math.Exp(-0.2*tt) * (math.Cos(om*tt) + 0.2/om*math.Sin(om*tt))
		if math.Abs(traj.States[i][0]-want) > 0.03 {
			t.Fatalf("u(%v)=%v want %v", tt, traj.States[i][0], want)
		}
	}
}

func TestSolveODEValidation(t *testing.T) {
	acc := simAcc(t, chip.PrototypeSpec())
	m := la.MustCSR(1, []la.COOEntry{{Row: 0, Col: 0, Val: -0.5}})
	if _, err := acc.SolveODE(m, la.VectorOf(0), la.VectorOf(0.5), ODEOptions{Duration: -1}); err == nil {
		t.Fatal("negative duration accepted")
	}
	if _, err := acc.SolveODE(m, la.NewVector(2), la.VectorOf(0.5), ODEOptions{Duration: 1}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	// IC beyond range at the chosen sigma.
	if _, err := acc.SolveODE(m, la.VectorOf(0), la.VectorOf(0.9), ODEOptions{Duration: 1, Sigma: 0.1}); err == nil {
		t.Fatal("out-of-range IC accepted")
	}
}

// cubicProblem is F(u) = A·u + 0.3·u³ − b, a 1-D nonlinear reaction system.
type cubicProblem struct {
	a *la.CSR
	b la.Vector
}

func (p *cubicProblem) Dim() int { return p.a.Dim() }

func (p *cubicProblem) Eval(dst la.Vector, u la.Vector) {
	p.a.Apply(dst, u)
	for i := range dst {
		dst[i] += 0.3*u[i]*u[i]*u[i] - p.b[i]
	}
}

func (p *cubicProblem) Jacobian(u la.Vector) *la.CSR {
	j := p.a.Clone()
	var entries []la.COOEntry
	for i := 0; i < p.a.Dim(); i++ {
		j.VisitRow(i, func(col int, v float64) {
			add := 0.0
			if col == i {
				add = 0.9 * u[i] * u[i]
			}
			entries = append(entries, la.COOEntry{Row: i, Col: col, Val: v + add})
		})
	}
	return la.MustCSR(p.a.Dim(), entries)
}

func TestSolveNonlinearNewton(t *testing.T) {
	a := la.Tridiag(3, -0.2, 0.8, -0.2)
	b := la.VectorOf(0.4, 0.1, -0.3)
	p := &cubicProblem{a: a, b: b}
	spec := chip.ScaledSpec(3, 12, 20e3, 4)
	acc := simAcc(t, spec)
	u, stats, err := acc.SolveNonlinear(p, la.NewVector(3), NewtonOptions{
		Tolerance: 1e-6,
		Inner:     SolveOptions{Tolerance: 1e-7},
	})
	if err != nil {
		t.Fatalf("%v (stats %+v)", err, stats)
	}
	f := la.NewVector(3)
	p.Eval(f, u)
	if f.NormInf() > 1e-6 {
		t.Fatalf("‖F(u)‖=%v", f.NormInf())
	}
	if stats.Iterations < 2 {
		t.Fatalf("Newton converged suspiciously fast: %d iterations", stats.Iterations)
	}
	if stats.AnalogTime <= 0 || stats.Runs == 0 {
		t.Fatalf("Newton stats not accounted: %+v", stats)
	}
	// Cross-check against a fully digital Newton.
	ud := la.NewVector(3)
	for it := 0; it < 50; it++ {
		fd := la.NewVector(3)
		p.Eval(fd, ud)
		if fd.NormInf() <= 1e-12 {
			break
		}
		step, err := solvers.SolveCSRDirect(p.Jacobian(ud), fd.Scaled(-1))
		if err != nil {
			t.Fatal(err)
		}
		ud.Add(step)
	}
	if !u.Equal(ud, 1e-5) {
		t.Fatalf("analog Newton %v vs digital %v", u, ud)
	}
}

func TestSolveNonlinearValidation(t *testing.T) {
	a := la.Tridiag(2, -0.1, 0.5, -0.1)
	p := &cubicProblem{a: a, b: la.VectorOf(0.1, 0.1)}
	acc := simAcc(t, chip.PrototypeSpec())
	if _, _, err := acc.SolveNonlinear(p, la.NewVector(3), NewtonOptions{}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
}

func TestSolveZeroRHS(t *testing.T) {
	acc := simAcc(t, chip.PrototypeSpec())
	a, _ := eq2System()
	u, stats, err := acc.Solve(a, la.NewVector(2), SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if u.Norm2() != 0 || stats.Runs != 0 {
		t.Fatalf("zero rhs: u=%v stats=%+v", u, stats)
	}
}

// Property: SolveRefined matches LU on random well-scaled SPD 3x3 systems
// within the refinement tolerance, on a chip sized to fit them.
func TestPropRefinedMatchesDirect(t *testing.T) {
	spec := chip.ScaledSpec(3, 12, 20e3, 4)
	spec.FanoutsPerMB = 3
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := la.NewDense(3, 3)
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				m.Set(i, j, r.NormFloat64())
			}
		}
		ad := m.Transpose().Mul(m)
		for i := 0; i < 3; i++ {
			ad.Addf(i, i, 3)
		}
		a := la.CSRFromDense(ad)
		b := la.VectorOf(r.NormFloat64(), r.NormFloat64(), r.NormFloat64())
		acc, _, err := NewSimulated(spec)
		if err != nil {
			return false
		}
		u, _, err := acc.SolveRefined(a, b, SolveOptions{Tolerance: 1e-6})
		if err != nil {
			return false
		}
		want, err := solvers.SolveCSRDirect(a, b)
		if err != nil {
			return false
		}
		return u.Equal(want, 1e-4*math.Max(1, want.NormInf()))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestUnresolvableConditioningDetected(t *testing.T) {
	// 1-D Poisson at L=64 has κ(A_s) ≈ 1700: beyond what an 8-bit reading
	// can verify. The driver must refuse rather than return garbage.
	g, _ := la.NewGrid(1, 64)
	a := la.PoissonMatrix(g)
	exact := la.NewVector(g.N())
	for i := range exact {
		x := float64(i+1) * g.H()
		exact[i] = x * (1 - x) * (1 + x)
	}
	b := la.NewVector(g.N())
	a.Apply(b, exact)
	spec8 := chip.ScaledSpec(64, 8, 20e3, 4)
	spec8.FanoutsPerMB = 2
	acc8, _, err := NewSimulated(spec8)
	if err != nil {
		t.Fatal(err)
	}
	hint := exact.NormInf() * 1.1
	_, _, err = acc8.Solve(a, b, SolveOptions{SigmaHint: hint, DisableBoost: true})
	if !errors.Is(err, ErrUnresolvable) {
		t.Fatalf("8-bit solve of κ≈1700 system: err=%v want ErrUnresolvable", err)
	}
	// The same problem at 12 bits is verifiable and accurate.
	spec12 := chip.ScaledSpec(64, 12, 20e3, 4)
	spec12.FanoutsPerMB = 2
	acc12, _, err := NewSimulated(spec12)
	if err != nil {
		t.Fatal(err)
	}
	u, stats, err := acc12.Solve(a, b, SolveOptions{SigmaHint: hint, DisableBoost: true})
	if err != nil {
		t.Fatal(err)
	}
	if rel := la.Sub2(u, exact).NormInf() / exact.NormInf(); rel > 0.05 {
		t.Fatalf("12-bit relative error %v", rel)
	}
	if stats.SettleTime <= 0 {
		t.Fatal("no settle time recorded")
	}
}

// Property: uniform scaling invariance (the inset, part 1, as a property):
// Solve(c·A, c·b) returns the same solution as Solve(A, b) for any c > 0,
// because value scaling normalizes the chip program.
func TestPropUniformScalingInvariance(t *testing.T) {
	spec := chip.PrototypeSpec()
	spec.ADCBits = 12
	spec.DACBits = 12
	base, rhs := eq2System()
	ref, _, err := func() (la.Vector, Stats, error) {
		acc := simAcc(t, spec)
		return acc.Solve(base, rhs, SolveOptions{})
	}()
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := math.Exp(r.Float64()*12 - 6) // 2.5e-3 .. 4e2
		acc, _, err := NewSimulated(spec)
		if err != nil {
			return false
		}
		u, _, err := acc.Solve(base.Scaled(c), rhs.Scaled(c), SolveOptions{})
		if err != nil {
			return false
		}
		return u.Equal(ref, 0.005)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolChipEnginesIdentical runs the serve pool's class-16 chip — the
// shape every pooled analog solve settles on, with its unprogrammed LUTs,
// idle inputs, unused multipliers and ADC taps — through a refined solve
// on the reference interpreter and on the fused kernel. The answer must
// be bit-identical and the cost accounting equal. The cold start rescales
// on overflow exceptions, so the chip's exception vector (the simulator's
// latch store, read over the ISA) is compared end to end as well.
func TestPoolChipEnginesIdentical(t *testing.T) {
	const n = 16
	rng := rand.New(rand.NewSource(3))
	var entries []la.COOEntry
	for i := 0; i < n; i++ {
		entries = append(entries, la.COOEntry{Row: i, Col: i, Val: 4 + rng.Float64()})
		for d := 1; d <= 2 && i+d < n; d++ {
			v := -(0.4 + 0.5*rng.Float64()) / float64(d)
			entries = append(entries,
				la.COOEntry{Row: i, Col: i + d, Val: v}, la.COOEntry{Row: i + d, Col: i, Val: v})
		}
	}
	a := la.MustCSR(n, entries)
	b := make(la.Vector, n)
	for i := range b {
		b[i] = rng.Float64()*2 - 1
	}
	solve := func(engine string) (la.Vector, Stats) {
		spec := chip.ScaledSpec(16, 12, 20e3, 8)
		spec.Seed = 1
		spec.Engine = engine
		acc := simAcc(t, spec)
		if _, err := acc.Calibrate(); err != nil {
			t.Fatal(err)
		}
		u, stats, err := acc.SolveRefined(a, b, SolveOptions{Tolerance: 1e-8})
		if err != nil {
			t.Fatalf("%s: %v", engine, err)
		}
		return u, stats
	}
	uRef, statsRef := solve("interpreter")
	uFused, statsFused := solve("fused")
	for i := range uRef {
		if math.Float64bits(uRef[i]) != math.Float64bits(uFused[i]) {
			t.Fatalf("u[%d]: interpreter %v, fused %v", i, uRef[i], uFused[i])
		}
	}
	if statsRef != statsFused {
		t.Fatalf("stats diverge:\ninterpreter %+v\nfused       %+v", statsRef, statsFused)
	}
	if statsFused.Overflows == 0 || statsFused.Refinements == 0 {
		t.Fatalf("solve never overflowed or refined, so the test covers less than it claims: %+v", statsFused)
	}
}
