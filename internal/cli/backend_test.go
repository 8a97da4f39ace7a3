package cli

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"analogacc/internal/chip"
	"analogacc/internal/core"
	"analogacc/internal/la"
)

func eq2() (*la.CSR, la.Vector) {
	a := la.MustCSR(2, []la.COOEntry{
		{Row: 0, Col: 0, Val: 0.8}, {Row: 0, Col: 1, Val: 0.2},
		{Row: 1, Col: 0, Val: 0.2}, {Row: 1, Col: 1, Val: 0.6},
	})
	return a, la.VectorOf(0.5, 0.3)
}

func TestBackendRegistry(t *testing.T) {
	for _, want := range []string{"analog", "analog-refined", "decomposed", "cg", "jacobi", "gs", "sor", "steepest", "direct"} {
		if !ValidBackend(want) {
			t.Errorf("ValidBackend(%q) = false", want)
		}
	}
	for _, bad := range []string{"", "typo", "Analog", "cg "} {
		if ValidBackend(bad) {
			t.Errorf("ValidBackend(%q) = true", bad)
		}
	}
	if len(Backends()) != 9 {
		t.Fatalf("backend registry drifted: %v", Backends())
	}
}

func TestSolveSystemAllBackends(t *testing.T) {
	a, b := eq2()
	for _, backend := range Backends() {
		out, err := SolveSystem(context.Background(), backend, a, b, SolveParams{Tol: 1e-6})
		if err != nil {
			t.Errorf("%s: %v", backend, err)
			continue
		}
		if r := la.RelativeResidual(a, out.U, b); r > 1e-2 {
			t.Errorf("%s: residual %v", backend, r)
		}
		if out.Note == "" {
			t.Errorf("%s: empty cost note", backend)
		}
		// The decomposed backend is analog too, but routed through a
		// WorkerProvider rather than a single checked-out chip.
		analog := IsAnalogBackend(backend) || backend == BackendDecomposed
		if analog != out.Analog {
			t.Errorf("%s: Analog flag %v", backend, out.Analog)
		}
		if out.Analog && out.AnalogTime <= 0 {
			t.Errorf("%s: no analog time accounted", backend)
		}
	}
}

func TestSolveSystemUnknownBackend(t *testing.T) {
	a, b := eq2()
	if _, err := SolveSystem(context.Background(), "typo", a, b, SolveParams{}); err == nil {
		t.Fatal("unknown backend must fail")
	}
}

func TestSolveSystemReusesProvidedChip(t *testing.T) {
	a, b := eq2()
	acc, _, err := core.NewSimulated(SpecFor(a, 12, 20e3))
	if err != nil {
		t.Fatal(err)
	}
	before := acc.AnalogTime()
	out, err := SolveSystem(context.Background(), BackendAnalogRefined, a, b, SolveParams{Acc: acc, Tol: 1e-7})
	if err != nil {
		t.Fatal(err)
	}
	if acc.AnalogTime() <= before {
		t.Fatal("provided accelerator was not the one that solved")
	}
	if r := la.RelativeResidual(a, out.U, b); r > 1e-6 {
		t.Fatalf("residual %v", r)
	}
}

func TestSolveSystemBatch(t *testing.T) {
	a, _ := eq2()
	rhs := []la.Vector{la.VectorOf(0.5, 0.3), la.VectorOf(-0.2, 0.4), la.VectorOf(0.1, -0.6)}
	for _, backend := range []string{BackendAnalog, BackendAnalogRefined, "cg", BackendDirect} {
		outs, err := SolveSystemBatch(context.Background(), backend, a, rhs, SolveParams{Tol: 1e-6})
		if err != nil {
			t.Errorf("%s: %v", backend, err)
			continue
		}
		if len(outs) != len(rhs) {
			t.Errorf("%s: %d outcomes for %d rhs", backend, len(outs), len(rhs))
			continue
		}
		for k, out := range outs {
			if r := la.RelativeResidual(a, out.U, rhs[k]); r > 1e-2 {
				t.Errorf("%s rhs %d: residual %v", backend, k, r)
			}
		}
	}
}

func TestSolveSystemBatchAmortizesConfiguration(t *testing.T) {
	a, _ := eq2()
	rhs := []la.Vector{la.VectorOf(0.5, 0.3), la.VectorOf(-0.2, 0.4), la.VectorOf(0.1, -0.6)}
	acc, _, err := core.NewSimulated(SpecFor(a, 12, 20e3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SolveSystemBatch(context.Background(), BackendAnalogRefined, a, rhs, SolveParams{Acc: acc, Tol: 1e-6}); err != nil {
		t.Fatal(err)
	}
	if got := acc.Configurations(); got != 1 {
		t.Fatalf("batch of %d cost %d matrix configurations, want 1", len(rhs), got)
	}
}

func TestSolveSystemBatchEmpty(t *testing.T) {
	a, _ := eq2()
	if _, err := SolveSystemBatch(context.Background(), BackendAnalogRefined, a, nil, SolveParams{}); err == nil {
		t.Fatal("empty batch must fail")
	}
}

func TestSolveSystemCancelled(t *testing.T) {
	a, b := eq2()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := SolveSystem(ctx, BackendAnalogRefined, a, b, SolveParams{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// Digital backends check the context too, before dispatch.
	_, err = SolveSystem(ctx, "cg", a, b, SolveParams{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cg: want context.Canceled, got %v", err)
	}
}

// bandedSystem is TestPoolChipEnginesIdentical's system: a symmetric
// banded n = 16 operator with a random right-hand side.
func bandedSystem() (*la.CSR, la.Vector) {
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
	b := make(la.Vector, n)
	for i := range b {
		b[i] = rng.Float64()*2 - 1
	}
	return la.MustCSR(n, entries), b
}

// poisson64 is TestUnresolvableConditioningDetected's system: 1-D Poisson
// at L = 64, κ(A_s) ≈ 1700, beyond what an 8-bit reading can verify.
func poisson64() (*la.CSR, la.Vector) {
	g, _ := la.NewGrid(1, 64)
	a := la.PoissonMatrix(g)
	exact := la.NewVector(g.N())
	for i := range exact {
		x := float64(i+1) * g.H()
		exact[i] = x * (1 - x) * (1 + x)
	}
	b := la.NewVector(g.N())
	a.Apply(b, exact)
	return a, b
}

// TestSoloIsOneItemBatch holds SolveSystem(b) to SolveSystemBatch([b]) on
// identically seeded chips, for both analog backends: the same U bit for
// bit, every cost field and the note — or, on an 8-bit chip that cannot
// verify the system, the same ErrUnresolvable text. A solo analog solve
// is a one-item batch, so nothing may tell them apart.
func TestSoloIsOneItemBatch(t *testing.T) {
	eq2A, eq2B := eq2()
	proto := chip.PrototypeSpec()
	proto.Seed = 5
	bandA, bandB := bandedSystem()
	class16 := chip.ScaledSpec(16, 12, 20e3, 8) // the serve pool's class-16 chip
	class16.FanoutsPerMB = 2
	class16.Seed = 1
	poisA, poisB := poisson64()
	bits8 := chip.ScaledSpec(64, 8, 20e3, 4)
	bits8.FanoutsPerMB = 2
	cases := []struct {
		name         string
		spec         chip.Spec
		a            *la.CSR
		b            la.Vector
		unresolvable bool
	}{
		{"eq2-prototype", proto, eq2A, eq2B, false},
		{"banded16-class16", class16, bandA, bandB, false},
		{"poisson64-8bit", bits8, poisA, poisB, true},
	}
	for _, c := range cases {
		for _, backend := range []string{BackendAnalog, BackendAnalogRefined} {
			p := func() SolveParams {
				acc, _, err := core.NewSimulated(c.spec)
				if err != nil {
					t.Fatal(err)
				}
				return SolveParams{Tol: 1e-8, Calibrate: true, Acc: acc}
			}
			solo, soloErr := SolveSystem(context.Background(), backend, c.a, c.b, p())
			outs, batchErr := SolveSystemBatch(context.Background(), backend, c.a, []la.Vector{c.b}, p())
			if c.unresolvable {
				if !errors.Is(soloErr, core.ErrUnresolvable) || !errors.Is(batchErr, core.ErrUnresolvable) {
					t.Fatalf("%s %s: solo %v, one-item batch %v; want ErrUnresolvable from both", c.name, backend, soloErr, batchErr)
				}
				if soloErr.Error() != batchErr.Error() {
					t.Errorf("%s %s: solo fails with %q, one-item batch with %q", c.name, backend, soloErr, batchErr)
				}
				continue
			}
			if soloErr != nil || batchErr != nil {
				t.Fatalf("%s %s: solo %v, one-item batch %v", c.name, backend, soloErr, batchErr)
			}
			batch := outs[0]
			for i := range solo.U {
				if math.Float64bits(solo.U[i]) != math.Float64bits(batch.U[i]) {
					t.Fatalf("%s %s u[%d]: solo %v, one-item batch %v", c.name, backend, i, solo.U[i], batch.U[i])
				}
			}
			if solo.Runs == 0 {
				t.Errorf("%s %s: the chip never ran", c.name, backend)
			}
			solo.U, batch.U = nil, nil
			if !reflect.DeepEqual(solo, batch) {
				t.Errorf("%s %s outcomes differ:\nsolo  %+v\nbatch %+v", c.name, backend, solo, batch)
			}
		}
	}
}
