package bench

import (
	"fmt"
	"time"

	"analogacc/internal/core"
	"analogacc/internal/dda"
	"analogacc/internal/la"
	"analogacc/internal/pde"
	"analogacc/internal/solvers"
)

func init() {
	register(Experiment{
		ID:    "dda",
		Title: "Three substrates on one gradient flow: analog chip vs digital differential analyzer vs floating-point CPU (Section VII)",
		Run:   runDDACompare,
	})
}

// runDDACompare solves the same small Poisson system by continuous-time
// gradient flow on the analog accelerator, by incremental fixed-point
// gradient flow on a DDA, and by floating-point CG — the three computing
// styles whose lineage Section VII traces. Reported: solution error,
// virtual solve time, and the machine-specific cost metric.
func runDDACompare(cfg Config) (*Table, error) {
	l := 3
	if !cfg.Quick {
		l = 4
	}
	prob, err := pde.Poisson(2, l)
	if err != nil {
		return nil, err
	}
	n := prob.Grid.N()
	want, err := solvers.SolveCSRDirect(prob.A, prob.B)
	if err != nil {
		return nil, err
	}
	relErr := func(u la.Vector) string {
		return fmt.Sprintf("%.2e", la.Sub2(u, want).NormInf()/want.NormInf())
	}
	t := &Table{
		ID:      "dda",
		Title:   fmt.Sprintf("Gradient-flow solve of 2-D Poisson N=%d on three substrates", n),
		Columns: []string{"substrate", "solution error", "virtual time", "cost metric"},
	}

	// Analog accelerator, one run at 12 bits.
	cfg.logf("dda: analog substrate")
	spec := analogSpecFor(2, n, 12, 20e3)
	acc, _, err := core.NewSimulated(spec)
	if err != nil {
		return nil, err
	}
	u, stats, err := acc.Solve(prob.A, prob.B, core.SolveOptions{})
	if err != nil {
		return nil, err
	}
	t.AddRow("analog 20kHz 12-bit", relErr(u),
		fmt.Sprintf("%.3e s analog", stats.SettleTime),
		fmt.Sprintf("%d chip runs", stats.Runs))

	// DDA: same wiring, fixed-point increments. Coefficients exceed unit
	// weights, so value scaling applies exactly as on the analog side.
	cfg.logf("dda: DDA substrate")
	s := prob.A.MaxAbs() / 0.95
	width := uint(22)
	if cfg.Quick {
		width = 18 // 16× fewer cycles; still well under 1% error
	}
	m, err := dda.NewMachine(width)
	if err != nil {
		return nil, err
	}
	sigma := want.NormInf() * 1.3
	units := make([]*dda.Integrator, n)
	for i := range units {
		if units[i], err = m.AddIntegrator(0); err != nil {
			return nil, err
		}
	}
	for i := 0; i < n; i++ {
		var werr error
		prob.A.VisitRow(i, func(j int, v float64) {
			if werr == nil {
				werr = m.Connect(units[j], units[i], -v/s)
			}
		})
		if werr != nil {
			return nil, werr
		}
		if err := m.Bias(units[i], prob.B[i]/(s*sigma)); err != nil {
			return nil, err
		}
	}
	elapsed, settled := m.RunUntilSettled(1<<16, 2, 300)
	if !settled {
		return nil, fmt.Errorf("bench: DDA did not settle in %v virtual s", elapsed)
	}
	ud := la.NewVector(n)
	for i := range ud {
		ud[i] = m.Value(units[i]) * sigma
	}
	t.AddRow(fmt.Sprintf("DDA %d-bit serial", width), relErr(ud),
		fmt.Sprintf("%.3e machine-s", elapsed),
		fmt.Sprintf("%d cycles", m.Cycles()))

	// Floating-point CG on the CPU.
	cfg.logf("dda: CPU substrate")
	start := time.Now()
	res, err := solvers.CG(prob.A, prob.B, solvers.Options{Tol: 1e-12})
	if err != nil {
		return nil, err
	}
	t.AddRow("CPU fp64 CG", relErr(res.X),
		fmt.Sprintf("%.3e s wall", time.Since(start).Seconds()),
		fmt.Sprintf("%d iterations, %d MACs", res.Iterations, res.MACs))
	t.markTimed(2)

	t.Notes = append(t.Notes,
		"all three integrate/iterate the same du/dt = b − A·u flow; the DDA, like the analog computer, carries unit-bounded coefficients and needs the same value scaling (Section VII: DDAs \"faced difficulties in number dynamic range and scaling\")",
	)
	return t, nil
}
