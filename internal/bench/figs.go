package bench

import (
	"fmt"

	"analogacc/internal/la"
	"analogacc/internal/model"
	"analogacc/internal/pde"
	"analogacc/internal/solvers"
)

func init() {
	register(Experiment{
		ID:    "fig10",
		Title: "Maximum-activity power of analog accelerators vs grid points held",
		Run:   runFig10,
	})
	register(Experiment{
		ID:    "fig11",
		Title: "Area of analog accelerators vs grid points held",
		Run:   runFig11,
	})
	register(Experiment{
		ID:    "fig12",
		Title: "Solution energy vs grid points: analog designs vs GPU running CG",
		Run:   runFig12,
	})
}

// figNs returns the grid-point sweep for the power/area/energy figures.
func figNs(quick bool, max int) []int {
	full := []int{128, 256, 512, 768, 1024, 1536, 2048}
	if quick {
		full = []int{64, 256, 1024}
	}
	var out []int
	for _, n := range full {
		if n <= max {
			out = append(out, n)
		}
	}
	return out
}

// runFig10 reproduces Figure 10: power vs simultaneously held grid points
// per bandwidth design; series end at the 600 mm² die cap.
func runFig10(cfg Config) (*Table, error) {
	comp := model.MacroblockComplement()
	designs := model.PaperBandwidths()
	cols := []string{"N"}
	for _, bw := range designs {
		cols = append(cols, fmt.Sprintf("%s power (W)", bwLabel(bw)))
	}
	t := &Table{ID: "fig10", Title: "Maximum activity power (W) vs grid points", Columns: cols}
	ns := figNs(cfg.Quick, 2048)
	rows := make([][]interface{}, len(ns))
	if err := runPoints(cfg, len(ns), func(i int) error {
		n := ns[i]
		row := []interface{}{n}
		for _, bw := range designs {
			d := model.Design{BandwidthHz: bw}
			if n > d.MaxGridPoints(comp) {
				row = append(row, "")
				continue
			}
			row = append(row, fmt.Sprintf("%.4f", d.Power(n, comp)))
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	d20 := model.Design{BandwidthHz: 20e3}
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper expectation: ~0.7 W for the base design filling 600 mm²; model gives %.2f W at its %d-point capacity",
			d20.Power(d20.MaxGridPoints(comp), comp), d20.MaxGridPoints(comp)),
	)
	return t, nil
}

// runFig11 reproduces Figure 11: area vs grid points per design.
func runFig11(cfg Config) (*Table, error) {
	comp := model.MacroblockComplement()
	designs := model.PaperBandwidths()
	cols := []string{"N"}
	for _, bw := range designs {
		cols = append(cols, fmt.Sprintf("%s area (mm^2)", bwLabel(bw)))
	}
	t := &Table{ID: "fig11", Title: "Accelerator area (mm²) vs grid points", Columns: cols}
	ns := figNs(cfg.Quick, 2048)
	rows := make([][]interface{}, len(ns))
	if err := runPoints(cfg, len(ns), func(i int) error {
		n := ns[i]
		row := []interface{}{n}
		for _, bw := range designs {
			d := model.Design{BandwidthHz: bw}
			area := d.Area(n, comp)
			if area > model.MaxDieAreaMM2 {
				row = append(row, "")
				continue
			}
			row = append(row, fmt.Sprintf("%.1f", area))
		}
		rows[i] = row
		return nil
	}); err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("paper anchor: 650 integrators ≈ 150 mm²; model gives %.0f mm²",
			(model.Design{BandwidthHz: 20e3}).Area(650, comp)),
	)
	return t, nil
}

// runFig12 reproduces Figure 12: energy to solve a 2-D problem vs grid
// points, for each analog design against the paper's GPU CG energy model
// (225 pJ per multiply-add, MAC counts measured from the real CG run).
func runFig12(cfg Config) (*Table, error) {
	const adcBits = 8
	comp := model.MacroblockComplement()
	designs := model.PaperBandwidths()
	cols := []string{"N", "GPU CG 1/256 (J)", "GPU CG fp64 (J)"}
	for _, bw := range designs {
		cols = append(cols, fmt.Sprintf("%s (J)", bwLabel(bw)))
	}
	cols = append(cols, "20kHz sim (J)")
	t := &Table{ID: "fig12", Title: "Solution energy (J) vs grid points, 2-D Poisson", Columns: cols}

	ls := fig8Ls(cfg.Quick)
	rows := make([][]interface{}, len(ls))
	err := runPoints(cfg, len(ls), func(i int) error {
		l := ls[i]
		prob, err := pde.Poisson(2, l)
		if err != nil {
			return err
		}
		n := prob.Grid.N()
		cfg.logf("fig12: L=%d (N=%d)", l, n)
		_, _, macs, err := digitalCG(prob)
		if err != nil {
			return err
		}
		// Second baseline: CG run to double-precision limits, the digital
		// practice Section VI-D describes ("the digital algorithm can
		// continue operating ... until precision is limited by the
		// precision of floating point numbers"). The paper's relative
		// energy claim only emerges against this baseline.
		st := la.NewPoissonStencil(prob.Grid)
		fp64, err := solvers.CG(st, prob.B, solvers.Options{Tol: 1e-14, MaxIter: 100 * n})
		if err != nil {
			return err
		}
		row := []interface{}{n,
			fmt.Sprintf("%.3e", model.GPUEnergyCG(macs)),
			fmt.Sprintf("%.3e", model.GPUEnergyCG(fp64.MACs))}
		for _, bw := range designs {
			d := model.Design{BandwidthHz: bw}
			if n > d.MaxGridPoints(comp) {
				row = append(row, "")
				continue
			}
			row = append(row, fmt.Sprintf("%.3e", d.SolveEnergyPoisson(2, l, adcBits, comp)))
		}
		// Behavioural cross-check at the prototype bandwidth: simulated
		// analog seconds × the model's power for this capacity.
		sim, err := analogCell(prob, adcBits, func(simTime float64) string {
			return fmt.Sprintf("%.3e", simTime*(model.Design{BandwidthHz: 20e3}).Power(n, comp))
		})
		if err != nil {
			return err
		}
		row = append(row, sim)
		rows[i] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, row := range rows {
		t.AddRow(row...)
	}
	t.Notes = append(t.Notes,
		"paper expectation: the 80 kHz design shows energy savings relative to the GPU within a window of problem sizes; gains cease past 80 kHz; high-bandwidth designs are cut short by the 600 mm² area cap",
		"fidelity note: with the paper's constants and the 1/256 equal-precision stop, the GPU baseline wins everywhere; the paper's ~33% saving emerges against the fp64-converged CG column (see EXPERIMENTS.md)",
	)
	noteUnresolvable(t, adcBits)
	return t, nil
}
