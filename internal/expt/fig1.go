package expt

import (
	"context"
	"fmt"

	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/ev"
)

func init() {
	register("fig1", runFig1)
}

// runFig1 reproduces Figure 1: effectiveness of the algorithms in
// reducing uncertainty in claim *fairness* (a modular MinVar objective)
// on Adoptions (a, b), CDC-firearms (c), and CDC-causes (d).
func runFig1(ctx context.Context, scale Scale, seed uint64) ([]*Figure, error) {
	fracs := budgetGrid(scale)
	var out []*Figure

	type spec struct {
		id, title string
		w         Workload
		random    bool
	}
	specs := []spec{
		{"fig1a", "Variance in fairness after cleaning (Adoptions)", AdoptionsFairness(seed), true},
		{"fig1c", "Variance in fairness after cleaning (CDC-firearms)", FirearmsFairness(seed), false},
		{"fig1d", "Variance in fairness after cleaning (CDC-causes)", CausesFairness(seed), false},
	}
	for _, sp := range specs {
		fig, err := fairnessFigure(ctx, sp.id, sp.title, sp.w, fracs, sp.random, scale, seed)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
		if sp.id == "fig1a" {
			out = append(out, zoomFigure(fig))
		}
	}
	return out, nil
}

// fairnessFigure runs the modular-objective algorithm set of §4.1 on one
// workload.
func fairnessFigure(ctx context.Context, id, title string, w Workload, fracs []float64, withRandom bool, scale Scale, seed uint64) (*Figure, error) {
	bias := w.Set.Bias()
	engine, err := ev.NewModular(w.DB, bias)
	if err != nil {
		return nil, err
	}
	metric := engine.EV

	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "budget (fraction)",
		YLabel: "variance in fairness after cleaning",
		Notes: []string{
			fmt.Sprintf("m=%d perturbations; initial variance %.6g", w.Set.M(), engine.Variance()),
		},
	}
	if withRandom {
		s, err := sweepRandomAvg(ctx, w.DB, fracs, randomReps(scale), seed+1, metric)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	vars := bias.Vars()
	selectors := []core.Selector{
		&core.GreedyNaiveCostBlind{DB: w.DB, Vars: vars},
		core.NewGreedyNaive(w.DB, vars),
	}
	gmv, err := core.NewGreedyMinVarModular(w.DB, bias)
	if err != nil {
		return nil, err
	}
	opt, err := core.NewOptimumModular(w.DB, bias)
	if err != nil {
		return nil, err
	}
	selectors = append(selectors, gmv, opt)
	for _, sel := range selectors {
		s, err := sweepSelector(ctx, w.DB, sel, fracs, metric)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// zoomFigure derives Figure 1(b): the low-budget zoom of 1(a) without the
// Random baseline.
func zoomFigure(a *Figure) *Figure {
	z := &Figure{
		ID:     "fig1b",
		Title:  a.Title + " — zoomed, no Random",
		XLabel: a.XLabel,
		YLabel: a.YLabel,
		Notes:  a.Notes,
	}
	for _, s := range a.Series {
		if s.Name == "Random" {
			continue
		}
		zs := Series{Name: s.Name}
		for _, p := range s.Points {
			if p.X <= 0.3 {
				zs.Points = append(zs.Points, p)
			}
		}
		z.Series = append(z.Series, zs)
	}
	return z
}
