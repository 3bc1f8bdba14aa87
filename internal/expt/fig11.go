package expt

import (
	"context"
	"fmt"

	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/query"
)

func init() {
	register("fig11", runFig11)
}

// runFig11 reproduces Figure 11: effectiveness under injected data
// dependencies on CDC-firearms. Dependency-blind algorithms (everything
// from §4.1 plus the modular Optimum) compete against the exhaustive OPT
// and the dependency-aware GreedyDep; every chosen set is scored with the
// *true* (Schur) expected variance.
func runFig11(ctx context.Context, scale Scale, seed uint64) ([]*Figure, error) {
	// (a) γ = 0.7, budget sweep.
	w := FirearmsFairness(seed)
	bias := w.Set.Bias()
	w.DB.SetDecayCovariance(0.7)
	trueEng, err := ev.NewMVN(w.DB, bias)
	if err != nil {
		return nil, err
	}
	fracs := budgetGrid(scale)
	figA := &Figure{
		ID:     "fig11a",
		Title:  "Variance in fairness after cleaning, injected dependency γ=0.7 (CDC-firearms)",
		XLabel: "budget (fraction)",
		YLabel: "true variance in fairness after cleaning",
		Notes:  []string{fmt.Sprintf("initial variance %.6g", trueEng.Variance())},
	}
	selectors, err := fig11Selectors(w, bias)
	if err != nil {
		return nil, err
	}
	for _, sel := range selectors {
		s, err := sweepSelector(ctx, w.DB, sel, fracs, trueEng.EV)
		if err != nil {
			return nil, err
		}
		figA.Series = append(figA.Series, s)
	}

	// (b) budget 30%, γ sweep.
	gammas := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99}
	if scale == Small {
		gammas = []float64{0, 0.3, 0.6, 0.9}
	}
	figB := &Figure{
		ID:     "fig11b",
		Title:  "Variance in fairness vs dependency strength γ (budget 30%)",
		XLabel: "gamma",
		YLabel: "true variance in fairness after cleaning",
	}
	series := map[string]*Series{
		"GreedyMinVar": {Name: "GreedyMinVar"},
		"OPT":          {Name: "OPT"},
		"GreedyDep":    {Name: "GreedyDep"},
	}
	for _, gamma := range gammas {
		wg := FirearmsFairness(seed)
		biasG := wg.Set.Bias()
		wg.DB.SetDecayCovariance(gamma)
		eng, err := ev.NewMVN(wg.DB, biasG)
		if err != nil {
			return nil, err
		}
		budget := wg.DB.Budget(0.3)

		gmv, err := core.NewGreedyMinVarModular(stripCov(wg.DB), biasG)
		if err != nil {
			return nil, err
		}
		opt, err := core.NewOPTMinVar(wg.DB, eng)
		if err != nil {
			return nil, err
		}
		dep, err := core.NewGreedyDep(wg.DB, biasG)
		if err != nil {
			return nil, err
		}
		for _, c := range []struct {
			name string
			sel  core.Selector
		}{{"GreedyMinVar", gmv}, {"OPT", opt}, {"GreedyDep", dep}} {
			T, err := core.SelectWithContext(ctx, c.sel, budget)
			if err != nil {
				return nil, err
			}
			series[c.name].Points = append(series[c.name].Points, Point{X: gamma, Y: eng.EV(T)})
		}
	}
	for _, name := range []string{"GreedyMinVar", "OPT", "GreedyDep"} {
		figB.Series = append(figB.Series, *series[name])
	}
	return []*Figure{figA, figB}, nil
}

// fig11Selectors assembles the Figure 11(a) algorithm roster.
func fig11Selectors(w Workload, bias *query.Affine) ([]core.Selector, error) {
	blind := stripCov(w.DB) // dependency-unaware view of the data
	vars := bias.Vars()
	gmv, err := core.NewGreedyMinVarModular(blind, bias)
	if err != nil {
		return nil, err
	}
	opt, err := core.NewOptimumModular(blind, bias)
	if err != nil {
		return nil, err
	}
	trueEng, err := ev.NewMVN(w.DB, bias)
	if err != nil {
		return nil, err
	}
	exh, err := core.NewOPTMinVar(w.DB, trueEng)
	if err != nil {
		return nil, err
	}
	dep, err := core.NewGreedyDep(w.DB, bias)
	if err != nil {
		return nil, err
	}
	return []core.Selector{
		&core.GreedyNaiveCostBlind{DB: blind, Vars: vars},
		core.NewGreedyNaive(blind, vars),
		gmv,
		opt,
		exh,
		dep,
	}, nil
}

// stripCov returns a dependency-blind shallow copy of the database.
func stripCov(db *model.DB) *model.DB {
	return &model.DB{Objects: db.Objects}
}
