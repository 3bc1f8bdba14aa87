package expt

import (
	"context"
	"fmt"
	"math"

	"github.com/factcheck/cleansel/internal/claims"
	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/rng"
)

func init() {
	register("fig12", runFig12)
}

// adoptionsWindowSums builds the simplified Figure 12 workload: the claim
// is a 4-year window sum over Adoptions, perturbed by the non-overlapping
// windows; current values are NOT the distribution means.
func adoptionsWindowSums(seed uint64) Workload {
	db := datasets.Adoptions(seed)
	origStart := 20 // the last complete non-overlapping window (2009–2012)
	orig := claims.WindowSum("adoptions-4y", origStart, 4)
	perturbs := claims.NonOverlappingWindows("w", db.N(), 4, origStart, lambdaDecay)
	set, err := claims.NewSet(orig, claims.HigherIsStronger, orig.Eval(db.Currents()), perturbs)
	if err != nil {
		panic(err)
	}
	return Workload{DB: db, Set: set}
}

// runFig12 reproduces Figure 12: when current values deviate from the
// error-model means (they are redrawn from the distributions), the MinVar
// optimizer (Optimum) and the MaxPr optimizer (GreedyMaxPr) pursue
// genuinely different goals. Each algorithm is measured under BOTH
// objectives; the MaxPr metric is averaged over redraws of the current
// values, as in the paper (100 runs).
func runFig12(ctx context.Context, scale Scale, seed uint64) ([]*Figure, error) {
	w := adoptionsWindowSums(seed)
	bias := w.Set.Bias()
	modular, err := ev.NewModular(w.DB, bias)
	if err != nil {
		return nil, err
	}
	tau := 1.5 * math.Sqrt(modular.Variance())
	reps := 100
	if scale == Small {
		reps = 20
	}
	fracs := budgetGrid(scale)

	figVar := &Figure{
		ID:     "fig12a",
		Title:  "Competing objectives — expected variance (MinVar objective)",
		XLabel: "budget (fraction)",
		YLabel: "expected variance after cleaning",
		Notes:  []string{fmt.Sprintf("tau = %.4g (1.5·sd of bias)", tau)},
	}
	figPr := &Figure{
		ID:     "fig12b",
		Title:  "Competing objectives — probability of countering (MaxPr objective)",
		XLabel: "budget (fraction)",
		YLabel: "probability",
		Notes:  []string{fmt.Sprintf("averaged over %d redraws of current values", reps)},
	}

	// The MinVar side: Optimum's choices are independent of the current
	// values, so compute them once per budget.
	opt, err := core.NewOptimumModular(w.DB, bias)
	if err != nil {
		return nil, err
	}
	optSets := make([]model.Set, len(fracs))
	for i, frac := range fracs {
		T, err := core.SelectWithContext(ctx, opt, w.DB.Budget(frac))
		if err != nil {
			return nil, err
		}
		optSets[i] = T
	}

	r := rng.New(seed ^ 0xf16)
	ns, ok := w.DB.Normals()
	if !ok {
		return nil, fmt.Errorf("fig12: adoptions values must be normal")
	}
	// Accumulators: [algorithm][budget].
	sumPrOpt := make([]float64, len(fracs))
	sumPrGreedy := make([]float64, len(fracs))
	sumEVGreedy := make([]float64, len(fracs))
	for rep := 0; rep < reps; rep++ {
		// Redraw the current values from the error models.
		objs := append([]model.Object(nil), w.DB.Objects...)
		for i := range objs {
			objs[i].Current = ns[i].Sample(r)
		}
		dbRep := &model.DB{Objects: objs}
		eval, err := maxpr.NewNormalAffine(dbRep, bias, tau)
		if err != nil {
			return nil, err
		}
		greedy, err := core.NewGreedyMaxPr(dbRep, eval)
		if err != nil {
			return nil, err
		}
		for i, frac := range fracs {
			Tg, err := greedy.SelectContext(ctx, dbRep.Budget(frac))
			if err != nil {
				return nil, err
			}
			sumPrGreedy[i] += eval.Prob(Tg)
			sumEVGreedy[i] += modular.EV(Tg)
			sumPrOpt[i] += eval.Prob(optSets[i])
		}
	}

	sVarOpt := Series{Name: "MinVar (Optimum)"}
	sVarGreedy := Series{Name: "MaxPr (GreedyMaxPr)"}
	sPrOpt := Series{Name: "MinVar (Optimum)"}
	sPrGreedy := Series{Name: "MaxPr (GreedyMaxPr)"}
	for i, frac := range fracs {
		sVarOpt.Points = append(sVarOpt.Points, Point{X: frac, Y: modular.EV(optSets[i])})
		sVarGreedy.Points = append(sVarGreedy.Points, Point{X: frac, Y: sumEVGreedy[i] / float64(reps)})
		sPrOpt.Points = append(sPrOpt.Points, Point{X: frac, Y: sumPrOpt[i] / float64(reps)})
		sPrGreedy.Points = append(sPrGreedy.Points, Point{X: frac, Y: sumPrGreedy[i] / float64(reps)})
	}
	figVar.Series = append(figVar.Series, sVarOpt, sVarGreedy)
	figPr.Series = append(figPr.Series, sPrOpt, sPrGreedy)
	return []*Figure{figVar, figPr}, nil
}
