package expt

import (
	"context"
	"fmt"
	"math"

	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/rng"
	"github.com/factcheck/cleansel/internal/session"
)

func init() {
	register("adaptive", runAdaptive)
}

// runAdaptive evaluates the paper's future-work direction of *adaptive*
// cleaning (§6): instead of committing an upfront subset, the adaptive
// MaxPr policy cleans one value, observes the revealed truth, and
// re-decides. Each episode is one session.Stepper — the loop cleanseld
// serves — told the simulated truth of every object it recommends. Over
// many simulated ground truths on the CDC-firearms counter workload, it
// compares
//
//   - the budget the adaptive policy actually spends before finding a
//     counterargument (it stops paying as soon as one materializes), and
//   - the counter rate both approaches achieve at equal budgets.
func runAdaptive(ctx context.Context, scale Scale, seed uint64) ([]*Figure, error) {
	reps := 60
	if scale == PaperScale {
		reps = 300
	}
	w := FirearmsLowest(seed)
	bias := w.Set.Bias()
	mod, err := ev.NewModular(w.DB, bias)
	if err != nil {
		return nil, err
	}
	tau := 0.25 * math.Sqrt(mod.Variance())

	upEval, err := maxpr.NewNormalAffine(w.DB, bias, tau)
	if err != nil {
		return nil, err
	}
	upfront, err := core.NewGreedyMaxPr(w.DB, upEval)
	if err != nil {
		return nil, err
	}

	fracs := []float64{0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0}
	adaptiveHits := make([]int, len(fracs))
	upfrontHits := make([]int, len(fracs))
	var spentWhenFound []float64

	r := rng.New(seed ^ 0xada)
	ns, _ := w.DB.Normals()
	truth := make([]float64, w.DB.N())
	for rep := 0; rep < reps; rep++ {
		for i := range truth {
			truth[i] = ns[i].Sample(r)
		}
		baseline := bias.Eval(w.DB.Currents())
		for fi, frac := range fracs {
			budget := w.DB.Budget(frac)
			st, err := session.NewStepper(w.DB, bias, session.MaxPr, tau, budget)
			if err != nil {
				return nil, err
			}
			for {
				rec, ok := st.Recommend(nil)
				if !ok {
					break
				}
				if err := st.Reveal(rec.Object, truth[rec.Object], nil); err != nil {
					return nil, err
				}
			}
			if st.Countered() {
				adaptiveHits[fi]++
				//lint:allow floateq — budget fractions come from budgetGrid, whose round2 emits exact two-decimal values; 1.0 is exactly representable and exactly produced
				if frac == 1.0 {
					spentWhenFound = append(spentWhenFound, st.Spent()/w.DB.TotalCost())
				}
			}
			T, err := upfront.SelectContext(ctx, budget)
			if err != nil {
				return nil, err
			}
			// Reveal the upfront set and check the realized drop.
			x := w.DB.Currents()
			for _, o := range T {
				x[o] = truth[o]
			}
			if baseline-bias.Eval(x) > tau {
				upfrontHits[fi]++
			}
		}
	}

	fig := &Figure{
		ID:     "adaptive",
		Title:  "Adaptive vs upfront MaxPr cleaning (CDC-firearms counters, extension)",
		XLabel: "budget (fraction)",
		YLabel: "fraction of ground truths where a counter was realized",
	}
	sa := Series{Name: "AdaptiveMaxPr"}
	su := Series{Name: "GreedyMaxPr (upfront)"}
	for fi, frac := range fracs {
		sa.Points = append(sa.Points, Point{X: frac, Y: float64(adaptiveHits[fi]) / float64(reps)})
		su.Points = append(su.Points, Point{X: frac, Y: float64(upfrontHits[fi]) / float64(reps)})
	}
	fig.Series = append(fig.Series, sa, su)
	if len(spentWhenFound) > 0 {
		var sum float64
		for _, v := range spentWhenFound {
			sum += v
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"adaptive policy, when it finds a counter under full budget, spends on average %.0f%% of the total cost (%d/%d truths)",
			100*sum/float64(len(spentWhenFound)), len(spentWhenFound), reps))
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf("tau = %.4g; %d simulated ground truths", tau, reps))
	return []*Figure{fig}, nil
}
