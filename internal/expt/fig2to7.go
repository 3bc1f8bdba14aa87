package expt

import (
	"context"
	"fmt"

	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/query"
)

func init() {
	register("fig2", runFig2)
	register("fig3", runFig3)
	register("fig4", runFig4)
	register("fig5", runFig5)
	register("fig6", runFig6)
	register("fig7", runFig7)
}

// UniquenessGammas lists the Γ sweep of Figures 3 and 5 (URx/SMx).
var UniquenessGammas = []float64{50, 100, 150, 200, 250, 300}

// UniquenessGammasLN lists the Γ sweep of Figure 4 (LNx sums live on a
// much smaller range).
var UniquenessGammasLN = []float64{3.0, 3.5, 4.0, 4.5, 5.0, 5.5}

// nonModularFigure runs the §4.2 algorithm set — GreedyNaive,
// GreedyMinVar, Best — on a GroupSum objective and reports the expected
// variance after cleaning.
func nonModularFigure(ctx context.Context, id, title string, w Workload, g *query.GroupSum, fracs []float64) (*Figure, error) {
	engine, err := ev.NewGroupEngine(w.DB, g)
	if err != nil {
		return nil, err
	}
	metric := engine.EV
	fig := &Figure{
		ID:     id,
		Title:  title,
		XLabel: "budget (fraction)",
		YLabel: "expected variance after cleaning",
		Notes: []string{
			fmt.Sprintf("m=%d perturbations; initial variance %.6g", w.Set.M(), engine.Variance()),
		},
	}
	naive := core.NewGreedyNaive(w.DB, g.Vars())
	gmv, err := core.NewGreedyMinVarGroupEngine(w.DB, engine)
	if err != nil {
		return nil, err
	}
	best, err := core.NewBest(w.DB, engine)
	if err != nil {
		return nil, err
	}
	for _, sel := range []core.Selector{naive, gmv, best} {
		s, err := sweepSelector(ctx, w.DB, sel, fracs, metric)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// runFig2 reproduces Figure 2: uncertainty in claim uniqueness on the CDC
// datasets.
func runFig2(ctx context.Context, scale Scale, seed uint64) ([]*Figure, error) {
	fracs := budgetGrid(scale)
	wf := FirearmsUniqueness(seed)
	fa, err := nonModularFigure(ctx, "fig2a", "Expected variance of uniqueness (CDC-firearms, 6-point discretization)", wf, wf.Set.Dup(), fracs)
	if err != nil {
		return nil, err
	}
	wc := CausesUniqueness(seed)
	fb, err := nonModularFigure(ctx, "fig2b", "Expected variance of uniqueness (CDC-causes, 4-point discretization)", wc, wc.Set.Dup(), fracs)
	if err != nil {
		return nil, err
	}
	return []*Figure{fa, fb}, nil
}

// syntheticUniquenessFigures runs the Γ sweep for one synthetic
// generator (Figures 3, 4, 5).
func syntheticUniquenessFigures(ctx context.Context, idPrefix string, kind datasets.SyntheticKind, gammas []float64, scale Scale, seed uint64) ([]*Figure, error) {
	fracs := budgetGrid(scale)
	n := 40
	var out []*Figure
	for gi, gamma := range gammas {
		if scale == Small && gi%2 == 1 {
			continue // halve the Γ grid at small scale
		}
		w := SyntheticUniqueness(kind, n, gamma, seed)
		id := fmt.Sprintf("%s%c", idPrefix, 'a'+gi)
		title := fmt.Sprintf("Expected variance of uniqueness (%v, Γ=%v)", kind, gamma)
		fig, err := nonModularFigure(ctx, id, title, w, w.Set.Dup(), fracs)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}

func runFig3(ctx context.Context, scale Scale, seed uint64) ([]*Figure, error) {
	return syntheticUniquenessFigures(ctx, "fig3", datasets.UR, UniquenessGammas, scale, seed)
}

func runFig4(ctx context.Context, scale Scale, seed uint64) ([]*Figure, error) {
	return syntheticUniquenessFigures(ctx, "fig4", datasets.LN, UniquenessGammasLN, scale, seed)
}

func runFig5(ctx context.Context, scale Scale, seed uint64) ([]*Figure, error) {
	return syntheticUniquenessFigures(ctx, "fig5", datasets.SM, UniquenessGammas, scale, seed)
}

// runFig6 derives Figure 6: the absolute improvement of GreedyMinVar over
// GreedyNaive for the Figure 3 (URx) and Figure 4 (LNx) scenarios.
func runFig6(ctx context.Context, scale Scale, seed uint64) ([]*Figure, error) {
	specs := []struct {
		id     string
		kind   datasets.SyntheticKind
		gammas []float64
	}{
		{"fig6a", datasets.UR, UniquenessGammas},
		{"fig6b", datasets.LN, UniquenessGammasLN},
	}
	fracs := budgetGrid(scale)
	var out []*Figure
	for _, sp := range specs {
		fig := &Figure{
			ID:     sp.id,
			Title:  fmt.Sprintf("Absolute improvement of GreedyMinVar over GreedyNaive (%v)", sp.kind),
			XLabel: "budget (fraction)",
			YLabel: "expected-variance reduction vs GreedyNaive",
		}
		for gi, gamma := range sp.gammas {
			if scale == Small && gi%2 == 1 {
				continue
			}
			w := SyntheticUniqueness(sp.kind, 40, gamma, seed)
			g := w.Set.Dup()
			engine, err := ev.NewGroupEngine(w.DB, g)
			if err != nil {
				return nil, err
			}
			naive := core.NewGreedyNaive(w.DB, g.Vars())
			gmv, err := core.NewGreedyMinVarGroupEngine(w.DB, engine)
			if err != nil {
				return nil, err
			}
			sn, err := sweepSelector(ctx, w.DB, naive, fracs, engine.EV)
			if err != nil {
				return nil, err
			}
			sg, err := sweepSelector(ctx, w.DB, gmv, fracs, engine.EV)
			if err != nil {
				return nil, err
			}
			imp := Series{Name: fmt.Sprintf("Γ=%v", gamma)}
			for i := range sn.Points {
				imp.Points = append(imp.Points, Point{
					X: sn.Points[i].X,
					Y: sn.Points[i].Y - sg.Points[i].Y,
				})
			}
			fig.Series = append(fig.Series, imp)
			fig.Notes = append(fig.Notes,
				fmt.Sprintf("Γ=%v: initial variance %.6g", gamma, engine.Variance()))
		}
		out = append(out, fig)
	}
	return out, nil
}

// runFig7 reproduces Figure 7: robustness (fragility) on CDC-firearms and
// URx with Γ′=100.
func runFig7(ctx context.Context, scale Scale, seed uint64) ([]*Figure, error) {
	fracs := budgetGrid(scale)
	wf := FirearmsRobustness(seed)
	fa, err := nonModularFigure(ctx, "fig7a", "Expected variance of robustness (CDC-firearms)", wf, wf.Set.Frag(), fracs)
	if err != nil {
		return nil, err
	}
	n := 100
	if scale == Small {
		n = 48
	}
	wu := SyntheticRobustness(datasets.UR, n, 100, seed)
	fb, err := nonModularFigure(ctx, "fig7b", fmt.Sprintf("Expected variance of robustness (URx, n=%d, Γ'=100)", n), wu, wu.Set.Frag(), fracs)
	if err != nil {
		return nil, err
	}
	return []*Figure{fa, fb}, nil
}
