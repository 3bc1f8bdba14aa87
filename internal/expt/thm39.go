package expt

import (
	"context"
	"fmt"

	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

func init() {
	register("thm39", runThm39)
}

// runThm39 probes Theorem 3.9 empirically: for linear claims with normal
// errors centered at the current values, how often do the MinVar optimum
// and the MaxPr optimum coincide (by exhaustive search)? γ=0 is the
// independent case, where alignment is provable (Lemma 3.1); γ>0 injects
// correlation, under both the proper Schur semantics and the paper's
// marginal simplification.
func runThm39(ctx context.Context, scale Scale, seed uint64) ([]*Figure, error) {
	trials := 40
	n := 6
	if scale == PaperScale {
		trials = 200
	}
	gammas := []float64{0, 0.2, 0.4, 0.6, 0.8}
	fig := &Figure{
		ID:     "thm39",
		Title:  "Theorem 3.9 — empirical alignment rate of MinVar and MaxPr optima",
		XLabel: "gamma (dependency strength)",
		YLabel: "fraction of instances with aligned optima",
	}
	schur := Series{Name: "Schur semantics"}
	marginal := Series{Name: "marginal semantics"}
	r := rng.New(seed ^ 0x39)
	for _, gamma := range gammas {
		agreeS, agreeM := 0, 0
		for trial := 0; trial < trials; trial++ {
			db, f := randomCenteredInstance(r, n, gamma)
			budget := (0.25 + 0.5*r.Float64()) * db.TotalCost()
			tau := 0.5 + r.Float64()
			okS, okM, err := alignmentCheck(ctx, db, f, tau, budget)
			if err != nil {
				return nil, err
			}
			if okS {
				agreeS++
			}
			if okM {
				agreeM++
			}
		}
		schur.Points = append(schur.Points, Point{X: gamma, Y: float64(agreeS) / float64(trials)})
		marginal.Points = append(marginal.Points, Point{X: gamma, Y: float64(agreeM) / float64(trials)})
	}
	fig.Series = append(fig.Series, schur, marginal)
	fig.Notes = append(fig.Notes,
		fmt.Sprintf("%d random instances per gamma, n=%d, exhaustive optima", trials, n),
		"gamma=0 must align exactly (Lemma 3.1); deviations under correlation quantify how far Theorem 3.9's simplification stretches",
	)
	return []*Figure{fig}, nil
}

// randomCenteredInstance builds a normal database centered at its current
// values with a γ-decay covariance and a random linear claim.
func randomCenteredInstance(r *rng.RNG, n int, gamma float64) (*model.DB, *query.Affine) {
	objs := make([]model.Object, n)
	coef := map[int]float64{}
	for i := 0; i < n; i++ {
		sigma := 0.5 + 2.5*r.Float64()
		u := r.Uniform(-5, 5)
		nd, err := dist.NewNormal(u, sigma)
		if err != nil {
			panic(err)
		}
		objs[i] = model.Object{Name: "o", Cost: float64(r.IntRange(1, 6)), Current: u, Value: nd}
		coef[i] = r.Uniform(-2, 2)
	}
	db := model.New(objs)
	if gamma > 0 {
		db.SetDecayCovariance(gamma)
	}
	return db, query.NewAffine(r.Uniform(-2, 2), coef)
}

// alignmentCheck reports whether the exhaustive MinVar and MaxPr optima
// agree under the Schur semantics and under the marginal semantics.
func alignmentCheck(ctx context.Context, db *model.DB, f *query.Affine, tau, budget float64) (schur, marginal bool, err error) {
	eng, err := ev.NewMVN(db, f)
	if err != nil {
		return false, false, err
	}
	evalS, err := maxpr.NewMVNAffine(db, f, tau, false)
	if err != nil {
		return false, false, err
	}
	evalM, err := maxpr.NewMVNAffine(db, f, tau, true)
	if err != nil {
		return false, false, err
	}
	schur, err = optimaAgree(ctx, db, eng.EV, evalS.Prob, budget)
	if err != nil {
		return false, false, err
	}
	marginal, err = optimaAgree(ctx, db, eng.MarginalEV, evalM.Prob, budget)
	if err != nil {
		return false, false, err
	}
	return schur, marginal, nil
}

// optimaAgree exhaustively solves both problems and compares the achieved
// objectives of the two optima.
func optimaAgree(ctx context.Context, db *model.DB, evFn func(model.Set) float64, prFn func(model.Set) float64, budget float64) (bool, error) {
	optMin, err := core.NewOPT("OPTMinVar", db, evFn, false)
	if err != nil {
		return false, err
	}
	optMax, err := core.NewOPT("OPTMaxPr", db, prFn, true)
	if err != nil {
		return false, err
	}
	Tmin, err := core.SelectWithContext(ctx, optMin, budget)
	if err != nil {
		return false, err
	}
	Tmax, err := core.SelectWithContext(ctx, optMax, budget)
	if err != nil {
		return false, err
	}
	return numeric.AlmostEqual(evFn(Tmin), evFn(Tmax), 1e-9) &&
		numeric.AlmostEqual(prFn(Tmin), prFn(Tmax), 1e-9), nil
}
