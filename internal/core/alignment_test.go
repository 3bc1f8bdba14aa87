package core

import (
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/linalg"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// Theorem 3.9 (independent special case, Lemma 3.1): with independent
// normal errors centered at the current values and a linear claim
// function, the MinVar optimum and the MaxPr optimum coincide. We verify
// by exhaustive search over all subsets.
func TestTheorem39IndependentAlignment(t *testing.T) {
	r := rng.New(39)
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(4)
		objs := make([]model.Object, n)
		coef := map[int]float64{}
		for i := 0; i < n; i++ {
			sigma := 0.5 + 2.5*r.Float64()
			u := r.Uniform(-5, 5)
			nd, err := dist.NewNormal(u, sigma) // centered at current value
			if err != nil {
				t.Fatal(err)
			}
			objs[i] = model.Object{Name: "o", Cost: float64(r.IntRange(1, 6)), Current: u, Value: nd}
			coef[i] = r.Uniform(-2, 2)
		}
		db := model.New(objs)
		f := query.NewAffine(r.Uniform(-3, 3), coef)
		tau := 0.5 + r.Float64()

		minvarEng, err := ev.NewModular(db, f)
		if err != nil {
			t.Fatal(err)
		}
		maxprEval, err := maxpr.NewNormalAffine(db, f, tau)
		if err != nil {
			t.Fatal(err)
		}
		budget := (0.2 + 0.6*r.Float64()) * db.TotalCost()

		optMinVar, err := NewOPTMinVar(db, minvarEng)
		if err != nil {
			t.Fatal(err)
		}
		optMaxPr, err := NewOPT("OPTMaxPr", db, maxprEval.Prob, true)
		if err != nil {
			t.Fatal(err)
		}
		Tmin := selectT(t, optMinVar, budget)
		Tmax := selectT(t, optMaxPr, budget)
		// The optima must achieve the same objective values (ties between
		// distinct optimal sets are fine; the objectives must agree).
		if !numeric.AlmostEqual(minvarEng.EV(Tmin), minvarEng.EV(Tmax), 1e-9) {
			t.Fatalf("trial %d: MinVar disagrees: EV(Tmin)=%v EV(Tmax)=%v",
				trial, minvarEng.EV(Tmin), minvarEng.EV(Tmax))
		}
		if !numeric.AlmostEqual(maxprEval.Prob(Tmin), maxprEval.Prob(Tmax), 1e-9) {
			t.Fatalf("trial %d: MaxPr disagrees: P(Tmin)=%v P(Tmax)=%v",
				trial, maxprEval.Prob(Tmin), maxprEval.Prob(Tmax))
		}
	}
}

// Theorem 3.9 (correlated case, paper's marginal semantics): under the
// simplification used in the paper's proof — cleaned values drawn from
// their marginals, uncleaned variance unchanged — MinVar minimizes
// Σ_{i,j∉T} a_i a_j Σ_ij and MaxPr maximizes Φ(−τ/√(Σ_{i,j∈T} a_i a_j Σ_ij)).
// These are not complementary in general; this test DOCUMENTS the observed
// behaviour: alignment holds in the independent case above, and under
// correlation the two optima frequently differ (we require at least one
// differing instance across trials so that the experiment narrative in
// EXPERIMENTS.md stays honest).
func TestTheorem39CorrelatedMarginalSemantics(t *testing.T) {
	r := rng.New(93)
	agree, disagree := 0, 0
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(3)
		objs := make([]model.Object, n)
		coef := map[int]float64{}
		for i := 0; i < n; i++ {
			sigma := 0.5 + 2*r.Float64()
			u := r.Uniform(-3, 3)
			nd, _ := dist.NewNormal(u, sigma)
			objs[i] = model.Object{Name: "o", Cost: float64(r.IntRange(1, 4)), Current: u, Value: nd}
			coef[i] = r.Uniform(-2, 2)
		}
		db := model.New(objs)
		db.SetDecayCovariance(0.3 + 0.6*r.Float64())
		f := query.NewAffine(0, coef)
		mvn, err := ev.NewMVN(db, f)
		if err != nil {
			t.Fatal(err)
		}
		budget := (0.3 + 0.4*r.Float64()) * db.TotalCost()
		optMinVar, err := NewOPT("OPTMinVarMarginal", db, mvn.MarginalEV, false)
		if err != nil {
			t.Fatal(err)
		}
		// Marginal semantics: cleaning T injects Σ_{i,j∈T} a_i·a_j·Σ_ij.
		cleanedVariance := func(T model.Set) float64 {
			aT := make([]float64, n)
			for _, i := range T {
				aT[i] = coef[i]
			}
			return linalg.QuadForm(db.Cov, aT)
		}
		optMaxPr, err := NewOPT("OPTMaxPrMarginal", db, cleanedVariance, true)
		if err != nil {
			t.Fatal(err)
		}
		Tmin := selectT(t, optMinVar, budget)
		Tmax := selectT(t, optMaxPr, budget)
		if numeric.AlmostEqual(mvn.MarginalEV(Tmin), mvn.MarginalEV(Tmax), 1e-9) {
			agree++
		} else {
			disagree++
		}
	}
	if agree == 0 {
		t.Fatal("marginal-semantics optima never agreed — implementation suspect")
	}
	t.Logf("correlated marginal-semantics alignment: %d agree, %d disagree", agree, disagree)
}
