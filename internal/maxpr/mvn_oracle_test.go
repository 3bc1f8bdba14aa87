package maxpr_test

import (
	"math"
	"slices"
	"testing"

	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/linalg"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// covOracle is the conditional MVN objective computed on the covariance
// side, the reference for MVNAffine's precision form. Given X_Ū = u_Ū, the
// drop D = Σ_{i∈T} a_i(X_i − u_i) has
//
//	E[D|·]   = E[D] + Cov(D, X_Ū)·Σ_ŪŪ⁻¹·(u_Ū − μ_Ū),
//	Var[D|·] = Var[D] − Cov(D, X_Ū)·Σ_ŪŪ⁻¹·Cov(X_Ū, D),
//
// one solve against the (n−|T|)-sized block per call.
type covOracle struct {
	sigma    *linalg.Matrix
	a, mu, u []float64
	tau      float64
}

func newCovOracle(db *model.DB, f *query.Affine, tau float64) *covOracle {
	return &covOracle{sigma: db.Cov, a: f.Dense(db.N()), mu: db.Means(), u: db.Currents(), tau: tau}
}

func (o *covOracle) Prob(T model.Set) float64 {
	if len(T) == 0 {
		return 0
	}
	var mean, varD float64
	for _, i := range T {
		mean += o.a[i] * (o.mu[i] - o.u[i])
		for _, j := range T {
			varD += o.a[i] * o.a[j] * o.sigma.At(i, j)
		}
	}
	if keep := T.Complement(len(o.a)); len(keep) > 0 {
		c := make([]float64, len(keep)) // Cov(X_Ū, D)
		for k, j := range keep {
			for _, i := range T {
				c[k] += o.sigma.At(j, i) * o.a[i]
			}
		}
		w, err := linalg.SolveSPD(o.sigma.Submatrix(keep, keep), c)
		if err != nil {
			panic(err)
		}
		for k, j := range keep {
			mean += w[k] * (o.u[j] - o.mu[j])
			varD -= c[k] * w[k]
		}
	}
	if varD <= 0 {
		if mean < -o.tau {
			return 1
		}
		return 0
	}
	return numeric.NormalCDF((-o.tau - mean) / math.Sqrt(varD))
}

// randomCorrelated draws a normal database of n objects with σ ∈ [0.3, 3.3]
// under the decay covariance at γ ∈ [0.1, 0.95], currents off their means,
// integer costs 1–4, and an affine query with coefficients in [−2, 2], a
// tenth of them zero.
func randomCorrelated(t *testing.T, r *rng.RNG, n int) (*model.DB, *query.Affine) {
	t.Helper()
	objs := make([]model.Object, n)
	coef := map[int]float64{}
	for i := range objs {
		sigma := 0.3 + 3*r.Float64()
		mu := r.Uniform(-5, 5)
		v, err := dist.NewNormal(mu, sigma)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = model.Object{Name: "o", Cost: float64(r.IntRange(1, 4)), Current: mu + sigma*r.Uniform(-2, 2), Value: v}
		if r.Float64() >= 0.1 {
			coef[i] = r.Uniform(-2, 2)
		}
	}
	db := model.New(objs)
	db.SetDecayCovariance(r.Uniform(0.1, 0.95))
	return db, query.NewAffine(0, coef)
}

// TestMVNAffinePrecisionMatchesCovarianceOracle holds the precision form
// of the conditional P(T) to the covariance-side reference on random sets
// of up to ten objects among up to thirty: within 1e-12 relative or 1e-15
// absolute.
func TestMVNAffinePrecisionMatchesCovarianceOracle(t *testing.T) {
	r := rng.New(1909)
	for inst := 0; inst < 2000; inst++ {
		n := 1 + r.Intn(30)
		db, f := randomCorrelated(t, r, n)
		tau := 1.5 * r.Float64()
		e, err := maxpr.NewMVNAffine(db, f, tau, false)
		if err != nil {
			t.Fatal(err)
		}
		oracle := newCovOracle(db, f, tau)
		for rep := 0; rep < 3; rep++ {
			var T model.Set
			for size := 1 + r.Intn(min(n, 10)); len(T) < size; {
				T = T.Add(r.Intn(n))
			}
			got, want := e.Prob(T), oracle.Prob(T)
			if d := math.Abs(got - want); d > 1e-15 && d > 1e-12*math.Max(got, want) {
				t.Fatalf("instance %d, T = %v: precision P = %v, covariance P = %v", inst, T, got, want)
			}
		}
	}
}

// TestGreedyMaxPrPrecisionMatchesCovarianceOracle runs GreedyMaxPr over
// MVNAffine and over the covariance-side reference: the chosen sets are
// identical.
func TestGreedyMaxPrPrecisionMatchesCovarianceOracle(t *testing.T) {
	r := rng.New(3909)
	for inst := 0; inst < 1000; inst++ {
		db, f := randomCorrelated(t, r, 2+r.Intn(19))
		tau := 1.5 * r.Float64()
		budget := db.Budget(r.Uniform(0.2, 0.6))
		e, err := maxpr.NewMVNAffine(db, f, tau, false)
		if err != nil {
			t.Fatal(err)
		}
		var sets [2]model.Set
		for k, eval := range []maxpr.Evaluator{e, newCovOracle(db, f, tau)} {
			g, err := core.NewGreedyMaxPr(db, eval)
			if err != nil {
				t.Fatal(err)
			}
			if sets[k], err = g.Select(budget); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(sets[0], sets[1]) {
			t.Fatalf("instance %d: precision chose %v, covariance chose %v", inst, sets[0], sets[1])
		}
	}
}
