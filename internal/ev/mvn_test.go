package ev

import (
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/linalg"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// normalDB builds independent normals centered at their current values
// 0, 10, 20, …; callers add a covariance with SetDecayCovariance.
func normalDB(t *testing.T, sigmas []float64) *model.DB {
	t.Helper()
	objs := make([]model.Object, len(sigmas))
	for i, s := range sigmas {
		n, err := dist.NewNormal(float64(10*i), s)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = model.Object{Name: "o", Cost: 1, Current: float64(10 * i), Value: n}
	}
	return model.New(objs)
}

func fullCoef(n int) *query.Affine {
	coef := map[int]float64{}
	for i := 0; i < n; i++ {
		coef[i] = 1
	}
	return query.NewAffine(0, coef)
}

func TestMVNIndependentMatchesModular(t *testing.T) {
	sigmas := []float64{1, 2, 3, 0.5}
	db := normalDB(t, sigmas)
	f := query.NewAffine(0, map[int]float64{0: 2, 1: -1, 2: 1, 3: 3})
	mvn, err := NewMVN(db, f)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := NewModular(db, f)
	if err != nil {
		t.Fatal(err)
	}
	for _, T := range []model.Set{nil, model.NewSet(0), model.NewSet(1, 3), model.NewSet(0, 1, 2, 3)} {
		if got, want := mvn.EV(T), mod.EV(T); !numeric.AlmostEqual(got, want, 1e-9) {
			t.Fatalf("EV(%v): MVN %v vs modular %v", T, got, want)
		}
		if got, want := mvn.MarginalEV(T), mod.EV(T); !numeric.AlmostEqual(got, want, 1e-9) {
			t.Fatalf("MarginalEV(%v): %v vs %v", T, got, want)
		}
	}
}

func TestMVNCorrelatedBasics(t *testing.T) {
	sigmas := []float64{1, 1.5, 2, 2.5, 3}
	db := normalDB(t, sigmas)
	db.SetDecayCovariance(0.7)
	f := fullCoef(5)
	mvn, err := NewMVN(db, f)
	if err != nil {
		t.Fatal(err)
	}
	// EV is monotone non-increasing along a chain.
	prev := mvn.Variance()
	if got := mvn.EV(nil); !numeric.AlmostEqual(got, prev, 1e-9) {
		t.Fatalf("EV(∅) = %v, want Var = %v", got, prev)
	}
	var T model.Set
	for o := 0; o < 5; o++ {
		T = T.Add(o)
		cur := mvn.EV(T)
		if cur > prev+1e-9 {
			t.Fatalf("EV increased when cleaning %d: %v -> %v", o, prev, cur)
		}
		prev = cur
	}
	if !numeric.AlmostEqual(prev, 0, 1e-9) {
		t.Fatalf("EV(all) = %v, want 0", prev)
	}
	// With positive correlation, conditioning helps more than the marginal
	// semantics predicts: EV(T) <= MarginalEV(T).
	for _, T := range []model.Set{model.NewSet(0), model.NewSet(2), model.NewSet(0, 4)} {
		if mvn.EV(T) > mvn.MarginalEV(T)+1e-9 {
			t.Fatalf("Schur EV %v above marginal %v for %v", mvn.EV(T), mvn.MarginalEV(T), T)
		}
	}
}

// Sanity-check the Schur EV against Monte Carlo on a correlated 3-variable
// instance: draw the cleaned variables, compute the true conditional
// variance of the rest analytically per draw... which is constant; so
// instead verify EV via the law of total variance: Var[f] =
// E[Var[f|X_T]] + Var[E[f|X_T]], where the second term is the variance of
// the affine conditional mean.
func TestMVNTotalVarianceDecomposition(t *testing.T) {
	r := rng.New(5150)
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(3)
		sigmas := make([]float64, n)
		for i := range sigmas {
			sigmas[i] = 0.5 + 2*r.Float64()
		}
		gamma := 0.8 * r.Float64()
		db := normalDB(t, sigmas)
		db.SetDecayCovariance(gamma)
		coef := map[int]float64{}
		for i := 0; i < n; i++ {
			coef[i] = float64(r.IntRange(-2, 2))
		}
		f := query.NewAffine(0, coef)
		mvn, err := NewMVN(db, f)
		if err != nil {
			t.Fatal(err)
		}
		T := model.NewSet(0, 1)
		// Var[E[f|X_T]] = Var over X_T of a_Ū·B·(X_T−μ_T) + a_T·X_T where
		// B = Σ_ŪT·Σ_TT⁻¹ is the conditional mean shift: an affine function
		// of X_T with combined coefficient c = a_T + Bᵀa_Ū, where
		// Bᵀa_Ū = Σ_TT⁻¹·Σ_TŪ·a_Ū; its variance is cᵀΣ_TT c.
		keep := T.Complement(n)
		dense := f.Dense(n)
		aKeep := make([]float64, len(keep))
		for j, u := range keep {
			aKeep[j] = dense[u]
		}
		stt := db.Cov.Submatrix(T, T)
		bta, err := linalg.SolveSPD(stt, db.Cov.Submatrix(T, keep).MulVec(aKeep))
		if err != nil {
			t.Fatal(err)
		}
		c := make([]float64, len(T))
		for i, v := range T {
			c[i] = dense[v] + bta[i]
		}
		varOfMean := linalg.QuadForm(stt, c)
		total := mvn.Variance()
		if !numeric.AlmostEqual(mvn.EV(T)+varOfMean, total, 1e-7) {
			t.Fatalf("trial %d: EV %v + Var[E] %v != Var %v", trial, mvn.EV(T), varOfMean, total)
		}
	}
}

// Cleaning a constant tells nothing, so it must not change EV (Lemma 3.4:
// EV never rises as T grows). An error-free object b gives Σ_TT a zero
// row; EV conditions it out instead of falling back to the marginal
// semantics, which read EV({a, b}) = 1 against EV({a}) = 1 − 0.9⁴.
func TestMVNConstantObjectsConditionOut(t *testing.T) {
	db := normalDB(t, []float64{1, 0, 1})
	db.SetDecayCovariance(0.9)
	f := query.NewAffine(0, map[int]float64{0: 1, 2: 1})
	mvn, err := NewMVN(db, f)
	if err != nil {
		t.Fatal(err)
	}
	a, ab := mvn.EV(model.NewSet(0)), mvn.EV(model.NewSet(0, 1))
	if ab != a {
		t.Fatalf("EV({a,b}) = %v, want EV({a}) = %v", ab, a)
	}
	if want := 1 - 0.9*0.9*0.9*0.9; !numeric.AlmostEqual(a, want, 1e-12) {
		t.Fatalf("EV({a}) = %v, want %v", a, want)
	}
	if got := mvn.EV(model.NewSet(1)); got != mvn.EV(nil) {
		t.Fatalf("EV({b}) = %v, want EV(∅) = %v", got, mvn.EV(nil))
	}
}

func TestMVNDimensionMismatch(t *testing.T) {
	db := normalDB(t, []float64{1, 2})
	db.Cov = linalg.NewMatrix(3, 3)
	if _, err := NewMVN(db, fullCoef(2)); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}
