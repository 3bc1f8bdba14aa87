package maxpr

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/linalg"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// Example 5's MaxPr side: X1 uniform over {0,1/2,1,3/2,2}, X2 uniform over
// {1/3,1,5/3}, current values u = (1,1), f = X1+X2, target X1+X2 < 17/12
// (τ = 7/12). Cleaning X1 gives probability 1/5, cleaning X2 gives 1/3.
func example5DB() *model.DB {
	return model.New([]model.Object{
		{Name: "x1", Cost: 1, Current: 1, Value: dist.UniformOver([]float64{0, 0.5, 1, 1.5, 2})},
		{Name: "x2", Cost: 1, Current: 1, Value: dist.UniformOver([]float64{1.0 / 3, 1, 5.0 / 3})},
	})
}

func TestExample5DiscreteAffine(t *testing.T) {
	db := example5DB()
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1})
	e, err := NewHybrid(db, f, 7.0/12.0, 0, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Prob(nil); got != 0 {
		t.Fatalf("P(∅) = %v, want 0", got)
	}
	if got := e.Prob(model.NewSet(0)); !numeric.AlmostEqual(got, 0.2, 1e-12) {
		t.Fatalf("P({x1}) = %v, want 1/5", got)
	}
	if got := e.Prob(model.NewSet(1)); !numeric.AlmostEqual(got, 1.0/3.0, 1e-12) {
		t.Fatalf("P({x2}) = %v, want 1/3", got)
	}
}

func TestDiscreteAffineMatchesMonteCarlo(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 10; trial++ {
		n := 2 + r.Intn(4)
		objs := make([]model.Object, n)
		coef := map[int]float64{}
		for i := range objs {
			k := 2 + r.Intn(3)
			vals := make([]float64, k)
			probs := make([]float64, k)
			for j := range vals {
				vals[j] = float64(r.IntRange(-4, 4))
				probs[j] = r.Float64() + 0.1
			}
			d := dist.MustDiscrete(vals, probs)
			objs[i] = model.Object{Name: "o", Cost: 1, Current: d.Values[r.Intn(d.Size())], Value: d}
			coef[i] = float64(r.IntRange(-2, 2))
		}
		db := model.New(objs)
		f := query.NewAffine(float64(r.IntRange(-2, 2)), coef)
		tau := r.Float64()
		exact, err := NewHybrid(db, f, tau, 0, 1, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		mc, err := NewMonteCarlo(db, f, tau, 60000, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		T := model.NewSet(r.Perm(n)[:1+r.Intn(n)]...)
		pe := exact.Prob(T)
		pm := mc.Prob(T)
		if math.Abs(pe-pm) > 0.012 {
			t.Fatalf("trial %d: exact %v vs MC %v for T=%v", trial, pe, pm, T)
		}
	}
}

func TestNormalAffineClosedForm(t *testing.T) {
	n1, _ := dist.NewNormal(10, 2)
	n2, _ := dist.NewNormal(20, 3)
	db := model.New([]model.Object{
		{Name: "a", Cost: 1, Current: 10, Value: n1},
		{Name: "b", Cost: 1, Current: 20, Value: n2},
	})
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1})
	e, err := NewNormalAffine(db, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Centered at current values: D ~ N(0, 4) for {a}; P = Φ(−1/2).
	want := numeric.NormalCDF(-0.5)
	if got := e.Prob(model.NewSet(0)); !numeric.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("P({a}) = %v, want %v", got, want)
	}
	// Both: D ~ N(0, 13); P = Φ(−1/√13).
	want2 := numeric.NormalCDF(-1 / math.Sqrt(13))
	if got := e.Prob(model.NewSet(0, 1)); !numeric.AlmostEqual(got, want2, 1e-12) {
		t.Fatalf("P(both) = %v, want %v", got, want2)
	}
	if e.Prob(nil) != 0 {
		t.Fatal("P(∅) should be 0")
	}
}

func TestNormalAffineUncenteredMean(t *testing.T) {
	// Current value above the mean: cleaning is likely to lower the result.
	n1, _ := dist.NewNormal(10, 1)
	db := model.New([]model.Object{
		{Name: "a", Cost: 1, Current: 13, Value: n1},
	})
	f := query.NewAffine(0, map[int]float64{0: 1})
	e, err := NewNormalAffine(db, f, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// D = X − 13 ~ N(−3, 1); P(D < −0.5) = Φ((−0.5+3)/1) = Φ(2.5).
	want := numeric.NormalCDF(2.5)
	if got := e.Prob(model.NewSet(0)); !numeric.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("P = %v, want %v", got, want)
	}
}

func TestNormalAffineDegenerateVariance(t *testing.T) {
	n1, _ := dist.NewNormal(5, 0)
	db := model.New([]model.Object{
		{Name: "a", Cost: 1, Current: 10, Value: n1},
	})
	f := query.NewAffine(0, map[int]float64{0: 1})
	e, _ := NewNormalAffine(db, f, 1)
	// D is deterministic −5 < −1: certain surprise.
	if got := e.Prob(model.NewSet(0)); got != 1 {
		t.Fatalf("deterministic drop should give 1, got %v", got)
	}
	db2 := model.New([]model.Object{
		{Name: "a", Cost: 1, Current: 5, Value: n1},
	})
	e2, _ := NewNormalAffine(db2, f, 1)
	if got := e2.Prob(model.NewSet(0)); got != 0 {
		t.Fatalf("no drop should give 0, got %v", got)
	}
}

func TestNormalAffineValidation(t *testing.T) {
	db := example5DB() // discrete values
	f := query.NewAffine(0, map[int]float64{0: 1})
	if _, err := NewNormalAffine(db, f, 1); err == nil {
		t.Fatal("discrete DB accepted by NormalAffine")
	}
	n1, _ := dist.NewNormal(0, 1)
	db2 := model.New([]model.Object{{Name: "a", Cost: 1, Value: n1}})
	if _, err := NewNormalAffine(db2, f, -1); err == nil {
		t.Fatal("negative tau accepted")
	}
}

func TestMVNAffineIndependentMatchesNormal(t *testing.T) {
	n1, _ := dist.NewNormal(10, 2)
	n2, _ := dist.NewNormal(20, 3)
	db := model.New([]model.Object{
		{Name: "a", Cost: 1, Current: 11, Value: n1},
		{Name: "b", Cost: 1, Current: 19, Value: n2},
	})
	f := query.NewAffine(0, map[int]float64{0: 1, 1: -2})
	na, err := NewNormalAffine(db, f, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	for _, marginal := range []bool{false, true} {
		mv, err := NewMVNAffine(db, f, 0.7, marginal)
		if err != nil {
			t.Fatal(err)
		}
		for _, T := range []model.Set{nil, model.NewSet(0), model.NewSet(1), model.NewSet(0, 1)} {
			if got, want := mv.Prob(T), na.Prob(T); !numeric.AlmostEqual(got, want, 1e-9) {
				t.Fatalf("marginal=%v T=%v: MVN %v vs Normal %v", marginal, T, got, want)
			}
		}
	}
}

func TestMVNAffineCorrelatedSemanticsDiffer(t *testing.T) {
	// With strong correlation and the conditioning values off-mean, the
	// Schur semantics shifts the conditional mean while the marginal
	// semantics does not.
	sigma := linalg.FromRows([][]float64{{1, 0.9}, {0.9, 1}})
	n1, _ := dist.NewNormal(0, 1)
	n2, _ := dist.NewNormal(0, 1)
	db := model.New([]model.Object{
		{Name: "a", Cost: 1, Current: 2, Value: n1}, // u far above the mean
		{Name: "b", Cost: 1, Current: 0, Value: n2},
	})
	db.Cov = sigma
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1})
	schur, err := NewMVNAffine(db, f, 0.1, false)
	if err != nil {
		t.Fatal(err)
	}
	marg, err := NewMVNAffine(db, f, 0.1, true)
	if err != nil {
		t.Fatal(err)
	}
	T := model.NewSet(1) // clean b, condition on a = 2
	ps, pm := schur.Prob(T), marg.Prob(T)
	// Conditioned on a=2, b's mean is 1.8, so b is unlikely to drop below
	// its current 0 by 0.1; the marginal semantics sees mean 0.
	if ps >= pm {
		t.Fatalf("expected Schur prob %v < marginal prob %v", ps, pm)
	}
}

// counters reads a recorder's counters by name.
func counters(rec *obs.Recorder) map[string]int64 {
	got := map[string]int64{}
	for _, c := range rec.Snapshot().Counters {
		got[c.Name] = c.Value
	}
	return got
}

// A set past the state cap has no extension scorer, and its Prob is the
// Monte-Carlo estimate (counted as a fallback) rather than a panic or an
// error; small subsets stay exact.
func TestDiscreteAffineTooLarge(t *testing.T) {
	objs := make([]model.Object, 12)
	for i := range objs {
		objs[i] = model.Object{Name: "o", Cost: 1, Value: dist.UniformOver([]float64{0, 1, 2, 3})}
	}
	db := model.New(objs)
	coef := map[int]float64{}
	for i := range objs {
		coef[i] = 1
	}
	e, err := NewHybrid(db, query.NewAffine(0, coef), 0.5, 1000, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	e.Observe(rec)
	var all model.Set
	for i := range objs {
		all = all.Add(i)
	}
	if x := e.Extensions(all); x != nil {
		t.Fatal("a set past the cap got an extension scorer")
	}
	e.Prob(all)
	if got := counters(rec); got["maxpr_mc_fallback"] != 1 || got["maxpr_exact"] != 0 || got["conv_ops"] != 0 {
		t.Fatalf("set past the cap: counters %v, want one fallback and no convolution", got)
	}
	// Small subsets still convolve exactly.
	if x := e.Extensions(model.NewSet(0, 1)); x == nil {
		t.Fatal("small subset has no scorer")
	}
	e.Prob(model.NewSet(0, 1))
	if got := counters(rec); got["maxpr_mc_fallback"] != 1 || got["maxpr_exact"] != 1 {
		t.Fatalf("small subset: counters %v, want one exact evaluation", got)
	}
}

func TestMonteCarloNormalDB(t *testing.T) {
	n1, _ := dist.NewNormal(10, 2)
	db := model.New([]model.Object{
		{Name: "a", Cost: 1, Current: 10, Value: n1},
	})
	f := query.NewAffine(0, map[int]float64{0: 1})
	na, _ := NewNormalAffine(db, f, 1)
	mc, err := NewMonteCarlo(db, f, 1, 200000, rng.New(55))
	if err != nil {
		t.Fatal(err)
	}
	T := model.NewSet(0)
	if got, want := mc.Prob(T), na.Prob(T); math.Abs(got-want) > 0.01 {
		t.Fatalf("MC %v vs closed form %v", got, want)
	}
}

func TestMonteCarloValidation(t *testing.T) {
	db := example5DB()
	f := query.NewAffine(0, map[int]float64{0: 1})
	if _, err := NewMonteCarlo(db, f, 0.1, 0, rng.New(1)); err == nil {
		t.Fatal("samples=0 accepted")
	}
	if _, err := NewMonteCarlo(db, f, -0.1, 100, rng.New(1)); err == nil {
		t.Fatal("negative tau accepted")
	}
}

// Monotonicity is NOT guaranteed for MaxPr: adding an object can lower the
// probability (the behavior behind GreedyMaxPr's refusal to spend more
// budget in Fig. 12). Construct a case: a high-variance object whose
// coefficient is positive pushes mass both ways and can dilute a sure drop.
func TestMaxPrNotMonotone(t *testing.T) {
	n1, _ := dist.NewNormal(0, 1) // current 3: cleaning drops by ~3
	n2, _ := dist.NewNormal(0, 5) // current 0: cleaning only adds noise
	db := model.New([]model.Object{
		{Name: "drop", Cost: 1, Current: 3, Value: n1},
		{Name: "noise", Cost: 1, Current: 0, Value: n2},
	})
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1})
	e, _ := NewNormalAffine(db, f, 1)
	p1 := e.Prob(model.NewSet(0))
	p2 := e.Prob(model.NewSet(0, 1))
	if p2 >= p1 {
		t.Fatalf("expected adding the noisy object to hurt: %v -> %v", p1, p2)
	}
}
