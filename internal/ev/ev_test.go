package ev

import (
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// --- Paper worked examples -------------------------------------------------

// Example 3: three Bernoulli values with success probabilities 1/2, 1/3,
// 1/4 and f(X) = 1[X1+X2+X3 < 3].
func example3DB() *model.DB {
	return model.New([]model.Object{
		{Name: "x1", Cost: 1, Value: dist.Bernoulli(0.5)},
		{Name: "x2", Cost: 1, Value: dist.Bernoulli(1.0 / 3.0)},
		{Name: "x3", Cost: 1, Value: dist.Bernoulli(0.25)},
	})
}

func example3Query() query.Function {
	return query.Indicator([]int{0, 1, 2}, func(v []float64) bool {
		return v[0]+v[1]+v[2] < 3
	})
}

func TestExample3BruteForce(t *testing.T) {
	db := example3DB()
	bf, err := NewBruteForce(db, example3Query())
	if err != nil {
		t.Fatal(err)
	}
	// Pr[f = 0] = 1/24, so Var[f] = (1/24)(23/24) = 23/576.
	if got, want := bf.Variance(), 23.0/576.0; !numeric.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("Var[f] = %v, want %v", got, want)
	}
	// Cleaning X1: X1=0 -> f certain; X1=1 -> Pr[f=0] = 1/12,
	// so EV({x1}) = 1/2·0 + 1/2·(1/12)(11/12) = 11/288.
	if got, want := bf.EV(model.NewSet(0)), 11.0/288.0; !numeric.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("EV({x1}) = %v, want %v", got, want)
	}
}

// Example 3's point: cleaning can increase uncertainty on some outcomes
// (the X1=1 branch has conditional variance above the prior variance),
// even though the expectation is lower.
func TestExample3BranchUncertainty(t *testing.T) {
	prior := 23.0 / 576.0              // Var[f] ≈ 0.0399
	branch := (1.0 / 12) * (11.0 / 12) // Var[f | X1=1] ≈ 0.0764
	if branch <= prior {
		t.Fatal("example 3 premise broken: conditioning should increase variance on the X1=1 branch")
	}
}

// Example 6: X1 uniform over {0,1/2,1,3/2,2}, X2 uniform over {1/3,1,5/3},
// f = 1[X1+X2 < 11/12].
func example6DB() *model.DB {
	return model.New([]model.Object{
		{Name: "x1", Cost: 1, Value: dist.UniformOver([]float64{0, 0.5, 1, 1.5, 2})},
		{Name: "x2", Cost: 1, Value: dist.UniformOver([]float64{1.0 / 3, 1, 5.0 / 3})},
	})
}

func example6Query() *query.GroupSum {
	return query.Indicator([]int{0, 1}, func(v []float64) bool {
		return v[0]+v[1] < 11.0/12.0
	})
}

func TestExample6ExactFractions(t *testing.T) {
	db := example6DB()
	for name, eng := range map[string]interface {
		EV(model.Set) float64
	}{
		"bruteforce": mustBF(t, db, example6Query()),
		"group":      mustGroup(t, db, example6Query()),
	} {
		if got, want := eng.EV(nil), 26.0/225.0; !numeric.AlmostEqual(got, want, 1e-12) {
			t.Fatalf("%s: Var[f] = %v, want 26/225", name, got)
		}
		if got, want := eng.EV(model.NewSet(0)), 4.0/45.0; !numeric.AlmostEqual(got, want, 1e-12) {
			t.Fatalf("%s: EV({x1}) = %v, want 4/45", name, got)
		}
		if got, want := eng.EV(model.NewSet(1)), 2.0/25.0; !numeric.AlmostEqual(got, want, 1e-12) {
			t.Fatalf("%s: EV({x2}) = %v, want 2/25", name, got)
		}
		if got := eng.EV(model.NewSet(0, 1)); !numeric.AlmostEqual(got, 0, 1e-12) {
			t.Fatalf("%s: EV(all) = %v, want 0", name, got)
		}
	}
	// GreedyMinVar's preference in Example 6: improvement from cleaning X2
	// (26/225 − 2/25 ≈ 0.0355) beats cleaning X1 (≈ 0.0266).
	bf := mustBF(t, db, example6Query())
	impX1 := bf.Variance() - bf.EV(model.NewSet(0))
	impX2 := bf.Variance() - bf.EV(model.NewSet(1))
	if impX2 <= impX1 {
		t.Fatalf("example 6 expects cleaning X2 to help more: %v vs %v", impX2, impX1)
	}
}

// Example 5's MinVar side: bias = X1 + X2 − 2 is affine, so the Modular
// engine applies: cleaning X1 leaves Var[X2] = 8/27, cleaning X2 leaves 1/2.
func TestExample5Modular(t *testing.T) {
	db := example6DB() // same two distributions as Example 5
	bias := query.NewAffine(-2, map[int]float64{0: 1, 1: 1})
	m, err := NewModular(db, bias)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := m.Variance(), 0.5+8.0/27.0; !numeric.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("Var = %v, want %v", got, want)
	}
	if got, want := m.EV(model.NewSet(0)), 8.0/27.0; !numeric.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("EV({x1}) = %v, want 8/27", got)
	}
	if got, want := m.EV(model.NewSet(1)), 0.5; !numeric.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("EV({x2}) = %v, want 1/2", got)
	}
}

// --- Helpers ----------------------------------------------------------------

func mustBF(t *testing.T, db *model.DB, f query.Function) *BruteForce {
	t.Helper()
	bf, err := NewBruteForce(db, f)
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

func mustGroup(t testing.TB, db *model.DB, g *query.GroupSum) *GroupEngine {
	t.Helper()
	e, err := NewGroupEngine(db, g)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// randomDB builds a small random discrete database.
func randomDB(r *rng.RNG, n int) *model.DB {
	objs := make([]model.Object, n)
	for i := range objs {
		k := 1 + r.Intn(3)
		vals := make([]float64, k)
		probs := make([]float64, k)
		for j := range vals {
			vals[j] = float64(r.IntRange(-3, 3))
			probs[j] = r.Float64() + 0.05
		}
		objs[i] = model.Object{
			Name:    "o",
			Cost:    1 + r.Float64()*5,
			Current: vals[0],
			Value:   dist.MustDiscrete(vals, probs),
		}
	}
	return model.New(objs)
}

// randomGroupSum builds a random decomposed query with overlapping terms.
func randomGroupSum(r *rng.RNG, n int) *query.GroupSum {
	g := &query.GroupSum{Const: float64(r.IntRange(-2, 2))}
	nTerms := 1 + r.Intn(4)
	for t := 0; t < nTerms; t++ {
		k := 1 + r.Intn(3)
		if k > n {
			k = n
		}
		vars := r.SampleWithoutReplacement(0, n-1, k)
		coef := make([]float64, k)
		for j := range coef {
			coef[j] = float64(r.IntRange(-2, 2))
		}
		c := float64(r.IntRange(-3, 3))
		switch r.Intn(3) {
		case 0:
			g.Terms = append(g.Terms, query.LinearTerm(vars, coef, c))
		case 1:
			g.Terms = append(g.Terms, query.IndicatorGE(vars, coef, c, 1+r.Float64()))
		default:
			g.Terms = append(g.Terms, query.NegMinSquared(vars, coef, c, r.Float64()))
		}
	}
	return g
}

func randomSubset(r *rng.RNG, n int) model.Set {
	var s model.Set
	for i := 0; i < n; i++ {
		if r.Float64() < 0.4 {
			s = append(s, i)
		}
	}
	return s
}

// --- Cross-engine equivalence ----------------------------------------------

func TestGroupEngineMatchesBruteForce(t *testing.T) {
	r := rng.New(20240610)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(4)
		db := randomDB(r, n)
		g := randomGroupSum(r, n)
		bf := mustBF(t, db, g)
		ge := mustGroup(t, db, g)
		for rep := 0; rep < 4; rep++ {
			T := randomSubset(r, n)
			want := bf.EV(T)
			got := ge.EV(T)
			if !numeric.AlmostEqual(got, want, 1e-8) {
				t.Fatalf("trial %d: EV(%v) group %v vs brute %v", trial, T, got, want)
			}
		}
	}
}

func TestModularMatchesBruteForce(t *testing.T) {
	r := rng.New(777)
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(4)
		db := randomDB(r, n)
		coef := map[int]float64{}
		for i := 0; i < n; i++ {
			coef[i] = float64(r.IntRange(-3, 3))
		}
		f := query.NewAffine(float64(r.IntRange(-5, 5)), coef)
		bf := mustBF(t, db, f)
		mod, err := NewModular(db, f)
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 4; rep++ {
			T := randomSubset(r, n)
			if got, want := mod.EV(T), bf.EV(T); !numeric.AlmostEqual(got, want, 1e-8) {
				t.Fatalf("trial %d: modular %v vs brute %v", trial, got, want)
			}
		}
	}
}

func TestAffineAsGroupSumMatchesModular(t *testing.T) {
	r := rng.New(888)
	for trial := 0; trial < 20; trial++ {
		n := 2 + r.Intn(4)
		db := randomDB(r, n)
		coef := map[int]float64{}
		for i := 0; i < n; i++ {
			coef[i] = float64(r.IntRange(-3, 3))
		}
		f := query.NewAffine(1, coef)
		mod, err := NewModular(db, f)
		if err != nil {
			t.Fatal(err)
		}
		ge := mustGroup(t, db, f.AsGroupSum())
		T := randomSubset(r, n)
		if got, want := ge.EV(T), mod.EV(T); !numeric.AlmostEqual(got, want, 1e-8) {
			t.Fatalf("group-of-affine %v vs modular %v", got, want)
		}
	}
}

// --- Lemma 3.4 (monotone) and Lemma 3.5 (submodular) ------------------------

func TestLemma34Monotone(t *testing.T) {
	r := rng.New(34)
	for trial := 0; trial < 40; trial++ {
		n := 2 + r.Intn(4)
		db := randomDB(r, n)
		g := randomGroupSum(r, n)
		bf := mustBF(t, db, g)
		T := randomSubset(r, n)
		evT := bf.EV(T)
		for o := 0; o < n; o++ {
			if T.Has(o) {
				continue
			}
			if evPlus := bf.EV(T.Add(o)); evPlus > evT+1e-9 {
				t.Fatalf("trial %d: EV increased from %v to %v when adding %d to %v",
					trial, evT, evPlus, o, T)
			}
		}
	}
}

func TestLemma35Submodular(t *testing.T) {
	r := rng.New(35)
	for trial := 0; trial < 40; trial++ {
		n := 3 + r.Intn(3)
		db := randomDB(r, n)
		g := randomGroupSum(r, n)
		bf := mustBF(t, db, g)
		// T ⊂ T′, o ∉ T′.
		T := model.NewSet(0)
		Tp := model.NewSet(0, 1)
		o := n - 1
		if Tp.Has(o) {
			continue
		}
		// Lemma 3.5: EV(T∪{o}) − EV(T) ≥ EV(T′∪{o}) − EV(T′) for T ⊂ T′.
		dSmall := bf.EV(T.Add(o)) - bf.EV(T)
		dLarge := bf.EV(Tp.Add(o)) - bf.EV(Tp)
		if dSmall < dLarge-1e-9 {
			t.Fatalf("trial %d: submodularity violated: %v < %v", trial, dSmall, dLarge)
		}
	}
}

// --- Incremental state -------------------------------------------------------

func TestStateIncrementalMatchesScratch(t *testing.T) {
	r := rng.New(606)
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(4)
		db := randomDB(r, n)
		g := randomGroupSum(r, n)
		ge := mustGroup(t, db, g)
		st := ge.NewState()
		if !numeric.AlmostEqual(st.EV(), ge.EV(nil), 1e-9) {
			t.Fatalf("initial state EV %v vs scratch %v", st.EV(), ge.EV(nil))
		}
		var T model.Set
		order := r.Perm(n)
		for _, o := range order[:1+r.Intn(n)] {
			// Delta must predict the committed change.
			d := st.Delta(o)
			before := st.EV()
			got := st.Clean(o)
			if !numeric.AlmostEqual(d, got, 1e-9) {
				t.Fatalf("Delta %v != Clean delta %v", d, got)
			}
			if !numeric.AlmostEqual(st.EV(), before+d, 1e-9) {
				t.Fatalf("state EV %v != before+delta %v", st.EV(), before+d)
			}
			T = T.Add(o)
			if want := ge.EV(T); !numeric.AlmostEqual(st.EV(), want, 1e-8) {
				t.Fatalf("trial %d: incremental EV %v vs scratch %v after cleaning %v",
					trial, st.EV(), want, T)
			}
			if st.Delta(o) != 0 || st.Clean(o) != 0 {
				t.Fatal("re-cleaning should be a no-op")
			}
		}
	}
}

func TestStateAffected(t *testing.T) {
	db := randomDB(rng.New(1), 6)
	g := &query.GroupSum{Terms: []query.Term{
		query.LinearTerm([]int{0, 1}, []float64{1, 1}, 0),
		query.LinearTerm([]int{1, 2}, []float64{1, 1}, 0),
		query.LinearTerm([]int{4}, []float64{1}, 0),
	}}
	ge := mustGroup(t, db, g)
	st := ge.NewState()
	aff := st.Affected(1)
	// Object 1 shares term 0 with 0, term 1 with 2, and via the overlapping
	// pair (0,1) the union {0,1,2}.
	want := []int{0, 2}
	if len(aff) != len(want) || aff[0] != 0 || aff[1] != 2 {
		t.Fatalf("Affected(1) = %v, want %v", aff, want)
	}
	if got := st.Affected(4); len(got) != 0 {
		t.Fatalf("Affected(4) = %v, want empty", got)
	}
	if ge.NumPairs() != 1 {
		t.Fatalf("NumPairs = %d, want 1", ge.NumPairs())
	}
}

// --- Conditional moments ------------------------------------------------------

func TestCondMomentsMatchesBruteForce(t *testing.T) {
	r := rng.New(909)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(4)
		db := randomDB(r, n)
		g := randomGroupSum(r, n)
		ge := mustGroup(t, db, g)
		dists, _ := db.Discretes()
		// Condition on a random subset at random support values.
		known := make([]bool, n)
		values := make([]float64, n)
		var condVars []int
		for i := 0; i < n; i++ {
			if r.Float64() < 0.5 {
				known[i] = true
				values[i] = dists[i].Values[r.Intn(dists[i].Size())]
				condVars = append(condVars, i)
			}
		}
		gotMean, gotVar := ge.CondMoments(values, known)
		// Brute force conditional moments.
		x := make([]float64, n)
		copy(x, values)
		var free []int
		for i := 0; i < n; i++ {
			if !known[i] {
				free = append(free, i)
			}
		}
		var m1, m2 numeric.KahanAcc
		enumerateRec(dists, free, x, func(p float64) {
			v := g.Eval(x)
			m1.Add(p * v)
			m2.Add(p * v * v)
		})
		wantMean := m1.Value()
		wantVar := m2.Value() - wantMean*wantMean
		if wantVar < 0 {
			wantVar = 0
		}
		if !numeric.AlmostEqual(gotMean, wantMean, 1e-8) {
			t.Fatalf("trial %d: cond mean %v vs %v (cond on %v)", trial, gotMean, wantMean, condVars)
		}
		if !numeric.AlmostEqual(gotVar, wantVar, 1e-8) {
			t.Fatalf("trial %d: cond var %v vs %v", trial, gotVar, wantVar)
		}
	}
}

// --- Engine validation ----------------------------------------------------------

func TestGroupEngineValidation(t *testing.T) {
	db := randomDB(rng.New(3), 3)
	bad := &query.GroupSum{Terms: []query.Term{
		query.LinearTerm([]int{0, 0}, []float64{1, 1}, 0),
	}}
	if _, err := NewGroupEngine(db, bad); err == nil {
		t.Fatal("duplicate var in term accepted")
	}
	bad2 := &query.GroupSum{Terms: []query.Term{
		query.LinearTerm([]int{7}, []float64{1}, 0),
	}}
	if _, err := NewGroupEngine(db, bad2); err == nil {
		t.Fatal("out-of-range var accepted")
	}
	bad3 := &query.GroupSum{Terms: []query.Term{{Vars: []int{0}}}}
	if _, err := NewGroupEngine(db, bad3); err == nil {
		t.Fatal("term without a function accepted")
	}
}
