package core

import (
	"fmt"
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// Example 5/6 database: X1 uniform over {0,1/2,1,3/2,2}, X2 uniform over
// {1/3,1,5/3}, u = (1,1), unit costs.
func exampleDB() *model.DB {
	return model.New([]model.Object{
		{Name: "x1", Cost: 1, Current: 1, Value: dist.UniformOver([]float64{0, 0.5, 1, 1.5, 2})},
		{Name: "x2", Cost: 1, Current: 1, Value: dist.UniformOver([]float64{1.0 / 3, 1, 5.0 / 3})},
	})
}

func selectT(t *testing.T, s Selector, budget float64) model.Set {
	t.Helper()
	T, err := s.Select(budget)
	if err != nil {
		t.Fatalf("%s: %v", s.Name(), err)
	}
	return T
}

// Example 6: with budget for one object, GreedyNaive cleans X1 (higher
// variance) while GreedyMinVar cleans X2 (larger objective improvement).
func TestExample6GreedyChoices(t *testing.T) {
	db := exampleDB()
	g := query.Indicator([]int{0, 1}, func(v []float64) bool {
		return v[0]+v[1] < 11.0/12.0
	})

	naive := NewGreedyNaive(db, []int{0, 1})
	T := selectT(t, naive, 1)
	if len(T) != 1 || !T.Has(0) {
		t.Fatalf("GreedyNaive chose %v, want {x1}", T)
	}

	gmv, err := NewGreedyMinVarGroup(db, g)
	if err != nil {
		t.Fatal(err)
	}
	T = selectT(t, gmv, 1)
	if len(T) != 1 || !T.Has(1) {
		t.Fatalf("GreedyMinVar chose %v, want {x2}", T)
	}
}

// Example 5: for bias = X1+X2−2 the MinVar optimum cleans X1, while the
// MaxPr optimum (threshold 17/12, i.e. τ = 7/12) cleans X2.
func TestExample5ObjectivesDisagree(t *testing.T) {
	db := exampleDB()
	bias := query.NewAffine(-2, map[int]float64{0: 1, 1: 1})

	opt, err := NewOptimumModular(db, bias)
	if err != nil {
		t.Fatal(err)
	}
	T := selectT(t, opt, 1)
	if len(T) != 1 || !T.Has(0) {
		t.Fatalf("MinVar Optimum chose %v, want {x1}", T)
	}

	eval, err := maxpr.NewHybrid(db, bias, 7.0/12.0, 0, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	gmp, err := NewGreedyMaxPr(db, eval)
	if err != nil {
		t.Fatal(err)
	}
	T = selectT(t, gmp, 1)
	if len(T) != 1 || !T.Has(1) {
		t.Fatalf("GreedyMaxPr chose %v, want {x2}", T)
	}
}

func TestRandomSelector(t *testing.T) {
	db := randomCoreDB(rng.New(5), 10)
	r1 := &Random{DB: db, Seed: 42}
	r2 := &Random{DB: db, Seed: 42}
	T1 := selectT(t, r1, db.TotalCost()/2)
	T2 := selectT(t, r2, db.TotalCost()/2)
	if len(T1) != len(T2) {
		t.Fatal("same seed should give same selection")
	}
	for i := range T1 {
		if T1[i] != T2[i] {
			t.Fatal("same seed should give same selection")
		}
	}
	if T1.Cost(db) > db.TotalCost()/2+1e-9 {
		t.Fatal("Random exceeded budget")
	}
	// Full budget takes everything.
	full := selectT(t, r1, db.TotalCost())
	if len(full) != db.N() {
		t.Fatalf("full budget should clean all, got %d/%d", len(full), db.N())
	}
}

func TestGreedyNaiveCostBlindOrder(t *testing.T) {
	db := model.New([]model.Object{
		{Name: "lowvar", Cost: 1, Value: dist.UniformOver([]float64{0, 1})},
		{Name: "highvar", Cost: 100, Value: dist.UniformOver([]float64{0, 100})},
	})
	cb := &GreedyNaiveCostBlind{DB: db}
	// Budget covers only the cheap object, but cost-blind ranks highvar
	// first and skips what does not fit.
	T := selectT(t, cb, 1)
	if len(T) != 1 || !T.Has(0) {
		t.Fatalf("cost-blind chose %v", T)
	}
	// With budget 101 it takes highvar first, then lowvar.
	T = selectT(t, cb, 101)
	if len(T) != 2 {
		t.Fatalf("cost-blind with full budget chose %v", T)
	}
}

func TestGreedyNaiveRespectsVars(t *testing.T) {
	db := model.New([]model.Object{
		{Name: "in", Cost: 1, Value: dist.UniformOver([]float64{0, 1})},
		{Name: "out", Cost: 1, Value: dist.UniformOver([]float64{0, 100})},
	})
	gn := NewGreedyNaive(db, []int{0})
	T := selectT(t, gn, 2)
	if T.Has(1) {
		t.Fatalf("GreedyNaive cleaned an unreferenced object: %v", T)
	}
}

func randomCoreDB(r *rng.RNG, n int) *model.DB {
	objs := make([]model.Object, n)
	for i := range objs {
		k := 2 + r.Intn(3)
		vals := make([]float64, k)
		probs := make([]float64, k)
		for j := range vals {
			vals[j] = float64(r.IntRange(0, 20))
			probs[j] = r.Float64() + 0.05
		}
		d := dist.MustDiscrete(vals, probs)
		objs[i] = model.Object{
			Name: "o", Cost: float64(r.IntRange(1, 8)),
			Current: d.Values[0], Value: d,
		}
	}
	return model.New(objs)
}

// The lazy-queue group greedy must choose what the O(n²) adaptive
// greedy chooses on random instances: the same set, so the same EV. A
// lazy refresh that buys a benefit of 0 returns a dearer set at the same
// EV (trials 1, 7, 9 and 12).
func TestGroupGreedyMatchesAdaptiveGreedy(t *testing.T) {
	r := rng.New(2718)
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(4)
		db := randomCoreDB(r, n)
		g := randomGroupQuery(r, n)
		engine, err := ev.NewGroupEngine(db, g)
		if err != nil {
			t.Fatal(err)
		}
		fast, err := NewGreedyMinVarGroup(db, g)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NewGreedyEngine("GreedyMinVar", db, engine)
		if err != nil {
			t.Fatal(err)
		}
		budget := r.Float64() * db.TotalCost()
		Tf := selectT(t, fast, budget)
		Ts := selectT(t, slow, budget)
		if Tf.Cost(db) > budget+1e-9 || Ts.Cost(db) > budget+1e-9 {
			t.Fatalf("trial %d: budget violated", trial)
		}
		evF, evS := engine.EV(Tf), engine.EV(Ts)
		if !setsEqual(Tf, Ts) || !numeric.AlmostEqual(evF, evS, 1e-6) {
			t.Fatalf("trial %d: fast EV %v vs slow EV %v (sets %v vs %v)",
				trial, evF, evS, Tf, Ts)
		}
	}
}

func randomGroupQuery(r *rng.RNG, n int) *query.GroupSum {
	g := &query.GroupSum{}
	nTerms := 1 + r.Intn(3)
	for t := 0; t < nTerms; t++ {
		k := 1 + r.Intn(2)
		if k > n {
			k = n
		}
		vars := r.SampleWithoutReplacement(0, n-1, k)
		coef := make([]float64, k)
		for j := range coef {
			coef[j] = float64(r.IntRange(-2, 2))
		}
		c := float64(r.IntRange(-10, 10))
		if r.Intn(2) == 0 {
			g.Terms = append(g.Terms, query.IndicatorGE(vars, coef, c, 1))
		} else {
			g.Terms = append(g.Terms, query.LinearTerm(vars, coef, c))
		}
	}
	return g
}

// Optimum (knapsack DP) must match exhaustive OPT on modular instances.
func TestOptimumMatchesOPT(t *testing.T) {
	r := rng.New(314)
	for trial := 0; trial < 15; trial++ {
		n := 3 + r.Intn(5)
		db := randomCoreDB(r, n)
		coef := map[int]float64{}
		for i := 0; i < n; i++ {
			coef[i] = float64(r.IntRange(-3, 3))
		}
		f := query.NewAffine(0, coef)
		engine, err := ev.NewModular(db, f)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := NewOptimumModular(db, f)
		if err != nil {
			t.Fatal(err)
		}
		exh, err := NewOPTMinVar(db, engine)
		if err != nil {
			t.Fatal(err)
		}
		budget := r.Float64() * db.TotalCost()
		To := selectT(t, opt, budget)
		Te := selectT(t, exh, budget)
		if !numeric.AlmostEqual(engine.EV(To), engine.EV(Te), 1e-9) {
			t.Fatalf("trial %d: Optimum EV %v vs OPT EV %v", trial, engine.EV(To), engine.EV(Te))
		}
	}
}

// GreedyMinVar (modular) achieves at least half the optimum's variance
// reduction (knapsack 2-approximation).
func TestModularGreedyTwoApprox(t *testing.T) {
	r := rng.New(1618)
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(5)
		db := randomCoreDB(r, n)
		coef := map[int]float64{}
		for i := 0; i < n; i++ {
			coef[i] = float64(r.IntRange(-3, 3))
		}
		f := query.NewAffine(0, coef)
		engine, _ := ev.NewModular(db, f)
		greedy, err := NewGreedyMinVarModular(db, f)
		if err != nil {
			t.Fatal(err)
		}
		opt, _ := NewOptimumModular(db, f)
		budget := r.Float64() * db.TotalCost()
		Tg := selectT(t, greedy, budget)
		To := selectT(t, opt, budget)
		total := engine.Variance()
		gainG := total - engine.EV(Tg)
		gainO := total - engine.EV(To)
		if gainG < gainO/2-1e-9 {
			t.Fatalf("trial %d: greedy gain %v < OPT/2 = %v", trial, gainG, gainO/2)
		}
	}
}

// Algorithm 1's final single-item check on the §3.1 adversarial
// instance: a cheap object (benefit 0.1, cost 0.0001) with by far the
// best ratio and a dear one (benefit 10, cost 2), budget 2. Density
// greedy buys the cheap object and can then no longer afford the dear
// one; only the final check returns the dear one. The MaxPr row is the
// nearest analogue: P({cheap}) = Φ(−3) ≈ 0.0013, P({dear}) = Φ(−0.3) ≈ 0.38.
func TestGreedyFinalSingleItemCheck(t *testing.T) {
	twoPoint := func(variance float64) model.Value {
		s := math.Sqrt(variance)
		d, err := dist.NewDiscrete([]float64{-s, s}, []float64{0.5, 0.5})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	centered := func(sigma float64) model.Value {
		n, err := dist.NewNormal(0, sigma)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	db := model.New([]model.Object{
		{Name: "cheap", Cost: 0.0001, Value: twoPoint(0.1)},
		{Name: "dear", Cost: 2, Value: twoPoint(10)},
	})
	normals := model.New([]model.Object{
		{Name: "cheap", Cost: 0.0001, Value: centered(1)},
		{Name: "dear", Cost: 2, Value: centered(10)},
	})
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1})
	modular, err := NewGreedyMinVarModular(db, f)
	if err != nil {
		t.Fatal(err)
	}
	group, err := NewGreedyMinVarGroup(db, f.AsGroupSum())
	if err != nil {
		t.Fatal(err)
	}
	engine, err := ev.NewGroupEngine(db, f.AsGroupSum())
	if err != nil {
		t.Fatal(err)
	}
	generic, err := NewGreedyEngine("GreedyMinVar", db, engine)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := maxpr.NewNormalAffine(normals, f, 3)
	if err != nil {
		t.Fatal(err)
	}
	maxPr, err := NewGreedyMaxPr(normals, eval)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sel  Selector
	}{
		{"GreedyMinVarModular", modular},
		{"GreedyMinVarGroup", group},
		{"GreedyEngine", generic},
		{"GreedyMaxPr", maxPr},
	} {
		if T := selectT(t, c.sel, 2); len(T) != 1 || !T.Has(1) {
			t.Errorf("%s chose %v, want [1]", c.name, T)
		}
	}
}

// Every Algorithm-1 entry point refuses an object whose gain is 0.
// Three objects share the support {0, 4, 10} (masses 0.3/0.3/0.4) at
// current value 10 with costs 1, 2 and 3; object 1 sits in the first
// term with coefficient 0, so cleaning it never moves the objective.
// The budget of 6 affords all three, but only [0 2] is worth buying:
// after object 0 is cleaned, the lazy queue's refresh of object 1 reads
// a benefit of 0, which it must drop rather than buy at ratio 0. The
// one-round row is the session's decide-step after 0 and 2 are cleaned.
func TestGreedySkipsZeroGain(t *testing.T) {
	objs := make([]model.Object, 3)
	for i := range objs {
		objs[i] = model.Object{Name: fmt.Sprint("o", i), Cost: float64(i + 1), Current: 10,
			Value: dist.MustDiscrete([]float64{0, 4, 10}, []float64{0.3, 0.3, 0.4})}
	}
	db := model.New(objs)
	g := &query.GroupSum{Terms: []query.Term{
		query.LinearTerm([]int{0, 1}, []float64{1, 0}, 0),
		query.LinearTerm([]int{2}, []float64{1}, 0),
	}}
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 0, 2: 1})
	modular, err := NewGreedyMinVarModular(db, f)
	if err != nil {
		t.Fatal(err)
	}
	group, err := NewGreedyMinVarGroup(db, g)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := ev.NewGroupEngine(db, g)
	if err != nil {
		t.Fatal(err)
	}
	generic, err := NewGreedyEngine("GreedyMinVar", db, engine)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := maxpr.NewHybrid(db, f, 1, 0, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	maxPr, err := NewGreedyMaxPr(db, eval)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		sel  Selector
	}{
		{"GreedyMinVarModular", modular},
		{"GreedyMinVarGroup", group},
		{"GreedyEngine", generic},
		{"GreedyMaxPr", maxPr},
	} {
		if T := selectT(t, c.sel, 6); !setsEqual(T, model.NewSet(0, 2)) {
			t.Errorf("%s chose %v, want [0 2]", c.name, T)
		}
	}
	st := engine.NewState()
	st.Clean(0)
	st.Clean(2)
	if best, b, _ := NextAdaptiveStep(db.Costs(), []bool{true, false, true}, 2, func(o int) float64 {
		return -st.Delta(o)
	}); best != -1 {
		t.Errorf("NextAdaptiveStep chose %d (benefit %v), want -1", best, b)
	}
}

// Best must be feasible and no worse than OPT by more than its
// curvature-governed factor; on these small instances it is near-optimal.
func TestBestNearOPT(t *testing.T) {
	r := rng.New(4321)
	for trial := 0; trial < 10; trial++ {
		n := 3 + r.Intn(3)
		db := randomCoreDB(r, n)
		g := randomGroupQuery(r, n)
		engine, err := ev.NewGroupEngine(db, g)
		if err != nil {
			t.Fatal(err)
		}
		best, err := NewBest(db, engine)
		if err != nil {
			t.Fatal(err)
		}
		exh, err := NewOPTMinVar(db, engine)
		if err != nil {
			t.Fatal(err)
		}
		budget := (0.3 + 0.5*r.Float64()) * db.TotalCost()
		Tb := selectT(t, best, budget)
		To := selectT(t, exh, budget)
		if Tb.Cost(db) > budget+1e-9 {
			t.Fatalf("trial %d: Best over budget", trial)
		}
		evB, evO := engine.EV(Tb), engine.EV(To)
		if evB < evO-1e-9 {
			t.Fatalf("trial %d: Best beat OPT?! %v < %v", trial, evB, evO)
		}
		slack := 1e-9 + 0.75*(engine.Variance()-evO)
		if evB > evO+slack {
			t.Fatalf("trial %d: Best EV %v far above OPT %v (Var %v)", trial, evB, evO, engine.Variance())
		}
	}
}

// GreedyMaxPr must stop spending once no object improves the probability.
func TestGreedyMaxPrStops(t *testing.T) {
	// One object that surely helps, one that surely hurts.
	n1, _ := dist.NewNormal(0, 1)
	n2, _ := dist.NewNormal(0, 50)
	db := model.New([]model.Object{
		{Name: "drop", Cost: 1, Current: 5, Value: n1},
		{Name: "noise", Cost: 1, Current: 0, Value: n2},
	})
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1})
	eval, err := maxpr.NewNormalAffine(db, f, 1)
	if err != nil {
		t.Fatal(err)
	}
	gmp, err := NewGreedyMaxPr(db, eval)
	if err != nil {
		t.Fatal(err)
	}
	T := selectT(t, gmp, 2) // budget for both
	if len(T) != 1 || !T.Has(0) {
		t.Fatalf("GreedyMaxPr should clean only the helpful object, got %v", T)
	}
}

func TestValidateBudget(t *testing.T) {
	db := exampleDB()
	gn := NewGreedyNaive(db, nil)
	if _, err := NewGreedyMinVarModular(db, query.NewAffine(0, map[int]float64{0: 1})); err != nil {
		t.Fatal(err)
	}
	gmv, _ := NewGreedyMinVarModular(db, query.NewAffine(0, map[int]float64{0: 1}))
	if _, err := gmv.Select(-1); err == nil {
		t.Fatal("negative budget accepted")
	}
	if T := selectT(t, gn, 0); len(T) != 0 {
		t.Fatalf("zero budget chose %v", T)
	}
}

func TestOPTGuards(t *testing.T) {
	big := randomCoreDB(rng.New(9), MaxExhaustiveN+1)
	if _, err := NewOPT("OPT", big, func(model.Set) float64 { return 0 }, false); err == nil {
		t.Fatal("oversized OPT accepted")
	}
	if _, err := NewOPT("OPT", nil, func(model.Set) float64 { return 0 }, false); err == nil {
		t.Fatal("nil db accepted")
	}
	db := exampleDB()
	if _, err := NewOPT("OPT", db, nil, false); err == nil {
		t.Fatal("nil objective accepted")
	}
}

// GreedyDep with a diagonal covariance must agree with the modular greedy
// (no dependencies to exploit).
func TestGreedyDepDiagonalMatchesModular(t *testing.T) {
	sig := []float64{1, 2, 3}
	objs := make([]model.Object, 3)
	for i, s := range sig {
		nd, _ := dist.NewNormal(0, s)
		objs[i] = model.Object{Name: "o", Cost: 1, Value: nd}
	}
	db := model.New(objs)
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1, 2: 1})
	dep, err := NewGreedyDep(db, f)
	if err != nil {
		t.Fatal(err)
	}
	mod, _ := NewGreedyMinVarModular(db, f)
	for _, budget := range []float64{1, 2, 3} {
		Td := selectT(t, dep, budget)
		Tm := selectT(t, mod, budget)
		engine, _ := ev.NewModular(db, f)
		if !numeric.AlmostEqual(engine.EV(Td), engine.EV(Tm), 1e-9) {
			t.Fatalf("budget %v: dep %v vs modular %v", budget, Td, Tm)
		}
	}
}

// GreedyDep spends no budget on an object whose cleaning reduces the
// variance by nothing. b is error-free, so conditioning on it changes
// nothing: once a is cleaned, b's benefit is exactly 0, and c (cost 5)
// does not fit the remaining 0.5. The round must end there, not buy b
// because its ratio of 0 is the best one left.
func TestGreedyDepSkipsZeroBenefit(t *testing.T) {
	costs := []float64{1, 0.5, 5}
	objs := make([]model.Object, 3)
	for i, s := range []float64{1, 0, 1} {
		nd, err := dist.NewNormal(0, s)
		if err != nil {
			t.Fatal(err)
		}
		objs[i] = model.Object{Name: "o", Cost: costs[i], Value: nd}
	}
	db := model.New(objs)
	db.SetDecayCovariance(0.9)
	dep, err := NewGreedyDep(db, query.NewAffine(0, map[int]float64{0: 1, 2: 1}))
	if err != nil {
		t.Fatal(err)
	}
	if T := selectT(t, dep, 1.5); !setsEqual(T, model.NewSet(0)) {
		t.Fatalf("chose %v, want [0]", T)
	}
}
