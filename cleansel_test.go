package cleansel_test

import (
	"math"
	"slices"
	"testing"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/datasets"
)

// Example 2's crime database: five years of counts with the claim
// "crimes went up by more than 300 from 2017 to 2018".
func crimeDB(t *testing.T) *cleansel.DB {
	t.Helper()
	counts := []float64{9010, 9275, 9300, 9125, 9430}
	years := []string{"2014", "2015", "2016", "2017", "2018"}
	objs := make([]cleansel.Object, len(counts))
	for i, c := range counts {
		// Each count may be off by up to ~100 cases either way.
		d := cleansel.UniformOver([]float64{c - 100, c - 50, c, c + 50, c + 100})
		objs[i] = cleansel.Object{Name: "crimes/" + years[i], Current: c, Cost: 1, Value: d}
	}
	return cleansel.NewDB(objs)
}

func crimeSet(t *testing.T, db *cleansel.DB) *cleansel.PerturbationSet {
	t.Helper()
	orig := cleansel.WindowComparison("increase-2018", 3, 4, 1)
	perturbs := cleansel.SlidingComparisons("cmp", db.N(), 1, 3, 1.0)
	var filtered []cleansel.Perturbed
	for _, p := range perturbs {
		if p.Distance > 0 {
			filtered = append(filtered, p)
		}
	}
	set, err := cleansel.NewPerturbationSet(orig, cleansel.HigherIsStronger, 300, filtered)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestSelectMinVarUniqueness(t *testing.T) {
	db := crimeDB(t)
	set := crimeSet(t, db)
	res, err := cleansel.Select(cleansel.Task{
		DB: db, Claims: set,
		Measure:   cleansel.Uniqueness,
		Goal:      cleansel.MinimizeUncertainty,
		Algorithm: cleansel.AlgoGreedy,
		Budget:    2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) == 0 || res.CostSpent > 2 {
		t.Fatalf("bad selection: %+v", res)
	}
	if res.After > res.Before+1e-9 {
		t.Fatalf("uncertainty increased: %v -> %v", res.Before, res.After)
	}
	if len(res.Chosen) != len(res.Set) {
		t.Fatal("names missing")
	}
}

func TestSelectAlgorithmsAgreeOnObjective(t *testing.T) {
	db := crimeDB(t)
	set := crimeSet(t, db)
	for _, algo := range []cleansel.Algorithm{
		cleansel.AlgoGreedy, cleansel.AlgoBest, cleansel.AlgoNaive, cleansel.AlgoRandom,
	} {
		res, err := cleansel.Select(cleansel.Task{
			DB: db, Claims: set,
			Measure: cleansel.Uniqueness, Goal: cleansel.MinimizeUncertainty,
			Algorithm: algo, Budget: db.TotalCost(), Seed: 7,
		})
		if err != nil {
			t.Fatalf("algo %d: %v", algo, err)
		}
		// Full budget: everyone cleans everything relevant; uncertainty 0.
		if res.After > 1e-9 {
			t.Fatalf("algo %d left uncertainty %v at full budget", algo, res.After)
		}
	}
}

func TestSelectMinVarFairnessOptimum(t *testing.T) {
	db := crimeDB(t)
	set := crimeSet(t, db)
	res, err := cleansel.Select(cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Fairness, Goal: cleansel.MinimizeUncertainty,
		Algorithm: cleansel.AlgoOptimum, Budget: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := cleansel.Select(cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Fairness, Goal: cleansel.MinimizeUncertainty,
		Algorithm: cleansel.AlgoGreedy, Budget: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.After > greedy.After+1e-9 {
		t.Fatalf("Optimum (%v) worse than greedy (%v)", res.After, greedy.After)
	}
}

func TestSelectMaxPr(t *testing.T) {
	db := crimeDB(t)
	set := crimeSet(t, db)
	res, err := cleansel.Select(cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Fairness, Goal: cleansel.MaximizeSurprise,
		Budget: 2, Tau: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Before != 0 {
		t.Fatalf("P(∅) = %v, want 0", res.Before)
	}
	if res.After < 0 || res.After > 1 {
		t.Fatalf("probability %v out of range", res.After)
	}
	// MaxPr on a non-fairness measure is rejected.
	if _, err := cleansel.Select(cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Uniqueness, Goal: cleansel.MaximizeSurprise, Budget: 2,
	}); err == nil {
		t.Fatal("MaxPr on uniqueness accepted")
	}
}

// TestSelectMaxPrRejectsNonGreedyAlgorithms pins that MaxPr honours
// Task.Algorithm: it has one solver, GreedyMaxPr, so every other
// algorithm is an error rather than a silent greedy run.
func TestSelectMaxPrRejectsNonGreedyAlgorithms(t *testing.T) {
	db := datasets.SyntheticK(datasets.UR, 30, 4, 9)
	orig := cleansel.WindowSum("claim", 0, 5)
	set, err := cleansel.NewPerturbationSet(orig, cleansel.HigherIsStronger,
		orig.Eval(db.Currents()), cleansel.NonOverlappingWindows("w", 30, 5, 0, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	task := cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Fairness, Goal: cleansel.MaximizeSurprise,
		Budget: 5, Seed: 1,
	}
	if _, err := cleansel.Select(task); err != nil {
		t.Fatalf("greedy MaxPr: %v", err)
	}
	for _, algo := range []cleansel.Algorithm{cleansel.AlgoOptimum, cleansel.AlgoBest, cleansel.AlgoNaive, cleansel.AlgoRandom} {
		task.Algorithm = algo
		if res, err := cleansel.Select(task); err == nil {
			t.Errorf("MaxPr with algorithm %v accepted (chose %v)", algo, res.Set)
		}
	}
}

func TestSelectValidation(t *testing.T) {
	if _, err := cleansel.Select(cleansel.Task{}); err == nil {
		t.Fatal("empty task accepted")
	}
}

func TestAssessClaim(t *testing.T) {
	db := crimeDB(t)
	set := crimeSet(t, db)
	rep, err := cleansel.AssessClaim(db, set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Perturbations != 3 {
		t.Fatalf("perturbations %d, want 3", rep.Perturbations)
	}
	// At current values: increases are 265, 25, −175 vs the asserted 300.
	// Every perturbation is weaker, so duplicity 0 and negative bias.
	if rep.Duplicity != 0 {
		t.Fatalf("duplicity %d, want 0", rep.Duplicity)
	}
	if rep.Bias >= 0 {
		t.Fatalf("bias %v, want negative (claim exaggerates vs context)", rep.Bias)
	}
	if rep.BiasVariance <= 0 || rep.DupVariance < 0 || rep.FragVariance < 0 {
		t.Fatalf("bad variances: %+v", rep)
	}
	if math.IsNaN(rep.Fragility) || rep.Fragility <= 0 {
		t.Fatalf("fragility %v, want positive (perturbations weaken the claim)", rep.Fragility)
	}
}

func TestAssessClaimNormalDBDiscretizes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping full-width Adoptions assessment in -short mode (~17s)")
	}
	db := cleansel.Adoptions(1)
	orig := cleansel.WindowComparison("orig", 0, 4, 4)
	perturbs := cleansel.SlidingComparisons("cmp", db.N(), 4, 0, 1.5)
	set, err := cleansel.NewPerturbationSet(orig, cleansel.HigherIsStronger, orig.Eval(db.Currents()), perturbs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cleansel.AssessClaim(db, set)
	if err != nil {
		t.Fatal(err)
	}
	if rep.BiasVariance <= 0 {
		t.Fatal("bias variance should be positive")
	}
}

func TestRankObjects(t *testing.T) {
	db := crimeDB(t)
	set := crimeSet(t, db)
	for _, m := range []cleansel.Measure{cleansel.Fairness, cleansel.Uniqueness, cleansel.Robustness} {
		ranked, err := cleansel.RankObjects(db, set, m)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if len(ranked) != db.N() {
			t.Fatalf("%v: %d entries for %d objects", m, len(ranked), db.N())
		}
		// Sorted by benefit/cost descending.
		for i := 1; i < len(ranked); i++ {
			ra := ranked[i-1].Benefit / ranked[i-1].Cost
			rb := ranked[i].Benefit / ranked[i].Cost
			if rb > ra+1e-12 {
				t.Fatalf("%v: ranking not sorted at %d: %v then %v", m, i, ra, rb)
			}
		}
		// Benefits are non-negative and names are attached.
		for _, o := range ranked {
			if o.Benefit < 0 {
				t.Fatalf("%v: negative benefit %v", m, o.Benefit)
			}
			if o.Name == "" {
				t.Fatalf("%v: missing name", m)
			}
		}
	}
	// The fairness ranking must agree with the greedy's first pick.
	ranked, err := cleansel.RankObjects(db, set, cleansel.Fairness)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cleansel.Select(cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Fairness, Goal: cleansel.MinimizeUncertainty,
		Algorithm: cleansel.AlgoGreedy, Budget: db.Objects[ranked[0].ID].Cost,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Set) == 0 || res.Set[0] != ranked[0].ID {
		t.Fatalf("greedy first pick %v disagrees with top-ranked %d", res.Set, ranked[0].ID)
	}
	if _, err := cleansel.RankObjects(nil, set, cleansel.Fairness); err == nil {
		t.Fatal("nil db accepted")
	}
}

func TestWithDecayCovariance(t *testing.T) {
	db := cleansel.CDCFirearms(1)
	if err := cleansel.WithDecayCovariance(db, 0.6); err != nil {
		t.Fatal(err)
	}
	if db.Cov == nil {
		t.Fatal("covariance not installed")
	}
	if err := db.Validate(); err != nil {
		t.Fatal(err)
	}
	// Correlated fairness selection routes through GreedyDep.
	orig := cleansel.WindowComparison("orig", 0, 4, 4)
	perturbs := cleansel.SlidingComparisons("cmp", db.N(), 4, 0, 1.5)
	set, err := cleansel.NewPerturbationSet(orig, cleansel.HigherIsStronger,
		orig.Eval(db.Currents()), perturbs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := cleansel.Select(cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Fairness, Goal: cleansel.MinimizeUncertainty,
		Budget: db.Budget(0.2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.After >= res.Before {
		t.Fatalf("correlated cleaning did not reduce variance: %v -> %v", res.Before, res.After)
	}
	// The other algorithms are honoured: random and naive run as on
	// independent data, scored by the same MVN engine, and the two that
	// assume independent errors are rejected.
	for _, algo := range []cleansel.Algorithm{cleansel.AlgoRandom, cleansel.AlgoNaive} {
		task := cleansel.Task{
			DB: db, Claims: set,
			Measure: cleansel.Fairness, Goal: cleansel.MinimizeUncertainty,
			Algorithm: algo, Budget: db.Budget(0.2), Seed: 3,
		}
		var sel core.Selector = &core.Random{DB: db, Seed: task.Seed}
		if algo == cleansel.AlgoNaive {
			sel = &core.GreedyNaive{DB: db, Vars: set.Bias().Vars()}
		}
		want, err := sel.Select(task.Budget)
		if err != nil {
			t.Fatal(err)
		}
		if algo == cleansel.AlgoRandom && slices.Equal(want, res.Set) {
			t.Fatalf("random baseline chose GreedyDep's set %v: pick another seed", want)
		}
		got, err := cleansel.Select(task)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got.Set, want) || got.Before != res.Before {
			t.Fatalf("%v: chose %v (Before %v), want %v (Before %v)", algo, got.Set, got.Before, want, res.Before)
		}
	}
	for _, algo := range []cleansel.Algorithm{cleansel.AlgoOptimum, cleansel.AlgoBest} {
		if _, err := cleansel.Select(cleansel.Task{
			DB: db, Claims: set,
			Measure: cleansel.Fairness, Goal: cleansel.MinimizeUncertainty,
			Algorithm: algo, Budget: db.Budget(0.2),
		}); err == nil {
			t.Fatalf("correlated %v accepted", algo)
		}
	}
	// Correlated + non-fairness measures are rejected.
	if _, err := cleansel.Select(cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Uniqueness, Goal: cleansel.MinimizeUncertainty,
		Budget: 1,
	}); err == nil {
		t.Fatal("correlated uniqueness accepted")
	}
	// Out-of-range gamma rejected.
	if err := cleansel.WithDecayCovariance(db, 1.0); err == nil {
		t.Fatal("gamma=1 accepted")
	}
}

// A singular error covariance must fail a MaxPr solve rather than read
// as "0 probability of surprise": an error-free object b gives the decay
// covariance a zero row, and the law of the cleaned values given the
// uncleaned ones does not exist. The same call with σ_b = 0.5 solves.
func TestSelectMaxPrSingularCovariance(t *testing.T) {
	for _, sigmaB := range []float64{0.5, 0} {
		a, err := cleansel.NewNormal(10, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := cleansel.NewNormal(10, sigmaB)
		if err != nil {
			t.Fatal(err)
		}
		db := cleansel.NewDB([]cleansel.Object{
			{Name: "a", Current: 10, Cost: 1, Value: a},
			{Name: "b", Current: 10, Cost: 1, Value: b},
		})
		if err := cleansel.WithDecayCovariance(db, 0.5); err != nil {
			t.Fatal(err)
		}
		orig := cleansel.WindowSum("claim", 0, 2)
		set, err := cleansel.NewPerturbationSet(orig, cleansel.HigherIsStronger,
			orig.Eval(db.Currents()), cleansel.NonOverlappingWindows("w", 2, 1, 0, 0.5))
		if err != nil {
			t.Fatal(err)
		}
		res, err := cleansel.Select(cleansel.Task{
			DB: db, Claims: set,
			Measure: cleansel.Fairness, Goal: cleansel.MaximizeSurprise,
			Budget: 1, Tau: 0.1,
		})
		if sigmaB > 0 {
			if err != nil || len(res.Set) != 1 || res.After <= 0 {
				t.Fatalf("σ_b = %v: chose %v at P = %v, err %v", sigmaB, res.Set, res.After, err)
			}
		} else if err == nil {
			t.Fatalf("singular covariance accepted: chose %v at P = %v", res.Set, res.After)
		}
	}
}

func TestRelationalFacade(t *testing.T) {
	db := cleansel.NewDB([]cleansel.Object{
		{Name: "a/1", Current: 10, Cost: 1, Value: cleansel.UniformOver([]float64{9, 10, 11})},
		{Name: "a/2", Current: 20, Cost: 1, Value: cleansel.UniformOver([]float64{19, 20, 21})},
		{Name: "b/1", Current: 30, Cost: 1, Value: cleansel.UniformOver([]float64{29, 30, 31})},
	})
	tab, err := cleansel.NewTable("t", db, []cleansel.Row{
		{Dims: map[string]string{"g": "a"}, Ints: map[string]int{"y": 1}, Measure: 0},
		{Dims: map[string]string{"g": "a"}, Ints: map[string]int{"y": 2}, Measure: 1},
		{Dims: map[string]string{"g": "b"}, Ints: map[string]int{"y": 1}, Measure: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	aSum := tab.Sum("a", cleansel.DimEq("g", "a"))
	bSum := tab.Sum("b", cleansel.DimEq("g", "b"))
	diff := cleansel.ClaimDiff("a-b", aSum, bSum)
	if got := diff.Eval(db.Currents()); got != 0 {
		t.Fatalf("diff = %v, want 0", got)
	}
	share := cleansel.ClaimShare("share", aSum, bSum, 0.5)
	if got := share.Eval(db.Currents()); got != 15 {
		t.Fatalf("share = %v, want 15", got)
	}
	one := tab.Sum("y1", cleansel.PredAnd(cleansel.DimEq("g", "a"), cleansel.IntBetween("y", 1, 1)))
	if len(one.Vars()) != 1 {
		t.Fatalf("combined predicate matched %v", one.Vars())
	}
	none := tab.Sum("none", cleansel.PredNot(cleansel.PredOr(cleansel.DimEq("g", "a"), cleansel.DimEq("g", "b"))))
	if len(none.Vars()) != 0 {
		t.Fatalf("negated union matched %v", none.Vars())
	}
}

func TestDatasetsExported(t *testing.T) {
	if cleansel.Adoptions(1).N() != 26 {
		t.Fatal("Adoptions")
	}
	if cleansel.CDCFirearms(1).N() != 17 {
		t.Fatal("CDCFirearms")
	}
	if cleansel.CDCCauses(1).N() != 68 {
		t.Fatal("CDCCauses")
	}
	if cleansel.URx(10, 1).N() != 10 || cleansel.LNx(10, 1).N() != 10 || cleansel.SMx(10, 1).N() != 10 {
		t.Fatal("synthetic")
	}
}

func TestSourceFusionExported(t *testing.T) {
	a, _ := cleansel.NewNormal(10, 2)
	b, _ := cleansel.NewNormal(14, 2)
	f, err := cleansel.FuseNormals([]cleansel.Normal{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if f.Mu != 12 {
		t.Fatalf("fused mean %v", f.Mu)
	}
	m, err := cleansel.Mixture(
		[]*cleansel.Discrete{cleansel.PointMass(0), cleansel.PointMass(10)},
		[]float64{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if m.Mean() != 5 {
		t.Fatalf("mixture mean %v", m.Mean())
	}
}

func TestDistributionConstructors(t *testing.T) {
	if _, err := cleansel.NewDiscrete([]float64{1}, []float64{1}); err != nil {
		t.Fatal(err)
	}
	if _, err := cleansel.NewNormal(0, -1); err == nil {
		t.Fatal("negative sigma accepted")
	}
	if cleansel.PointMass(3).Mean() != 3 {
		t.Fatal("point mass")
	}
	if cleansel.NewSet(2, 1)[0] != 1 {
		t.Fatal("NewSet")
	}
	ws := cleansel.WindowSum("w", 0, 2)
	if len(ws.Vars()) != 2 {
		t.Fatal("WindowSum")
	}
	nw := cleansel.NonOverlappingWindows("w", 8, 4, 4, 1)
	if len(nw) != 2 {
		t.Fatal("NonOverlappingWindows")
	}
	sw := cleansel.SlidingWindows("w", 8, 4, 0, 1)
	if len(sw) != 5 {
		t.Fatal("SlidingWindows")
	}
	if cleansel.NewClaim("c", 0, map[int]float64{0: 1}) == nil {
		t.Fatal("NewClaim")
	}
}
