package cleansel_test

import (
	"context"
	"math"
	"slices"
	"testing"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/ev"
)

// discretizeTask is a MaxPr task over mixed value models: a normal(10,
// 2), b over {10, 12, 14} at ¼, ½, ¼ and c normal(9, 3), at unit cost,
// with the claim b − a judged by the perturbations a and b − c. Its
// answer depends on the discrete view of a and c: [a c] at 6 points,
// [a] at 2.
func discretizeTask(t *testing.T) cleansel.Task {
	t.Helper()
	a, err := cleansel.NewNormal(10, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cleansel.NewDiscrete([]float64{10, 12, 14}, []float64{0.25, 0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cleansel.NewNormal(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	db := cleansel.NewDB([]cleansel.Object{
		{Name: "a", Current: 10, Cost: 1, Value: a},
		{Name: "b", Current: 12, Cost: 1, Value: b},
		{Name: "c", Current: 9, Cost: 1, Value: c},
	})
	orig := cleansel.NewClaim("gap", 0, map[int]float64{1: 1, 0: -1})
	set, err := cleansel.NewPerturbationSet(orig, cleansel.HigherIsStronger, 2, []cleansel.Perturbed{
		{Claim: cleansel.NewClaim("a", 0, map[int]float64{0: 1}), Sensibility: 1},
		{Claim: cleansel.NewClaim("p", 0, map[int]float64{2: -1, 1: 1}), Sensibility: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cleansel.Task{DB: db, Claims: set, Goal: cleansel.MaximizeSurprise, Budget: 2, Tau: 0.5}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSelectDiscretizeIsTheHandView: a select with Discretize k answers
// what the same select over db.Discretized(k) answers, on every route
// that takes a discrete view. MaxPr over mixed models and uniqueness
// match bit for bit; AlgoBest fairness picks the same set, and reports
// Before and After exactly over the task's own normal laws.
func TestSelectDiscretizeIsTheHandView(t *testing.T) {
	base := discretizeTask(t)
	exact, err := ev.NewModular(base.DB, base.Claims.Bias())
	if err != nil {
		t.Fatal(err)
	}
	maxpr := base
	uniq := base
	uniq.Goal, uniq.Measure = cleansel.MinimizeUncertainty, cleansel.Uniqueness
	best := base
	best.Goal, best.Algorithm = cleansel.MinimizeUncertainty, cleansel.AlgoBest
	for _, k := range []int{2, 6, 64} {
		for _, c := range []struct {
			name       string
			task       cleansel.Task
			exactValue bool // Before/After over the task's own DB
		}{{"maxpr", maxpr, false}, {"uniqueness", uniq, false}, {"best", best, true}} {
			got := c.task
			got.Discretize = k
			gotRes, err := cleansel.Select(got)
			if err != nil {
				t.Fatalf("%s k=%d: %v", c.name, k, err)
			}
			hand := c.task
			hand.DB = c.task.DB.Discretized(k)
			want, err := cleansel.Select(hand)
			if err != nil {
				t.Fatalf("%s k=%d by hand: %v", c.name, k, err)
			}
			if c.exactValue {
				want.Before, want.After = exact.EV(nil), exact.EV(want.Set)
			}
			if !slices.Equal(gotRes.Set, want.Set) || !sameBits(gotRes.Before, want.Before) || !sameBits(gotRes.After, want.After) {
				t.Errorf("%s k=%d: %v %v→%v, want %v %v→%v", c.name, k,
					gotRes.Chosen, gotRes.Before, gotRes.After, want.Chosen, want.Before, want.After)
			}
		}
	}
	// The two counts the example was found with answer differently.
	two, six := maxpr, maxpr
	two.Discretize, six.Discretize = 2, 6
	for _, c := range []struct {
		task   cleansel.Task
		chosen []string
		after  float64
	}{{two, []string{"a"}, 0.5}, {six, []string{"a", "c"}, 0.38888888888888884}, {maxpr, []string{"a", "c"}, 0.38888888888888884}} {
		res, err := cleansel.Select(c.task)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Chosen, c.chosen) || res.After != c.after {
			t.Errorf("discretize %d: %v, After %v; want %v, %v", c.task.Discretize, res.Chosen, res.After, c.chosen, c.after)
		}
	}
}

// TestRankContextDiscretizeIsTheHandView: RankContext with Discretize k
// ranks as RankObjects does over db.Discretized(k), bit for bit.
func TestRankContextDiscretizeIsTheHandView(t *testing.T) {
	base := discretizeTask(t)
	for _, m := range []cleansel.Measure{cleansel.Uniqueness, cleansel.Robustness} {
		for _, k := range []int{2, 6, 64} {
			got, err := cleansel.RankContext(context.Background(),
				cleansel.Task{DB: base.DB, Claims: base.Claims, Measure: m, Discretize: k})
			if err != nil {
				t.Fatalf("%v k=%d: %v", m, k, err)
			}
			want, err := cleansel.RankObjects(base.DB.Discretized(k), base.Claims, m)
			if err != nil {
				t.Fatalf("%v k=%d by hand: %v", m, k, err)
			}
			if !slices.EqualFunc(got, want, func(a, b cleansel.ObjectBenefit) bool {
				return a.ID == b.ID && sameBits(a.Benefit, b.Benefit)
			}) {
				t.Errorf("%v k=%d: %+v, want %+v", m, k, got, want)
			}
		}
	}
}

// TestDiscretizeOutOfRangeIsAnError: Select and RankContext check the
// bound whatever the measure, goal and algorithm, so a fairness greedy,
// which takes no view, rejects 2^40 too.
func TestDiscretizeOutOfRangeIsAnError(t *testing.T) {
	base := discretizeTask(t)
	for _, k := range []int{-1, 1025, 1 << 40} {
		for _, m := range []cleansel.Measure{cleansel.Fairness, cleansel.Uniqueness, cleansel.Robustness} {
			task := base
			task.Goal, task.Measure, task.Discretize = cleansel.MinimizeUncertainty, m, k
			if _, err := cleansel.Select(task); err == nil {
				t.Errorf("Select %v accepted discretize %d", m, k)
			}
			if _, err := cleansel.RankContext(context.Background(), task); err == nil {
				t.Errorf("RankContext %v accepted discretize %d", m, k)
			}
		}
		task := base
		task.Discretize = k
		if _, err := cleansel.Select(task); err == nil {
			t.Errorf("Select maxpr accepted discretize %d", k)
		}
	}
}

// TestRankRejectsCorrelatedGroupMeasure: uniqueness and robustness
// assume independent errors, so ranking a correlated database under
// them is select's error, not a ranking that drops the covariance.
func TestRankRejectsCorrelatedGroupMeasure(t *testing.T) {
	task := discretizeTask(t)
	if err := cleansel.WithDecayCovariance(task.DB, 0.5); err != nil {
		t.Fatal(err)
	}
	for _, m := range []cleansel.Measure{cleansel.Uniqueness, cleansel.Robustness} {
		task.Measure = m
		if _, err := cleansel.RankContext(context.Background(), task); err == nil {
			t.Errorf("RankContext %v ranked a correlated database", m)
		}
		if _, err := cleansel.RankObjects(task.DB, task.Claims, m); err == nil {
			t.Errorf("RankObjects %v ranked a correlated database", m)
		}
	}
}
