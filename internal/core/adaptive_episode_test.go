package core_test

import (
	"testing"

	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/session"
)

// Whole adaptive episodes. The adaptive loop is session.Stepper, whose
// decide-step is core.NextAdaptiveStep; session imports core, so these
// episode tests live in the external test package.

// adaptiveTestDB has three unit-cost objects, all at current value 10,
// with σ = 3, 2, 1.
func adaptiveTestDB(t *testing.T) *model.DB {
	t.Helper()
	mk := func(mu, sigma float64) dist.Normal {
		n, err := dist.NewNormal(mu, sigma)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	return model.New([]model.Object{
		{Name: "a", Cost: 1, Current: 10, Value: mk(10, 3)},
		{Name: "b", Cost: 1, Current: 10, Value: mk(10, 2)},
		{Name: "c", Cost: 1, Current: 10, Value: mk(10, 1)},
	})
}

func newStepper(t *testing.T, db *model.DB, f *query.Affine, goal session.Goal, tau, budget float64) *session.Stepper {
	t.Helper()
	st, err := session.NewStepper(db, f, goal, tau, budget)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// runEpisode follows the stepper's recommendations, revealing the hidden
// truth of each recommended object, until it recommends nothing. It
// returns the objects cleaned, in order.
func runEpisode(t *testing.T, st *session.Stepper, truth []float64) []int {
	t.Helper()
	var cleaned []int
	for {
		rec, ok := st.Recommend(nil)
		if !ok {
			return cleaned
		}
		if err := st.Reveal(rec.Object, truth[rec.Object], nil); err != nil {
			t.Fatal(err)
		}
		cleaned = append(cleaned, rec.Object)
	}
}

func TestAdaptiveMaxPrFindsCounter(t *testing.T) {
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1, 2: 1})
	// Truth: object a is far below its current value — the counter.
	st := newStepper(t, adaptiveTestDB(t), f, session.MaxPr, 2, 3)
	cleaned := runEpisode(t, st, []float64{4, 10, 10})
	if !st.Countered() {
		t.Fatalf("adaptive policy missed the counter: cleaned %v, achieved %v", cleaned, st.Achieved())
	}
	// The highest-variance object is cleaned first and suffices: the
	// adaptive policy stops after one observation.
	if len(cleaned) != 1 || cleaned[0] != 0 {
		t.Fatalf("cleaned %v, want just object 0", cleaned)
	}
	if !numeric.AlmostEqual(st.Achieved(), 6, 1e-9) {
		t.Fatalf("achieved drop %v, want 6", st.Achieved())
	}
}

func TestAdaptiveMaxPrStopsWithoutCounter(t *testing.T) {
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1, 2: 1})
	// Truth exactly matches the current values: no counter exists.
	st := newStepper(t, adaptiveTestDB(t), f, session.MaxPr, 2, 3)
	cleaned := runEpisode(t, st, []float64{10, 10, 10})
	if st.Countered() {
		t.Fatalf("no counter exists but policy claims one: cleaned %v, achieved %v", cleaned, st.Achieved())
	}
	if st.Status(nil) != session.Exhausted {
		t.Fatalf("status %v, want exhausted", st.Status(nil))
	}
	if st.Spent() > 3+1e-9 {
		t.Fatalf("budget exceeded: %v", st.Spent())
	}
}

func TestAdaptiveMaxPrBudget(t *testing.T) {
	db := adaptiveTestDB(t)
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1, 2: 1})
	st := newStepper(t, db, f, session.MaxPr, 2, 1.5)
	cleaned := runEpisode(t, st, []float64{10, 10, 10})
	if len(cleaned) != 1 || cleaned[0] != 0 {
		t.Fatalf("budget 1.5 allows one unit-cost cleaning, got %v", cleaned)
	}
	if st.Spent() != 1 {
		t.Fatalf("spent %v, want 1", st.Spent())
	}
	if _, err := session.NewStepper(db, f, session.MaxPr, 2, -1); err == nil {
		t.Fatal("negative budget accepted")
	}
}

// The adaptive policy stops paying once the counter is in hand, while
// the upfront GreedyMaxPr set commits its whole budget before seeing any
// value.
func TestAdaptiveCheaperThanUpfront(t *testing.T) {
	db := adaptiveTestDB(t)
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1, 2: 1})
	const tau, budget = 2.0, 3.0
	st := newStepper(t, db, f, session.MaxPr, tau, budget)
	runEpisode(t, st, []float64{4, 10, 10})
	eval, err := maxpr.NewNormalAffine(db, f, tau)
	if err != nil {
		t.Fatal(err)
	}
	up, err := core.NewGreedyMaxPr(db, eval)
	if err != nil {
		t.Fatal(err)
	}
	T, err := up.Select(budget)
	if err != nil {
		t.Fatal(err)
	}
	if st.Spent() > T.Cost(db) {
		t.Fatalf("adaptive spent %v, upfront %v — adaptivity should not cost more here",
			st.Spent(), T.Cost(db))
	}
}

func TestAdaptiveMinVarCleansByVariancePerCost(t *testing.T) {
	db := adaptiveTestDB(t)
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1, 2: 1})
	st := newStepper(t, db, f, session.MinVar, 0, 2)
	if !numeric.AlmostEqual(st.Uncertainty(), 9+4+1, 1e-12) {
		t.Fatalf("variance before %v, want 14", st.Uncertainty())
	}
	cleaned := runEpisode(t, st, []float64{12, 9, 10})
	// Highest variance first: objects 0 then 1, budget 2 stops there.
	if len(cleaned) != 2 || cleaned[0] != 0 || cleaned[1] != 1 {
		t.Fatalf("cleaned %v, want [0 1]", cleaned)
	}
	if !numeric.AlmostEqual(st.Spent(), 2, 1e-12) {
		t.Fatalf("cost %v, want 2", st.Spent())
	}
	if !numeric.AlmostEqual(st.Uncertainty(), 1, 1e-12) {
		t.Fatalf("variance after %v, want 1 (only sigma=1 object left)", st.Uncertainty())
	}
	// Posterior mean: revealed truths for 0 and 1, prior mean for 2.
	if !numeric.AlmostEqual(st.Estimate(), 12+9+10, 1e-12) {
		t.Fatalf("estimate %v, want 31", st.Estimate())
	}
}

func TestAdaptiveMinVarExhaustsUsefulObjects(t *testing.T) {
	// Only object 1 carries claim weight; the others have zero benefit.
	f := query.NewAffine(0, map[int]float64{1: 2})
	st := newStepper(t, adaptiveTestDB(t), f, session.MinVar, 0, 100)
	cleaned := runEpisode(t, st, []float64{10, 10, 10})
	if len(cleaned) != 1 || cleaned[0] != 1 {
		t.Fatalf("cleaned %v, want just object 1", cleaned)
	}
	if st.Uncertainty() != 0 {
		t.Fatalf("residual claim variance %v, want 0", st.Uncertainty())
	}
	if st.Status(nil) != session.Exhausted {
		t.Fatalf("status %v, want exhausted with budget left", st.Status(nil))
	}
}

func TestAdaptiveMinVarValidation(t *testing.T) {
	db := adaptiveTestDB(t)
	f := query.NewAffine(0, map[int]float64{0: 1})
	if _, err := session.NewStepper(nil, f, session.MinVar, 0, 1); err == nil {
		t.Fatal("nil DB accepted")
	}
	if _, err := session.NewStepper(db, f, session.MinVar, 0, -1); err == nil {
		t.Fatal("negative budget accepted")
	}
	st := newStepper(t, db, f, session.MinVar, 0, 1)
	// The stepper holds no truth vector; a reveal outside the database is
	// what it rejects instead.
	if err := st.Reveal(db.N(), 10, nil); err == nil {
		t.Fatal("reveal of an object outside the database accepted")
	}
}
