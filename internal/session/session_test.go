package session_test

import (
	"errors"
	"math"
	"slices"
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/session"
)

func normalDB(t *testing.T) *model.DB {
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

func mustStepper(t testing.TB, db *model.DB, f *query.Affine, goal session.Goal, tau, budget float64) *session.Stepper {
	t.Helper()
	st, err := session.NewStepper(db, f, goal, tau, budget)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// driveEpisode follows the stepper's own recommendations, revealing the
// hidden truth for each, until the session leaves Active — exactly what
// a well-behaved HTTP client does.
func driveEpisode(t *testing.T, st *session.Stepper, truth []float64) []int {
	t.Helper()
	var cleaned []int
	for st.Status(nil) == session.Active {
		rec, ok := st.Recommend(nil)
		if !ok {
			t.Fatal("active session without a recommendation")
		}
		if err := st.Reveal(rec.Object, truth[rec.Object], nil); err != nil {
			t.Fatal(err)
		}
		cleaned = append(cleaned, rec.Object)
	}
	return cleaned
}

// rebuildEpisode is the reference the Stepper is held to. After every
// reveal it rebuilds the database, the revealed object becoming a point
// mass at its truth, and scores every uncleaned affordable object on the
// rebuilt database: a_o²·Var[X_o] for MinVar, maxpr.SingleProb for MaxPr
// (pinned to the NormalAffine and Hybrid evaluators in the maxpr
// package's tests). It cleans the best benefit per cost, strictly
// greater winning so the lowest ID breaks ties, and stops once a MaxPr
// episode's realized drop exceeds τ or no affordable object has positive
// benefit. It shares no decide-step code with the Stepper.
func rebuildEpisode(t *testing.T, db *model.DB, f *query.Affine, goal session.Goal, tau, budget float64, truth []float64) (cleaned []int, spent float64, final *model.DB) {
	t.Helper()
	coef := f.Dense(db.N())
	baseline := f.Eval(db.Currents())
	done := make([]bool, db.N())
	for goal != session.MaxPr || baseline-f.Eval(db.Currents()) <= tau {
		best, bestR := -1, 0.0
		for o, obj := range db.Objects {
			if done[o] || spent+obj.Cost > budget {
				continue
			}
			b := coef[o] * coef[o] * obj.Value.Variance()
			if goal == session.MaxPr {
				var err error
				if b, err = maxpr.SingleProb(obj.Value, coef[o], obj.Current, tau); err != nil {
					t.Fatal(err)
				}
			}
			if r := b / obj.Cost; b > 0 && r > bestR {
				best, bestR = o, r
			}
		}
		if best < 0 {
			break
		}
		objs := append([]model.Object(nil), db.Objects...)
		objs[best].Current = truth[best]
		objs[best].Value = dist.PointMass(truth[best])
		db = model.New(objs)
		done[best] = true
		spent += objs[best].Cost
		cleaned = append(cleaned, best)
	}
	return cleaned, spent, db
}

// An episode that follows the recommendations must clean the objects
// the rebuild-every-step reference cleans, in the same order, spend the
// same cost, and reach the same verdict. Each row also pins the
// expected episode itself.
func TestStepperMatchesAdaptiveMaxPr(t *testing.T) {
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1, 2: 1})
	const tau = 2.0
	for _, c := range []struct {
		name      string
		truth     []float64
		budget    float64
		cleaned   []int
		countered bool
		achieved  float64
	}{
		{"counter on the first cleaning", []float64{4, 10, 10}, 3, []int{0}, true, 6},
		{"no counter anywhere", []float64{10, 10, 10}, 3, []int{0, 1, 2}, false, 0},
		{"counter in the second-ranked object", []float64{10, 7.5, 10}, 3, []int{0, 1}, true, 2.5},
		{"measure rises", []float64{11, 12, 9}, 3, []int{0, 1, 2}, false, -2},
		{"budget 1.5 allows one unit-cost cleaning", []float64{10, 10, 10}, 1.5, []int{0}, false, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			wantCleaned, wantSpent, final := rebuildEpisode(t, normalDB(t), f, session.MaxPr, tau, c.budget, c.truth)
			st := mustStepper(t, normalDB(t), f, session.MaxPr, tau, c.budget)
			cleaned := driveEpisode(t, st, c.truth)
			if !slices.Equal(cleaned, wantCleaned) || !slices.Equal(cleaned, c.cleaned) {
				t.Fatalf("session cleaned %v, reference %v, want %v", cleaned, wantCleaned, c.cleaned)
			}
			if st.Spent() != wantSpent || st.Spent() > c.budget {
				t.Fatalf("spent %v, reference %v, budget %v", st.Spent(), wantSpent, c.budget)
			}
			wantAchieved := st.Baseline() - f.Eval(final.Currents())
			if st.Achieved() != wantAchieved || st.Achieved() != c.achieved {
				t.Fatalf("achieved %v, reference %v, want %v", st.Achieved(), wantAchieved, c.achieved)
			}
			wantStatus := session.Exhausted
			if c.countered {
				wantStatus = session.Countered
			}
			if got := st.Status(nil); got != wantStatus || st.Countered() != (wantAchieved > tau) {
				t.Fatalf("status %v, want %v", got, wantStatus)
			}
		})
	}
}

func TestStepperMatchesAdaptiveMinVar(t *testing.T) {
	for _, c := range []struct {
		name          string
		coef          map[int]float64
		truth         []float64
		budget        float64
		cleaned       []int
		before, after float64
		estimate      float64
	}{
		{"variance order", map[int]float64{0: 1, 1: 1, 2: 1}, []float64{12, 9, 10}, 2, []int{0, 1}, 14, 1, 31},
		{"weighted variance order", map[int]float64{0: 1, 1: 2, 2: 1}, []float64{12, 9, 10}, 2, []int{1, 0}, 26, 1, 40},
		{"exhausts the useful objects", map[int]float64{1: 2}, []float64{10, 10, 10}, 100, []int{1}, 16, 0, 20},
		{"lowest ID wins ties", map[int]float64{0: 1, 1: 1.5, 2: 3}, []float64{12, 9, 10}, 2, []int{0, 1}, 27, 9, 55.5},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := query.NewAffine(0, c.coef)
			wantCleaned, wantSpent, final := rebuildEpisode(t, normalDB(t), f, session.MinVar, 0, c.budget, c.truth)
			st := mustStepper(t, normalDB(t), f, session.MinVar, 0, c.budget)
			if !numeric.AlmostEqual(st.Uncertainty(), c.before, 1e-12) {
				t.Fatalf("initial uncertainty %v, want %v", st.Uncertainty(), c.before)
			}
			cleaned := driveEpisode(t, st, c.truth)
			if !slices.Equal(cleaned, wantCleaned) || !slices.Equal(cleaned, c.cleaned) {
				t.Fatalf("session cleaned %v, reference %v, want %v", cleaned, wantCleaned, c.cleaned)
			}
			if st.Spent() != wantSpent {
				t.Fatalf("spent %v, reference %v", st.Spent(), wantSpent)
			}
			mod, err := ev.NewModular(final, f)
			if err != nil {
				t.Fatal(err)
			}
			if !numeric.AlmostEqual(st.Uncertainty(), mod.Variance(), 1e-12) || !numeric.AlmostEqual(st.Uncertainty(), c.after, 1e-12) {
				t.Fatalf("posterior uncertainty %v, reference %v, want %v", st.Uncertainty(), mod.Variance(), c.after)
			}
			if want := f.Eval(final.Means()); st.Estimate() != want || st.Estimate() != c.estimate {
				t.Fatalf("estimate %v, reference %v, want %v", st.Estimate(), want, c.estimate)
			}
		})
	}
}

// Discrete laws go through SingleProb's exact summation path.
func TestStepperDiscreteMaxPr(t *testing.T) {
	low, err := dist.NewDiscrete([]float64{2, 10}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	db := model.New([]model.Object{
		{Name: "a", Cost: 1, Current: 10, Value: low},
		{Name: "b", Cost: 1, Current: 10, Value: dist.PointMass(10)},
	})
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1})
	st := mustStepper(t, db, f, session.MaxPr, 3, 10)
	rec, ok := st.Recommend(nil)
	if !ok || rec.Object != 0 {
		t.Fatalf("recommendation %+v ok=%v, want object 0", rec, ok)
	}
	// P(drop > 3) = P(X_a = 2) = 0.5 exactly.
	if rec.Benefit != 0.5 {
		t.Fatalf("benefit %v, want 0.5", rec.Benefit)
	}
	if err := st.Reveal(0, 2, nil); err != nil {
		t.Fatal(err)
	}
	if st.Status(nil) != session.Countered {
		t.Fatalf("status %v, want countered", st.Status(nil))
	}
}

func TestStepperRevealValidation(t *testing.T) {
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1, 2: 1})
	st := mustStepper(t, normalDB(t), f, session.MinVar, 0, 2)
	if err := st.Reveal(-1, 0, nil); err == nil {
		t.Fatal("negative object accepted")
	}
	if err := st.Reveal(3, 0, nil); err == nil {
		t.Fatal("out-of-range object accepted")
	}
	if err := st.Reveal(0, math.NaN(), nil); err == nil {
		t.Fatal("NaN value accepted")
	}
	if err := st.Reveal(0, math.Inf(1), nil); err == nil {
		t.Fatal("infinite value accepted")
	}
	if err := st.Reveal(1, 9, nil); err != nil {
		t.Fatal(err)
	}
	// Cleaning the same object twice conflicts.
	if err := st.Reveal(1, 9, nil); err == nil || !isConflict(err) {
		t.Fatalf("double clean: got %v, want ErrRevealConflict", err)
	}
	// The recommendation is advice, not a contract: any affordable
	// uncleaned object is accepted.
	if err := st.Reveal(2, 10, nil); err != nil {
		t.Fatal(err)
	}
	// Budget is spent; a terminal session takes no further reveals.
	if err := st.Reveal(0, 10, nil); err == nil || !isConflict(err) {
		t.Fatalf("terminal reveal: got %v, want ErrRevealConflict", err)
	}
}

// A reveal's moments are those of the point mass at the revealed value:
// a revealed −0 has mean +0, so under a claim whose constant is −0 the
// estimate the wire reports is +0, as the point mass's compensated mean
// makes it.
func TestStepperRevealNegativeZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	db := model.New([]model.Object{
		{Name: "a", Cost: 1, Current: 1, Value: dist.MustDiscrete([]float64{-1, 1}, []float64{0.5, 0.5})},
	})
	f := query.NewAffine(negZero, map[int]float64{0: 1})
	st := mustStepper(t, db, f, session.MinVar, 0, 1)
	if err := st.Reveal(0, negZero, nil); err != nil {
		t.Fatal(err)
	}
	pm := dist.PointMass(negZero)
	if got := st.Estimate(); got != 0 || math.Signbit(got) {
		t.Fatalf("estimate %v (sign bit %v), want +0", got, math.Signbit(got))
	}
	if got, want := st.Estimate(), f.Eval([]float64{pm.Mean()}); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("estimate %x, want the point mass's %x", math.Float64bits(got), math.Float64bits(want))
	}
	if got := st.Uncertainty(); got != 0 || math.Signbit(got) {
		t.Fatalf("uncertainty %v, want +0", got)
	}
}

func isConflict(err error) bool { return errors.Is(err, session.ErrRevealConflict) }

func TestStepperBudgetConflict(t *testing.T) {
	mk := func(mu, sigma float64) dist.Normal {
		n, err := dist.NewNormal(mu, sigma)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	db := model.New([]model.Object{
		{Name: "cheap", Cost: 1, Current: 10, Value: mk(10, 1)},
		{Name: "dear", Cost: 5, Current: 10, Value: mk(10, 3)},
	})
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1})
	st := mustStepper(t, db, f, session.MinVar, 0, 2)
	// The expensive object never fits the budget.
	if err := st.Reveal(1, 10, nil); err == nil || !isConflict(err) {
		t.Fatalf("unaffordable reveal: got %v, want ErrRevealConflict", err)
	}
	if err := st.Reveal(0, 10, nil); err != nil {
		t.Fatal(err)
	}
	if st.Status(nil) != session.Exhausted {
		t.Fatalf("status %v, want exhausted", st.Status(nil))
	}
}

func TestStepperTicksTraceCounters(t *testing.T) {
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1, 2: 1})
	st := mustStepper(t, normalDB(t), f, session.MaxPr, 2, 3)
	rec := obs.NewRecorder(obs.SystemClock)
	if _, ok := st.Recommend(rec); !ok {
		t.Fatal("no recommendation")
	}
	if err := st.Reveal(0, 4, rec); err != nil {
		t.Fatal(err)
	}
	counters := map[string]int64{}
	for _, c := range rec.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	// One eval per candidate on the first recommendation (3 objects);
	// Reveal re-checks Status on the already-cached recommendation, so no
	// further evals, and exactly one conditioning op.
	if counters["session_step_evals"] != 3 {
		t.Fatalf("session_step_evals = %d, want 3", counters["session_step_evals"])
	}
	if counters["session_conditioned"] != 1 {
		t.Fatalf("session_conditioned = %d, want 1", counters["session_conditioned"])
	}
}

func TestNewStepperValidation(t *testing.T) {
	db := normalDB(t)
	f := query.NewAffine(0, map[int]float64{0: 1})
	if _, err := session.NewStepper(nil, f, session.MinVar, 0, 1); err == nil {
		t.Fatal("nil DB accepted")
	}
	if _, err := session.NewStepper(db, nil, session.MinVar, 0, 1); err == nil {
		t.Fatal("nil claim accepted")
	}
	if _, err := session.NewStepper(db, f, "bogus", 0, 1); err == nil {
		t.Fatal("unknown goal accepted")
	}
	if _, err := session.NewStepper(db, f, session.MinVar, 0, -1); err == nil {
		t.Fatal("negative budget accepted")
	}
	if _, err := session.NewStepper(db, f, session.MaxPr, -1, 1); err == nil {
		t.Fatal("negative tau accepted")
	}
	if _, err := session.NewStepper(db, f, session.MaxPr, math.NaN(), 1); err == nil {
		t.Fatal("NaN tau accepted")
	}
}

func TestParseGoal(t *testing.T) {
	for in, want := range map[string]session.Goal{
		"": session.MinVar, "minvar": session.MinVar, "maxpr": session.MaxPr,
		"MinVar": session.MinVar, "MAXPR": session.MaxPr,
	} {
		g, err := session.ParseGoal(in)
		if err != nil || g != want {
			t.Fatalf("ParseGoal(%q) = %v, %v", in, g, err)
		}
	}
	if _, err := session.ParseGoal("surprise"); err == nil {
		t.Fatal("unknown goal accepted")
	}
}
