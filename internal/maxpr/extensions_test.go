package maxpr

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// extensionDB has one zero-coefficient object (id 2) among moving ones.
func extensionDB() (*model.DB, *query.Affine) {
	db := model.New([]model.Object{
		{Name: "a", Cost: 1, Current: 2, Value: dist.MustDiscrete([]float64{0, 2, 5}, []float64{0.2, 0.5, 0.3})},
		{Name: "b", Cost: 1, Current: 1, Value: dist.MustDiscrete([]float64{-3, 1, 4, 6}, []float64{0.1, 0.4, 0.3, 0.2})},
		{Name: "c", Cost: 1, Current: 0, Value: dist.MustDiscrete([]float64{-8, 0, 9}, []float64{0.3, 0.3, 0.4})},
		{Name: "d", Cost: 1, Current: 3, Value: dist.MustDiscrete([]float64{1, 3}, []float64{0.6, 0.4})},
	})
	return db, query.NewAffine(0, map[int]float64{0: 1, 1: 1.0 / 7, 3: -0.6})
}

// P(T) from the scorer is the evaluator's own Prob(T), bit for bit, and
// every gain is P(T ∪ {o}) − P(T) up to rounding; a zero coefficient
// gains exactly nothing.
func TestExtensionsMatchProb(t *testing.T) {
	db, f := extensionDB()
	for _, tau := range []float64{0, 0.5, 2} {
		e, err := NewHybrid(db, f, tau, 0, 1, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, T := range []model.Set{nil, model.NewSet(0), model.NewSet(1, 2), model.NewSet(0, 1, 3)} {
			x := e.Extensions(T)
			if x == nil {
				t.Fatalf("τ %v, T %v: no scorer under the cap", tau, T)
			}
			if math.Float64bits(x.Prob()) != math.Float64bits(e.Prob(T)) {
				t.Fatalf("τ %v, T %v: scorer P %v, Prob %v", tau, T, x.Prob(), e.Prob(T))
			}
			for o := 0; o < db.N(); o++ {
				if T.Has(o) {
					continue
				}
				gain, ok := x.Gain(o)
				if !ok {
					t.Fatalf("τ %v, T %v: candidate %d not covered", tau, T, o)
				}
				if o == 2 && gain != 0 {
					t.Fatalf("zero-coefficient candidate gained %v", gain)
				}
				if want := e.Prob(T.Add(o)) - e.Prob(T); math.Abs(gain-want) > 1e-12 {
					t.Fatalf("τ %v, T %v, o %d: gain %v, want %v", tau, T, o, gain, want)
				}
			}
		}
	}
}

// Past the state cap the scorer leaves a candidate to the caller; a set
// that is itself past the cap has no scorer at all, and its Prob falls
// back to Monte Carlo.
func TestExtensionsStateCap(t *testing.T) {
	db, f := extensionDB()
	e, err := NewHybrid(db, f, 0.5, 12, 100, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	e.Observe(rec)
	// {1} has 4 states: a candidate at the cap (4·3 = 12) is covered, and
	// so is a zero coefficient, which adds no states.
	x := e.Extensions(model.NewSet(1))
	if _, ok := x.Gain(0); !ok {
		t.Fatal("candidate at the cap not covered")
	}
	if _, ok := x.Gain(2); !ok {
		t.Fatal("zero-coefficient candidate not covered")
	}
	// {0, 1} has 12 states, and 12·2 > 12.
	x = e.Extensions(model.NewSet(0, 1))
	if _, ok := x.Gain(3); ok {
		t.Fatal("candidate past the cap reported as covered")
	}
	if x := e.Extensions(model.NewSet(0, 1, 3)); x != nil {
		t.Fatal("set past the cap got a scorer")
	}
	e.Prob(model.NewSet(0, 1, 3))
	if got := counters(rec); got["maxpr_exact"] != 2 || got["maxpr_mc_fallback"] != 1 {
		t.Fatalf("counters %v, want 2 scored gains and 1 fallback", got)
	}
	if _, ok := (*Extensions)(nil).Gain(0); ok {
		t.Fatal("a nil scorer covers nothing")
	}
}

// Cached delegates scoring to an inner scorer and has none otherwise.
func TestCachedExtensions(t *testing.T) {
	db, f := extensionDB()
	e, err := NewHybrid(db, f, 0.5, 0, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	x := NewCached(e).Extensions(model.NewSet(0))
	if x == nil || x.Prob() != e.Prob(model.NewSet(0)) {
		t.Fatalf("Cached(Hybrid) scorer: %v", x)
	}
	nd, err := dist.NewNormal(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	normal := model.New([]model.Object{{Name: "a", Cost: 1, Value: nd}})
	na, err := NewNormalAffine(normal, query.NewAffine(0, map[int]float64{0: 1}), 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if x := NewCached(na).Extensions(model.NewSet(0)); x != nil {
		t.Fatalf("Cached(NormalAffine) scorer: %v; want none", x)
	}
}

// countingEval returns T's first id (−1 for ∅) and counts its calls.
type countingEval struct{ calls int }

func (c *countingEval) Prob(T model.Set) float64 {
	c.calls++
	if len(T) == 0 {
		return -1
	}
	return float64(T[0])
}

// Ids at and above 2^24 get keys of their own: a three-byte key made
// {1<<24} alias {0} and return its memoized value.
func TestCachedWideIDs(t *testing.T) {
	inner := &countingEval{}
	c := NewCached(inner)
	if got := c.Prob(model.NewSet(0)); got != 0 {
		t.Fatalf("Prob({0}) = %v", got)
	}
	if got := c.Prob(model.NewSet(1 << 24)); got != 1<<24 || inner.calls != 2 {
		t.Fatalf("Prob({1<<24}) = %v after %d inner calls, want %v after 2", got, inner.calls, 1<<24)
	}
	if got := c.Prob(model.NewSet(1<<24, 1<<30)); got != 1<<24 || inner.calls != 3 {
		t.Fatalf("Prob({1<<24, 1<<30}) = %v after %d inner calls", got, inner.calls)
	}
	c.Prob(model.NewSet(1 << 24))
	if inner.calls != 3 {
		t.Fatalf("repeat of {1<<24} missed the memo (%d inner calls)", inner.calls)
	}
}
