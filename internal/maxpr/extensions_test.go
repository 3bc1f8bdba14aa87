package maxpr

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
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
		e, err := NewDiscreteAffine(db, f, tau, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, T := range []model.Set{nil, model.NewSet(0), model.NewSet(1, 2), model.NewSet(0, 1, 3)} {
			x, err := e.Extensions(T)
			if err != nil {
				t.Fatal(err)
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
// that is itself past the cap is ErrTooLarge for DiscreteAffine and no
// scorer at all for Hybrid, whose Prob falls back to Monte Carlo.
func TestExtensionsStateCap(t *testing.T) {
	db, f := extensionDB()
	e, err := NewDiscreteAffine(db, f, 0.5, 12)
	if err != nil {
		t.Fatal(err)
	}
	x, err := e.Extensions(model.NewSet(1)) // 4 states
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := x.Gain(0); !ok { // 4·3 = 12 fits
		t.Fatal("candidate at the cap not covered")
	}
	if _, ok := x.Gain(2); !ok { // zero coefficient: no new states
		t.Fatal("zero-coefficient candidate not covered")
	}
	x, err = e.Extensions(model.NewSet(0, 1)) // 12 states
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := x.Gain(3); ok { // 12·2 > 12
		t.Fatal("candidate past the cap reported as covered")
	}
	if _, err := e.Extensions(model.NewSet(0, 1, 3)); err != ErrTooLarge {
		t.Fatalf("set past the cap: %v, want ErrTooLarge", err)
	}
	h, err := NewHybrid(db, f, 0.5, 12, 100, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if x, err := h.Extensions(model.NewSet(0, 1, 3)); x != nil || err != nil {
		t.Fatalf("Hybrid past the cap: %v, %v; want no scorer", x, err)
	}
	if _, ok := (*Extensions)(nil).Gain(0); ok {
		t.Fatal("a nil scorer covers nothing")
	}
}

// Cached delegates scoring to an inner scorer and has none otherwise.
func TestCachedExtensions(t *testing.T) {
	db, f := extensionDB()
	e, err := NewDiscreteAffine(db, f, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	x, err := NewCached(e).Extensions(model.NewSet(0))
	if err != nil || x == nil || x.Prob() != e.Prob(model.NewSet(0)) {
		t.Fatalf("Cached(DiscreteAffine) scorer: %v, %v", x, err)
	}
	mc, err := NewMonteCarlo(db, f, 0.5, 10, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if x, err := NewCached(mc).Extensions(model.NewSet(0)); x != nil || err != nil {
		t.Fatalf("Cached(MonteCarlo) scorer: %v, %v; want none", x, err)
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
