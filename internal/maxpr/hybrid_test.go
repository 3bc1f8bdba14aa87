package maxpr

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/linalg"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

func hybridDB(n int) *model.DB {
	objs := make([]model.Object, n)
	for i := range objs {
		v := float64(10 + i)
		objs[i] = model.Object{
			Name: "o", Cost: 1, Current: v,
			Value: dist.UniformOver([]float64{v - 2, v - 1, v, v + 1, v + 2}),
		}
	}
	return model.New(objs)
}

func fullAffine(n int) *query.Affine {
	coef := map[int]float64{}
	for i := 0; i < n; i++ {
		coef[i] = 1
	}
	return query.NewAffine(0, coef)
}

func TestHybridExactRegion(t *testing.T) {
	db := hybridDB(6)
	f := fullAffine(6)
	h, err := NewHybrid(db, f, 1, 1<<20, 5000, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewHybrid(db, f, 1, 0, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	T := model.NewSet(0, 1, 2)
	if got, want := h.Prob(T), exact.Prob(T); !numeric.AlmostEqual(got, want, 1e-12) {
		t.Fatalf("hybrid should be exact in-region: %v vs %v", got, want)
	}
}

func TestHybridFallsBackToMC(t *testing.T) {
	db := hybridDB(12)
	f := fullAffine(12)
	// maxStates 10: every multi-object subset overflows to MC.
	h, err := NewHybrid(db, f, 1, 10, 40000, rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	exact, err := NewHybrid(db, f, 1, 0, 1, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	T := model.NewSet(0, 1, 2, 3)
	got := h.Prob(T)
	want := exact.Prob(T)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("hybrid MC fallback %v too far from exact %v", got, want)
	}
}

// Past the cap, each draw takes every object of T once, in T's order, a
// zero-coefficient object included: with one draw per set, P(T) is 1
// exactly when the moving object's draw, the second of the stream, is a
// drop below −τ.
func TestHybridSamplesEveryObjectOfT(t *testing.T) {
	still := dist.MustDiscrete([]float64{0, 1}, []float64{0.5, 0.5})
	moving := dist.MustDiscrete([]float64{-1, 1}, []float64{0.5, 0.5})
	db := model.New([]model.Object{
		{Name: "still", Cost: 1, Value: still},
		{Name: "moving", Cost: 1, Value: moving},
	})
	f := query.NewAffine(0, map[int]float64{1: 1})
	T := model.NewSet(0, 1)
	for seed := uint64(1); seed <= 32; seed++ {
		h, err := NewHybrid(db, f, 0.5, 1, 1, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		r := rng.New(seed)
		still.Sample(r)
		want := 0.0
		if moving.Sample(r) < -0.5 {
			want = 1
		}
		if got := h.Prob(T); got != want {
			t.Fatalf("seed %d: P(T) = %v, want %v", seed, got, want)
		}
	}
}

// NewHybrid rejects what neither route can evaluate: a negative τ,
// correlated errors, a value model that is not discrete, and a fallback
// without samples.
func TestHybridValidation(t *testing.T) {
	f := fullAffine(2)
	corr := hybridDB(2)
	corr.Cov = linalg.FromRows([][]float64{{1, 0.5}, {0.5, 1}})
	nd, err := dist.NewNormal(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	normal := model.New([]model.Object{{Name: "a", Cost: 1, Value: nd}, {Name: "b", Cost: 1, Value: nd}})
	for name, build := range map[string]func() (*Hybrid, error){
		"negative tau": func() (*Hybrid, error) { return NewHybrid(hybridDB(2), f, -1, 0, 10, rng.New(1)) },
		"correlated":   func() (*Hybrid, error) { return NewHybrid(corr, f, 1, 0, 10, rng.New(1)) },
		"normal value": func() (*Hybrid, error) { return NewHybrid(normal, f, 1, 0, 10, rng.New(1)) },
		"no samples":   func() (*Hybrid, error) { return NewHybrid(hybridDB(2), f, 1, 0, 0, rng.New(1)) },
	} {
		if h, err := build(); err == nil || h != nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestCachedConsistency(t *testing.T) {
	db := hybridDB(8)
	f := fullAffine(8)
	// Capped at one state, the Hybrid samples every set.
	mc, err := NewHybrid(db, f, 1, 1, 2000, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCached(mc)
	T := model.NewSet(1, 5)
	first := c.Prob(T)
	for i := 0; i < 5; i++ {
		if got := c.Prob(T); got != first {
			t.Fatalf("cached evaluator returned different values: %v vs %v", got, first)
		}
	}
	// Distinct sets are distinct cache keys.
	if c.Prob(model.NewSet(1)) == first && c.Prob(model.NewSet(5)) == first {
		// Equality by coincidence is possible but all three equal is
		// overwhelmingly unlikely with MC noise; treat as key collision.
		t.Fatal("suspicious: three different sets share one cached value")
	}
}

func TestCachedEmptySet(t *testing.T) {
	db := hybridDB(4)
	f := fullAffine(4)
	mc, err := NewHybrid(db, f, 1, 1, 100, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	c := NewCached(mc)
	if got := c.Prob(nil); got != 0 {
		t.Fatalf("P(∅) = %v, want 0", got)
	}
}
