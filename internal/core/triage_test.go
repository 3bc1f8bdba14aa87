package core

import (
	"context"
	"testing"

	"github.com/factcheck/cleansel/internal/claims"
	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
)

// TestCheckDiscretize pins the discretize bound: [0, MaxDiscretize]
// passes, and everything outside it fails before any allocation.
func TestCheckDiscretize(t *testing.T) {
	for _, tc := range []struct {
		k  int
		ok bool
	}{
		{0, true}, {1, true}, {MaxDiscretize, true},
		{MaxDiscretize + 1, false}, {-1, false}, {1 << 40, false},
	} {
		if err := CheckDiscretize(tc.k); (err == nil) != tc.ok {
			t.Errorf("CheckDiscretize(%d) = %v, want ok=%v", tc.k, err, tc.ok)
		}
	}
}

// mixedDB holds a normal object and a discrete one.
func mixedDB(t *testing.T) *model.DB {
	t.Helper()
	d, err := dist.NewDiscrete([]float64{10, 12, 14}, []float64{0.25, 0.5, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return &model.DB{Objects: []model.Object{
		{ID: 0, Name: "a", Current: 10, Cost: 1, Value: dist.Normal{Mu: 10, Sigma: 2}},
		{ID: 1, Name: "b", Current: 12, Cost: 1, Value: d},
	}}
}

// TestDiscreteView pins the one discrete view: an all-discrete database
// is returned as is, and a normal object is discretized on the asked
// grid (0 means DiscretizationPoints).
func TestDiscreteView(t *testing.T) {
	db := mixedDB(t)
	for _, c := range []struct{ points, size int }{{0, DiscretizationPoints}, {2, 2}, {64, 64}} {
		view, err := DiscreteView(db, c.points)
		if err != nil {
			t.Fatal(err)
		}
		ds, err := view.Discretes()
		if err != nil {
			t.Fatalf("points=%d: view not discrete: %v", c.points, err)
		}
		if ds[0].Size() != c.size || ds[1] != db.Objects[1].Value {
			t.Fatalf("points=%d: sizes %d/%d, want %d and b unchanged", c.points, ds[0].Size(), ds[1].Size(), c.size)
		}
		discrete, err := DiscreteView(view, c.points)
		if err != nil || discrete != view {
			t.Fatalf("points=%d: an all-discrete database must be its own view (%v)", c.points, err)
		}
	}
}

// TestNewTriageContextRejectsBadDiscretize: a point count outside
// [0, MaxDiscretize] is an error from the context itself (DiscreteView
// checks it), so no caller needs its own check; −1 used to reach the
// quantizer and panic.
func TestNewTriageContextRejectsBadDiscretize(t *testing.T) {
	db := mixedDB(t)
	for _, k := range []int{-1, MaxDiscretize + 1} {
		if _, err := NewTriageContext(db, k); err == nil {
			t.Errorf("NewTriageContext(db, %d) accepted the point count", k)
		}
	}
}

// TestAssessedCountsDistinctSuccesses: Assessed counts each distinct
// claim once, renamed copies included, and leaves out claims that fail.
func TestAssessedCountsDistinctSuccesses(t *testing.T) {
	db := mixedDB(t)
	tc, err := NewTriageContext(db, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A set's signature covers its direction, reference and
	// perturbations, not the claim's name.
	set := func(name string, coef map[int]float64) *claims.Set {
		s, err := claims.NewSet(claims.NewClaim(name, 0, map[int]float64{1: 1, 0: -1}), claims.LowerIsStronger, 2,
			[]claims.Perturbed{{Claim: claims.NewClaim("p", 0, coef), Sensibility: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a := set("a", map[int]float64{0: 1})
	renamed := set("renamed", map[int]float64{0: 1})
	ab := set("ab", map[int]float64{0: 1, 1: 1})
	_, errs, err := tc.AssessBatch(context.Background(), []*claims.Set{a, nil, renamed, ab, a})
	if err != nil {
		t.Fatal(err)
	}
	if errs[1] == nil {
		t.Fatal("a nil set must fail alone")
	}
	if got := tc.Assessed(); got != 2 {
		t.Fatalf("Assessed() = %d, want 2", got)
	}
	// A later batch adds only what the context has not assessed yet.
	if _, _, err := tc.AssessBatch(context.Background(), []*claims.Set{ab, set("b", map[int]float64{1: 1})}); err != nil {
		t.Fatal(err)
	}
	if got := tc.Assessed(); got != 3 {
		t.Fatalf("Assessed() = %d after a second batch, want 3", got)
	}
}
