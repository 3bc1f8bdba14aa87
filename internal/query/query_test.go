package query

import (
	"testing"

	"github.com/factcheck/cleansel/internal/numeric"
)

func TestAffineEvalVars(t *testing.T) {
	a := NewAffine(5, map[int]float64{0: 2, 3: -1, 7: 0})
	x := []float64{1, 0, 0, 4, 0, 0, 0, 100}
	if got := a.Eval(x); got != 5+2-4 {
		t.Fatalf("Eval = %v", got)
	}
	vars := a.Vars()
	if len(vars) != 2 || vars[0] != 0 || vars[1] != 3 {
		t.Fatalf("Vars = %v (zero coefficient should be dropped)", vars)
	}
	if a.CoefAt(3) != -1 || a.CoefAt(7) != 0 {
		t.Fatal("CoefAt broken")
	}
	d := a.Dense(5)
	if d[0] != 2 || d[3] != -1 || d[1] != 0 {
		t.Fatalf("Dense = %v", d)
	}
}

func TestAffineAsGroupSum(t *testing.T) {
	a := NewAffine(1, map[int]float64{1: 3, 2: -2})
	g := a.AsGroupSum()
	x := []float64{0, 10, 5}
	if !numeric.AlmostEqual(g.Eval(x), a.Eval(x), 1e-12) {
		t.Fatalf("GroupSum eval %v != affine %v", g.Eval(x), a.Eval(x))
	}
	if len(g.Terms) != 2 {
		t.Fatalf("want one term per variable, got %d", len(g.Terms))
	}
	vars := g.Vars()
	if len(vars) != 2 || vars[0] != 1 || vars[1] != 2 {
		t.Fatalf("Vars = %v", vars)
	}
}

func TestGroupSumEval(t *testing.T) {
	g := &GroupSum{
		Const: 10,
		Terms: []Term{
			LinearTerm([]int{0, 2}, []float64{1, 1}, 0),
			IndicatorGE([]int{1}, []float64{1}, -5, 2), // 2·1[x1 >= 5]
		},
	}
	if got := g.Eval([]float64{3, 7, 4}); got != 10+7+2 {
		t.Fatalf("Eval = %v", got)
	}
	if got := g.Eval([]float64{3, 4, 4}); got != 10+7 {
		t.Fatalf("Eval = %v", got)
	}
	vars := g.Vars()
	if len(vars) != 3 {
		t.Fatalf("Vars = %v", vars)
	}
}

func TestIndicatorGEBoundary(t *testing.T) {
	// 1[x - 5 >= 0]: boundary is included.
	term := IndicatorGE([]int{0}, []float64{1}, -5, 1)
	if term.Eval([]float64{5}) != 1 {
		t.Fatal("boundary should satisfy >=")
	}
	if term.Eval([]float64{4.999}) != 0 {
		t.Fatal("below boundary should fail")
	}
}

func TestNegMinSquared(t *testing.T) {
	// weight 0.5, expression x - 10.
	term := NegMinSquared([]int{0}, []float64{1}, -10, 0.5)
	if got := term.Eval([]float64{12}); got != 0 {
		t.Fatalf("positive side should be 0, got %v", got)
	}
	if got := term.Eval([]float64{7}); !numeric.AlmostEqual(got, 0.5*9, 1e-12) {
		t.Fatalf("min(−3,0)²·0.5 = %v, want 4.5", got)
	}
	if got := term.Eval([]float64{10}); got != 0 {
		t.Fatalf("boundary should be 0, got %v", got)
	}
}

func TestIndicator(t *testing.T) {
	// Example 3's query: 1[X1+X2+X3 < 3] over Bernoulli values.
	f := Indicator([]int{0, 1, 2}, func(v []float64) bool {
		return v[0]+v[1]+v[2] < 3
	})
	if f.Eval([]float64{1, 1, 1}) != 0 {
		t.Fatal("all ones should not satisfy < 3")
	}
	if f.Eval([]float64{1, 1, 0}) != 1 {
		t.Fatal("sum 2 should satisfy < 3")
	}
	vars := f.Vars()
	if len(vars) != 3 || vars[0] != 0 || vars[2] != 2 {
		t.Fatalf("Vars = %v", vars)
	}
}

func TestTermClosureCapturesCopies(t *testing.T) {
	vars := []int{0}
	coef := []float64{2}
	term := LinearTerm(vars, coef, 1)
	coef[0] = 999 // mutating the input must not affect the term
	vars[0] = 999
	if got := term.Eval([]float64{3}); got != 7 {
		t.Fatalf("term captured aliased slices: %v", got)
	}
	if term.Vars[0] != 0 {
		t.Fatal("vars aliased")
	}
}
