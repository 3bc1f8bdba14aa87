package core

import (
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/query"
)

// Selector names are part of the experiment output contract.
func TestSelectorNames(t *testing.T) {
	db := exampleDB()
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1})
	g := f.AsGroupSum()

	gmvMod, err := NewGreedyMinVarModular(db, f)
	if err != nil {
		t.Fatal(err)
	}
	gmvGrp, err := NewGreedyMinVarGroup(db, g)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := ev.NewGroupEngine(db, g)
	if err != nil {
		t.Fatal(err)
	}
	ge, err := NewGreedyEngine("GreedyMinVar", db, engine)
	if err != nil {
		t.Fatal(err)
	}
	best, err := NewBest(db, g)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := NewOptimumModular(db, f)
	if err != nil {
		t.Fatal(err)
	}
	eval, err := maxpr.NewDiscreteAffine(db, f, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	gmp, err := NewGreedyMaxPr(db, eval)
	if err != nil {
		t.Fatal(err)
	}
	exh, err := NewOPTMinVar(db, engine)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]Selector{
		"Random":               &Random{DB: db},
		"GreedyNaiveCostBlind": &GreedyNaiveCostBlind{DB: db},
		"GreedyNaive":          &GreedyNaive{DB: db},
		"GreedyMinVar":         gmvMod,
		"GreedyMinVar#2":       gmvGrp,
		"GreedyMinVar#3":       ge,
		"Best":                 best,
		"Optimum":              opt,
		"GreedyMaxPr":          gmp,
		"OPT":                  exh,
	}
	for want, sel := range cases {
		if i := len(want) - 2; i > 0 && want[i] == '#' {
			want = want[:i]
		}
		if got := sel.Name(); got != want {
			t.Fatalf("Name() = %q, want %q", got, want)
		}
	}
}

// Constructors must reject nil databases and nil dependencies.
func TestConstructorNilGuards(t *testing.T) {
	db := exampleDB()
	f := query.NewAffine(0, map[int]float64{0: 1})
	engine, _ := ev.NewModular(db, f)
	eval, _ := maxpr.NewDiscreteAffine(db, f, 0.5, 0)

	if _, err := NewGreedyMinVarModular(nil, f); err == nil {
		t.Fatal("nil db accepted")
	}
	if _, err := NewGreedyMinVarGroup(nil, f.AsGroupSum()); err == nil {
		t.Fatal("nil db accepted")
	}
	if _, err := NewGreedyEngine("x", nil, engine); err == nil {
		t.Fatal("nil db accepted")
	}
	if _, err := NewGreedyEngine("x", db, nil); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewGreedyMaxPr(nil, eval); err == nil {
		t.Fatal("nil db accepted")
	}
	if _, err := NewGreedyMaxPr(db, nil); err == nil {
		t.Fatal("nil evaluator accepted")
	}
	if _, err := NewOptimumModular(nil, f); err == nil {
		t.Fatal("nil db accepted")
	}
	if _, err := NewBest(nil, f.AsGroupSum()); err == nil {
		t.Fatal("nil db accepted")
	}
}

func TestRatioConventions(t *testing.T) {
	if !math.IsInf(ratio(1, 0), 1) {
		t.Fatal("free positive benefit should rank first")
	}
	if ratio(0, 0) != 0 {
		t.Fatal("free zero benefit should rank neutral")
	}
	if ratio(6, 3) != 2 {
		t.Fatal("plain ratio broken")
	}
}
