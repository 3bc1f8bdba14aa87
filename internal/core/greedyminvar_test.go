package core

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/parallel"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// slidingGroupQuery builds a GroupSum of w-wide terms at every start
// position, so consecutive terms overlap and the engine has pairs.
func slidingGroupQuery(r *rng.RNG, n, w int) *query.GroupSum {
	g := &query.GroupSum{}
	for s := 0; s+w <= n; s++ {
		vars := make([]int, w)
		coef := make([]float64, w)
		for j := range vars {
			vars[j] = s + j
			coef[j] = float64(r.IntRange(-2, 2)) + 0.5
		}
		c := float64(r.IntRange(-20, 20))
		switch r.Intn(3) {
		case 0:
			g.Terms = append(g.Terms, query.IndicatorGE(vars, coef, c, 1+r.Float64()))
		case 1:
			g.Terms = append(g.Terms, query.NegMinSquared(vars, coef, c, r.Float64()))
		default:
			g.Terms = append(g.Terms, query.LinearTerm(vars, coef, c))
		}
	}
	return g
}

// minVarRun is everything a GreedyMinVarGroup solve observably
// produces, plus the state it leaves behind.
type minVarRun struct {
	set    model.Set
	ev     float64   // EVCtx(set) on the solve's engine (memo hits)
	total  float64   // a fresh State's EV after cleaning set
	deltas []float64 // that State's refreshed deltas for every object
}

func runGreedyMinVar(t *testing.T, db *model.DB, g *query.GroupSum, budget float64) minVarRun {
	t.Helper()
	ctx := context.Background()
	engine, err := ev.NewGroupEngine(db, g)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := NewGreedyMinVarGroupEngine(db, engine)
	if err != nil {
		t.Fatal(err)
	}
	T, err := sel.SelectContext(ctx, budget)
	if err != nil {
		t.Fatal(err)
	}
	out := minVarRun{set: T}
	if out.ev, err = engine.EVCtx(ctx, T); err != nil {
		t.Fatal(err)
	}
	st, _, err := engine.NewStateCtx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range T {
		st.Clean(o)
	}
	out.total = st.EV()
	all := make([]int, db.N())
	for o := range all {
		all[o] = o
	}
	if out.deltas, err = st.DeltasCtx(ctx, all); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGreedyMinVarGroupBitIdenticalAcrossWorkerCounts pins the parallel
// refresh's determinism rule: the deltas come back in Affected order,
// so the queue, the chosen set, the memo the State writes through and
// the State's totals are identical at every worker count, on instances
// whose overlapping terms give the refresh pair work too.
func TestGreedyMinVarGroupBitIdenticalAcrossWorkerCounts(t *testing.T) {
	r := rng.New(4099)
	for trial := 0; trial < 30; trial++ {
		n := 8 + r.Intn(7)
		db := randomCoreDB(r, n)
		g := slidingGroupQuery(r, n, 2+r.Intn(2))
		budget := (0.2 + 0.6*r.Float64()) * db.TotalCost()
		var want minVarRun
		for _, workers := range []string{"1", "2", "8"} {
			t.Setenv(parallel.EnvWorkers, workers)
			got := runGreedyMinVar(t, db, g, budget)
			if workers == "1" {
				want = got
				if len(got.set) < 2 {
					t.Fatalf("trial %d: greedy chose %v; the instance should take several rounds", trial, got.set)
				}
				continue
			}
			if !reflect.DeepEqual(got.set, want.set) {
				t.Fatalf("trial %d workers=%s: chose %v, workers=1 chose %v", trial, workers, got.set, want.set)
			}
			if math.Float64bits(got.ev) != math.Float64bits(want.ev) || math.Float64bits(got.total) != math.Float64bits(want.total) {
				t.Fatalf("trial %d workers=%s: EV %v / total %v, workers=1 %v / %v",
					trial, workers, got.ev, got.total, want.ev, want.total)
			}
			for o := range want.deltas {
				if math.Float64bits(got.deltas[o]) != math.Float64bits(want.deltas[o]) {
					t.Fatalf("trial %d workers=%s: delta[%d] %v, workers=1 %v", trial, workers, o, got.deltas[o], want.deltas[o])
				}
			}
		}
	}
}

// countingEngine is a modular ev.Engine, EV(T) = Σ_{o∉T} w[o], that
// counts its EV calls.
type countingEngine struct {
	w     []float64
	calls int
}

func (e *countingEngine) EV(T model.Set) float64 {
	e.calls++
	var v float64
	for o, w := range e.w {
		if !T.Has(o) {
			v += w
		}
	}
	return v
}

// TestGreedyEngineSinglesFromFirstRound pins GreedyEngine's EV calls:
// the first round (T = ∅, the whole budget) evaluates exactly the
// affordable objects the final single-item check may return, so it
// yields the singleton benefits too. Six unit-cost objects at budget 3
// take EV(∅) and rounds of 6, 5 and 4 candidates: 16 calls, where a
// separate singleton pass made 22.
func TestGreedyEngineSinglesFromFirstRound(t *testing.T) {
	objs := make([]model.Object, 6)
	for i := range objs {
		objs[i] = model.Object{Name: fmt.Sprint("o", i), Cost: 1, Value: dist.UniformOver([]float64{0, 1})}
	}
	db := model.New(objs)
	engine := &countingEngine{w: []float64{1, 6, 3, 5, 2, 4}}
	sel, err := NewGreedyEngine("GreedyMinVar", db, engine)
	if err != nil {
		t.Fatal(err)
	}
	T := selectT(t, sel, 3)
	if !reflect.DeepEqual(T, model.NewSet(1, 3, 5)) {
		t.Fatalf("chose %v, want [1 3 5]", T)
	}
	if engine.calls != 16 {
		t.Fatalf("%d EV calls, want 16", engine.calls)
	}
}

// Every solve of a Greedy runs a round of its own, so one stateful
// selector solved at every budget point at once, as a figure's budget
// sweep solves it, chooses at each point the set a sequential solve
// chooses. Each side gets a fresh engine, so the concurrent solves also
// fill one cold memo together.
func TestGreedyConcurrentSolvesMatchSequential(t *testing.T) {
	r := rng.New(1618)
	db := randomCoreDB(r, 10)
	g := slidingGroupQuery(r, 10, 3)
	budgets := make([]float64, 8)
	for i := range budgets {
		budgets[i] = float64(i+1) / float64(len(budgets)) * db.TotalCost()
	}
	selectors := func() []Selector {
		lazy, err := NewGreedyMinVarGroup(db, g)
		if err != nil {
			t.Fatal(err)
		}
		engine, err := ev.NewGroupEngine(db, g)
		if err != nil {
			t.Fatal(err)
		}
		eager, err := NewGreedyEngine("GreedyMinVar", db, engine)
		if err != nil {
			t.Fatal(err)
		}
		return []Selector{lazy, eager}
	}
	seq, conc := selectors(), selectors()
	for k, sel := range conc {
		got := make([]model.Set, len(budgets))
		errs := make([]error, len(budgets))
		var wg sync.WaitGroup
		for i, b := range budgets {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = sel.Select(b)
			}()
		}
		wg.Wait()
		for i, b := range budgets {
			if errs[i] != nil {
				t.Fatalf("selector %d at budget %v: %v", k, b, errs[i])
			}
			if want := selectT(t, seq[k], b); !reflect.DeepEqual(got[i], want) {
				t.Errorf("selector %d at budget %v: concurrent solve chose %v, sequential %v", k, b, got[i], want)
			}
		}
	}
}
