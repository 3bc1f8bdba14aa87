package ev

import (
	"context"
	"testing"

	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/parallel"
	"github.com/factcheck/cleansel/internal/rng"
)

// TestScratchPoolSpillWorker is the regression test for the latent
// out-of-range panic: a pool sized under one worker count handed a
// worker index from a wider run (CLEANSEL_WORKERS re-read between pool
// creation and execution, or a wider caller-supplied pool) indexed past
// its slot slice. Spill workers must get a working unpooled workspace
// instead. Fails with an index-out-of-range panic on the pre-fix tree.
func TestScratchPoolSpillWorker(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "2")
	p := newScratchPool(5)
	t.Setenv(parallel.EnvWorkers, "8")
	for worker := 0; worker < 8; worker++ {
		sc := p.get(worker)
		if sc == nil {
			t.Fatalf("worker %d: nil scratch", worker)
		}
		if len(sc.x) != 5 {
			t.Fatalf("worker %d: workspace not sized to n=5", worker)
		}
	}
	// Negative indexes are equally out of contract and must not panic.
	if sc := p.get(-1); sc == nil || len(sc.x) != 5 {
		t.Fatal("negative worker index: want a fresh workspace")
	}
	// In-range slots still pool: the same worker sees the same scratch.
	if p.get(0) != p.get(0) {
		t.Fatal("in-range slots must reuse their workspace")
	}
	// Spill workspaces are unpooled (fresh each call): sharing one slot
	// between two concurrent spill workers would race.
	if p.get(7) == p.get(7) {
		t.Fatal("spill workspaces must not be shared")
	}
}

// TestGroupEngineBuiltUnderOtherWorkerCount constructs engines under one
// CLEANSEL_WORKERS setting and runs them under another (both
// directions): results must stay bit-identical to an engine whose whole
// life ran under one worker, and nothing may panic even though every
// pool-width assumption from construction time is stale at run time.
// DeltasCtx's extension walks fan out on the State's scratch pool,
// sized at build time.
func TestGroupEngineBuiltUnderOtherWorkerCount(t *testing.T) {
	type snapshot struct {
		total  float64
		deltas []float64
		ev     float64
	}
	build := func(workers string, n int, seed uint64) (*GroupEngine, *State) {
		t.Setenv(parallel.EnvWorkers, workers)
		rr := rng.New(seed)
		db := randomDB(rr, n)
		g := randomGroupSum(rr, n)
		ge := mustGroup(t, db, g)
		return ge, ge.NewState()
	}
	run := func(workers string, ge *GroupEngine, st *State, n int) snapshot {
		t.Setenv(parallel.EnvWorkers, workers)
		all := make([]int, n)
		for o := range all {
			all[o] = o
		}
		deltas, err := st.DeltasCtx(context.Background(), all)
		if err != nil {
			t.Fatal(err)
		}
		return snapshot{
			total:  st.EV(),
			deltas: deltas,
			ev:     ge.EV(model.NewSet(0, n-1)),
		}
	}
	const n, seed = 7, 41
	refGE, refST := build("1", n, seed)
	want := run("1", refGE, refST, n)
	for _, c := range []struct{ buildW, runW string }{{"1", "6"}, {"6", "1"}, {"2", "8"}} {
		ge, st := build(c.buildW, n, seed)
		got := run(c.runW, ge, st, n)
		if got.total != want.total || got.ev != want.ev {
			t.Fatalf("build=%s run=%s: EV %v/%v, want %v/%v",
				c.buildW, c.runW, got.total, got.ev, want.total, want.ev)
		}
		for j := range want.deltas {
			if got.deltas[j] != want.deltas[j] {
				t.Fatalf("build=%s run=%s: delta[%d] %v != %v",
					c.buildW, c.runW, j, got.deltas[j], want.deltas[j])
			}
		}
	}
}
