package ev

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/parallel"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// TestGroupEngineBitIdenticalAcrossWorkerCounts pins the determinism
// contract of the parallel subsystem at the engine level: EV, the
// initial state, and the singleton benefits must be bit-for-bit equal
// for every CLEANSEL_WORKERS setting, with workers=1 reproducing the
// sequential arithmetic exactly.
func TestGroupEngineBitIdenticalAcrossWorkerCounts(t *testing.T) {
	type snapshot struct {
		total    float64
		benefits []float64
		evs      []float64
	}
	run := func(workers string) []snapshot {
		t.Setenv(parallel.EnvWorkers, workers)
		rr := rng.New(99)
		var out []snapshot
		for trial := 0; trial < 6; trial++ {
			n := 4 + rr.Intn(5)
			db := randomDB(rr, n)
			g := randomGroupSum(rr, n)
			ge := mustGroup(t, db, g)
			st, benefits, err := ge.NewStateCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			snap := snapshot{total: st.EV(), benefits: benefits}
			for o := 0; o < n; o++ {
				snap.evs = append(snap.evs, ge.EV(model.NewSet(o)))
			}
			snap.evs = append(snap.evs, ge.EV(model.NewSet(0, n-1)))
			out = append(out, snap)
		}
		return out
	}
	want := run("1")
	for _, workers := range []string{"2", "8"} {
		got := run(workers)
		for i := range want {
			if got[i].total != want[i].total {
				t.Fatalf("workers=%s trial %d: total %v != %v", workers, i, got[i].total, want[i].total)
			}
			for j := range want[i].benefits {
				if got[i].benefits[j] != want[i].benefits[j] {
					t.Fatalf("workers=%s trial %d: benefit[%d] %v != %v",
						workers, i, j, got[i].benefits[j], want[i].benefits[j])
				}
			}
			for j := range want[i].evs {
				if got[i].evs[j] != want[i].evs[j] {
					t.Fatalf("workers=%s trial %d: ev[%d] %v != %v",
						workers, i, j, got[i].evs[j], want[i].evs[j])
				}
			}
		}
	}
}

// TestGroupEngineConcurrentEV hammers one engine's EV from many
// goroutines (exercising the cache mutex under -race) and checks every
// answer against a sequentially computed reference.
func TestGroupEngineConcurrentEV(t *testing.T) {
	r := rng.New(7)
	db := randomDB(r, 8)
	g := randomGroupSum(r, 8)
	ref := mustGroup(t, db, g)
	sets := make([]model.Set, 0, 30)
	want := make([]float64, 0, 30)
	for o := 0; o < db.N(); o++ {
		sets = append(sets, model.NewSet(o))
	}
	for i := 0; i < 10; i++ {
		sets = append(sets, model.NewSet(r.Intn(db.N()), r.Intn(db.N())))
	}
	for _, T := range sets {
		want = append(want, ref.EV(T))
	}
	eng := mustGroup(t, db, g)
	var wg sync.WaitGroup
	errs := make([]error, len(sets))
	for rep := 0; rep < 4; rep++ {
		for i := range sets {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if got := eng.EV(sets[i]); got != want[i] {
					t.Errorf("concurrent EV(%v) = %v, want %v", sets[i], got, want[i])
				}
			}(i)
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestGroupEngineEVCtxCancelled(t *testing.T) {
	r := rng.New(11)
	db := randomDB(r, 5)
	eng := mustGroup(t, db, randomGroupSum(r, 5))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.EVCtx(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("EVCtx on cancelled ctx: err = %v", err)
	}
	if _, _, err := eng.NewStateCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("NewStateCtx on cancelled ctx: err = %v", err)
	}
}

// TestEVCtxConcurrentWithStateCleaning runs EVCtx from several
// goroutines on an engine whose State is refreshing and cleaning at the
// same time, so the State's memo write-through races the readers'
// fills and lookups for the engine's lock. Every answer must equal a
// sequential reference engine's bit for bit, and -race must stay quiet.
func TestEVCtxConcurrentWithStateCleaning(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "4")
	ctx := context.Background()
	r := rng.New(1234)
	for trial := 0; trial < 6; trial++ {
		const n = 7
		db := randomDB(r, n)
		g := randomGroupSum(r, n)
		// One more term over the first term's vars plus a neighbour
		// guarantees an overlapping pair.
		vars := dedupInts(append(append([]int(nil), g.Terms[0].Vars...), (g.Terms[0].Vars[0]+1)%n))
		coef := make([]float64, len(vars))
		for j := range coef {
			coef[j] = float64(j) - 0.5
		}
		g.Terms = append(g.Terms, query.LinearTerm(vars, coef, 1))
		ref := mustGroup(t, db, g)
		sets := []model.Set{nil}
		for o := 0; o < n; o++ {
			sets = append(sets, model.NewSet(o))
		}
		for i := 0; i < 12; i++ {
			sets = append(sets, randomSubset(r, n))
		}
		want := make([]float64, len(sets))
		for i, T := range sets {
			want[i] = ref.EV(T)
		}
		eng := mustGroup(t, db, g)
		if eng.NumPairs() == 0 {
			t.Fatalf("trial %d: instance has no overlapping pair", trial)
		}
		st := eng.NewState()
		all := make([]int, n)
		for o := range all {
			all[o] = o
		}
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					for i := range sets {
						j := (i*(w+1) + rep) % len(sets)
						got, err := eng.EVCtx(ctx, sets[j])
						if err != nil || got != want[j] {
							t.Errorf("concurrent EVCtx(%v) = %v (%v), want %v", sets[j], got, err, want[j])
						}
					}
				}
			}(w)
		}
		for _, o := range r.Perm(n)[:4] {
			if _, err := st.DeltasCtx(ctx, all); err != nil {
				t.Error(err)
			}
			st.Clean(o)
		}
		wg.Wait()
	}
}

// TestDeltasCtxMatchesDelta builds a State under one worker and fans
// its deltas out under wider pools between cleans: every worker's
// private mask must follow the cleans, including spill workers the
// pool was not sized for, so DeltasCtx equals sequential Delta bit for
// bit at every step.
func TestDeltasCtxMatchesDelta(t *testing.T) {
	ctx := context.Background()
	r := rng.New(5150)
	for trial := 0; trial < 30; trial++ {
		t.Setenv(parallel.EnvWorkers, "1")
		db, g := oracleInstance(r)
		n := db.N()
		st := mustGroup(t, db, g).NewState()
		all := make([]int, n)
		for o := range all {
			all[o] = o
		}
		for _, o := range r.Perm(n) {
			for _, workers := range []string{"2", "8"} {
				t.Setenv(parallel.EnvWorkers, workers)
				got, err := st.DeltasCtx(ctx, all)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range all {
					if want := st.Delta(a); got[a] != want {
						t.Fatalf("trial %d workers=%s: DeltasCtx[%d] %v, Delta %v", trial, workers, a, got[a], want)
					}
				}
			}
			st.Clean(o)
		}
	}
}
