package cleansel_test

import (
	"context"
	"slices"
	"testing"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/parallel"
	"github.com/factcheck/cleansel/internal/rng"
)

// servedMinVarTask builds one MinVar/uniqueness task of the shape the
// daemon serves most: 120 unit-cost objects with 4-point supports, a
// window-6 sum claim asserted "as low as" the mean window sum, every
// other disjoint window as a perturbation, and a budget of eight
// cleanings. Each duplicity term enumerates 4^6 joint outcomes, and the
// windows are disjoint, so the engine has no overlapping pairs.
func servedMinVarTask(tb testing.TB, seed uint64) cleansel.Task {
	tb.Helper()
	const n, k, w, budget = 120, 4, 6, 8
	r := rng.New(seed)
	db := datasets.SyntheticK(datasets.UR, n, k, r.Uint64())
	for i := range db.Objects {
		db.Objects[i].Cost = 1
	}
	start := w * r.Intn(n/w)
	orig := cleansel.WindowSum("claim", start, w)
	var ps []cleansel.Perturbed
	for _, p := range cleansel.NonOverlappingWindows("w", n, w, start, 0.5) {
		if p.Distance > 0 {
			ps = append(ps, p)
		}
	}
	var tot float64
	windows := 0
	for s := 0; s+w <= n; s += w {
		for i := s; i < s+w; i++ {
			tot += db.Objects[i].Current
		}
		windows++
	}
	set, err := cleansel.NewPerturbationSet(orig, cleansel.LowerIsStronger, tot/float64(windows), ps)
	if err != nil {
		tb.Fatal(err)
	}
	return cleansel.Task{
		DB: db, Claims: set,
		Measure: cleansel.Uniqueness, Goal: cleansel.MinimizeUncertainty,
		Algorithm: cleansel.AlgoGreedy, Budget: budget,
	}
}

// TestSelectMinVarWorkCounts pins the work a served MinVar solve does,
// with no wall clock. The greedy's State writes its values through to
// the facade's engine, so Before and After are memo hits (zero
// ev_cache_misses). Each term's support is walked (ev_term_walks) once
// to start the State, which also yields the singleton benefits; once
// per refreshing round, when one extension walk of the cleaned
// object's term computes every live affordable neighbour's extended
// value; and once more when the greedy first cleans an object of a
// term, whose extended value no refresh has computed yet. The round of
// the last affordable clean refreshes nothing: no object fits what
// remains. Before the extension walk, these seeds took 85/85/84/85
// walks: one per term to start, another per term for the singleton
// benefits, and one per live neighbour per round.
func TestSelectMinVarWorkCounts(t *testing.T) {
	walks := map[uint64]int64{1: 33, 2: 33, 3: 32, 4: 33}
	for _, seed := range []uint64{1, 2, 3, 4} {
		task := servedMinVarTask(t, seed)
		rec := obs.NewRecorder(nil)
		res, err := cleansel.SelectContext(obs.WithRecorder(context.Background(), rec), task)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int64{}
		for _, c := range rec.Snapshot().Counters {
			got[c.Name] = c.Value
		}
		if got["ev_calls"] != 2 || got["ev_cache_hits"] == 0 {
			t.Fatalf("seed %d: want Before/After as 2 EV calls served by the memo, got %v", seed, got)
		}
		if got["ev_cache_misses"] != 0 {
			t.Errorf("seed %d: Before/After missed the memo %d times (counters %v)", seed, got["ev_cache_misses"], got)
		}
		// A round refreshes when the cleaned object shares a term with
		// an object still uncleaned that the remaining budget affords.
		// With unit costs, every round but the one that spends the last
		// unit leaves budget for one more, and when every chosen object
		// shares a term with an object outside the final set, each of
		// those rounds refreshes, whatever the cleaning order.
		engine, err := ev.NewGroupEngine(task.DB, task.Claims.Dup())
		if err != nil {
			t.Fatal(err)
		}
		if engine.NumPairs() != 0 {
			t.Fatalf("seed %d: served shape has %d overlapping pairs, want none", seed, engine.NumPairs())
		}
		st := engine.NewState()
		for _, o := range res.Set {
			outside := false
			for _, a := range st.Affected(o) {
				outside = outside || !res.Set.Has(a)
			}
			if !outside {
				t.Fatalf("seed %d: object %d shares terms only with chosen objects; pick a seed where every round refreshes", seed, o)
			}
		}
		refreshing := min(len(res.Set), int(task.Budget)-1)
		dup := task.Claims.Dup()
		touched := 0
		for _, term := range dup.Terms {
			for _, v := range term.Vars {
				if res.Set.Has(v) {
					touched++
					break
				}
			}
		}
		if want := int64(len(dup.Terms) + refreshing + touched); got["ev_term_walks"] != want || want != walks[seed] {
			t.Errorf("seed %d: %d term walks for %d terms, %d refreshing rounds and %d cleaned terms, want %d (pinned %d)",
				seed, got["ev_term_walks"], len(dup.Terms), refreshing, touched, want, walks[seed])
		}
		// One fan-out starts the State; each refreshing round fans out
		// its extension walks and sums its deltas on the caller.
		if want := int64(1 + refreshing); got["parallel_fanouts"] != want || want != 8 {
			t.Errorf("seed %d: %d parallel fan-outs for %d refreshing rounds, want %d (pinned 8)", seed, got["parallel_fanouts"], refreshing, want)
		}
	}
}

// TestSelectMinVarServedAllocs bounds the allocations of one facade
// solve of the served MinVar shape on one worker. A refresh sums its
// deltas on the caller, so it allocates no per-worker copy of the
// cleaned mask and no result slots for a second fan-out: seeds 1–4 take
// 817–834 allocations, where a refresh that fanned its deltas out took
// 897–914.
func TestSelectMinVarServedAllocs(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "1")
	for _, seed := range []uint64{1, 2, 3, 4} {
		task := servedMinVarTask(t, seed)
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := cleansel.Select(task); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 860 {
			t.Errorf("seed %d: %.0f allocs per solve, want ≤ 860", seed, allocs)
		}
	}
}

// TestRankObjectsWorkCounts pins the work of ranking the served MinVar
// shape, with no wall clock: one fan-out walks each term's support
// once, and that start walk alone yields every singleton benefit, so no
// EV call runs and no term is walked twice. The trace keeps two stages,
// the State's start and the benefit pass.
func TestRankObjectsWorkCounts(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 4} {
		task := servedMinVarTask(t, seed)
		rec := obs.NewRecorder(nil)
		if _, err := cleansel.RankObjectsContext(obs.WithRecorder(context.Background(), rec), task.DB, task.Claims, task.Measure); err != nil {
			t.Fatal(err)
		}
		trace := rec.Snapshot()
		got := map[string]int64{}
		for _, c := range trace.Counters {
			got[c.Name] = c.Value
		}
		terms := int64(len(task.Claims.Dup().Terms))
		if got["ev_term_walks"] != terms || terms != 19 {
			t.Errorf("seed %d: %d term walks for %d terms, want one per term (19)", seed, got["ev_term_walks"], terms)
		}
		if got["parallel_fanouts"] != 1 || got["ev_calls"] != 0 {
			t.Errorf("seed %d: %d fan-outs and %d EV calls, want 1 and 0 (counters %v)", seed, got["parallel_fanouts"], got["ev_calls"], got)
		}
		stages := map[string]bool{}
		for _, s := range trace.Stages {
			stages[s.Name] = true
		}
		if !stages["ev_state_init"] || !stages["singleton_benefits"] {
			t.Errorf("seed %d: stages %v, want ev_state_init and singleton_benefits", seed, trace.Stages)
		}
	}
}

// TestSelectMinVarBestWalksNoMoreThanBare pins that the facade's
// AlgoBest solve runs over the engine that reports Before and After, so
// both are memo hits: the facade walks no more terms than the same Best
// solve run bare.
func TestSelectMinVarBestWalksNoMoreThanBare(t *testing.T) {
	task := servedMinVarTask(t, 1)
	task.Algorithm = cleansel.AlgoBest
	walks := func(solve func(context.Context) (cleansel.Set, error)) (cleansel.Set, int64) {
		rec := obs.NewRecorder(nil)
		T, err := solve(obs.WithRecorder(context.Background(), rec))
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range rec.Snapshot().Counters {
			if c.Name == "ev_term_walks" {
				return T, c.Value
			}
		}
		return T, 0
	}
	facadeSet, facade := walks(func(ctx context.Context) (cleansel.Set, error) {
		res, err := cleansel.SelectContext(ctx, task)
		return res.Set, err
	})
	engine, err := ev.NewGroupEngine(task.DB, task.Claims.Dup())
	if err != nil {
		t.Fatal(err)
	}
	best, err := core.NewBest(task.DB, engine)
	if err != nil {
		t.Fatal(err)
	}
	bareSet, bare := walks(func(ctx context.Context) (cleansel.Set, error) {
		return core.SelectWithContext(ctx, best, task.Budget)
	})
	if !slices.Equal(facadeSet, bareSet) {
		t.Fatalf("facade chose %v, bare Best %v", facadeSet, bareSet)
	}
	if facade > bare || bare == 0 {
		t.Errorf("facade AlgoBest walked %d terms, the bare Best solve %d", facade, bare)
	}
}

// BenchmarkSelectMinVarServed times one facade solve of the served
// MinVar/uniqueness shape (see servedMinVarTask).
func BenchmarkSelectMinVarServed(b *testing.B) {
	tasks := make([]cleansel.Task, 16)
	for i := range tasks {
		tasks[i] = servedMinVarTask(b, uint64(1000+i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cleansel.Select(tasks[i%len(tasks)]); err != nil {
			b.Fatal(err)
		}
	}
}
