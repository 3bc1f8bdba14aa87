package ev

import (
	"context"
	"testing"

	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/parallel"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

func mustGroupShared(t *testing.T, db *model.DB, g *query.GroupSum, c *SharedEVCache) *GroupEngine {
	t.Helper()
	e, err := NewGroupEngineShared(db, g, c)
	if err != nil {
		t.Fatalf("NewGroupEngineShared: %v", err)
	}
	return e
}

// TestSharedCacheExactReuse pins the amortization contract: engines
// sharing a SharedEVCache return bit-identical EVs to engines that
// compute everything themselves, while actually serving repeat
// term/pair enumerations from the cache.
func TestSharedCacheExactReuse(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 8; trial++ {
		n := 4 + r.Intn(4)
		db := randomDB(r, n)
		g := randomGroupSum(r, n)
		subsets := []model.Set{nil, model.NewSet(0), model.NewSet(0, n-1), randomSubset(r, n)}

		cold := mustGroup(t, db, g)
		shared := NewSharedEVCache()
		first := mustGroupShared(t, db, g, shared)
		second := mustGroupShared(t, db, g, shared)
		for _, T := range subsets {
			want := cold.EV(T)
			if got := first.EV(T); got != want {
				t.Fatalf("trial %d: shared-cache filler EV(%v) = %v, unshared = %v", trial, T, got, want)
			}
			if got := second.EV(T); got != want {
				t.Fatalf("trial %d: shared-cache reader EV(%v) = %v, unshared = %v", trial, T, got, want)
			}
		}
		hits, _ := shared.Stats()
		if hits == 0 {
			t.Fatalf("trial %d: second engine never hit the shared cache", trial)
		}
	}
}

// TestSharedCachePairKeysAreOrdered pins that pair entries are keyed
// by the (k,l) role assignment, not a canonicalized pair: pairEV
// groups its float products around the k-side term, so a swapped pair
// must recompute. Two engines whose overlapping terms appear in
// opposite orders still agree bitwise with their unshared twins.
func TestSharedCachePairKeysAreOrdered(t *testing.T) {
	r := rng.New(7)
	db := randomDB(r, 4)
	a := query.IndicatorGE([]int{0, 1}, []float64{1, -1}, 0.5, 1)
	b := query.NegMinSquared([]int{1, 2, 3}, []float64{1, 1, -2}, -0.25, 0.75)
	gAB := &query.GroupSum{Terms: []query.Term{a, b}}
	gBA := &query.GroupSum{Terms: []query.Term{b, a}}

	shared := NewSharedEVCache()
	eAB := mustGroupShared(t, db, gAB, shared)
	eBA := mustGroupShared(t, db, gBA, shared)
	for _, T := range []model.Set{nil, model.NewSet(1), model.NewSet(0, 2)} {
		if got, want := eAB.EV(T), mustGroup(t, db, gAB).EV(T); got != want {
			t.Fatalf("AB order: EV(%v) = %v, unshared = %v", T, got, want)
		}
		if got, want := eBA.EV(T), mustGroup(t, db, gBA).EV(T); got != want {
			t.Fatalf("BA order: EV(%v) = %v, unshared = %v", T, got, want)
		}
	}
}

// TestSharedCacheUnsignedTermsNeverShare pins that hand-built terms
// without signatures bypass the shared tier entirely.
func TestSharedCacheUnsignedTermsNeverShare(t *testing.T) {
	r := rng.New(11)
	db := randomDB(r, 3)
	g := &query.GroupSum{Terms: []query.Term{{
		Vars:     []int{0, 1},
		TermFunc: query.EvalFunc(func(vals []float64) float64 { return vals[0] * vals[1] }),
	}}}
	shared := NewSharedEVCache()
	e1 := mustGroupShared(t, db, g, shared)
	e2 := mustGroupShared(t, db, g, shared)
	if e1.EV(nil) != e2.EV(nil) {
		t.Fatal("same engine inputs disagree")
	}
	if n := shared.Len(); n != 0 {
		t.Fatalf("unsigned terms populated the shared cache: %d entries", n)
	}
	ctx := context.Background()
	if _, err := e1.EVCtx(ctx, model.NewSet(0)); err != nil {
		t.Fatal(err)
	}
	hits, misses := shared.Stats()
	if hits != 0 || misses != 0 {
		t.Fatalf("unsigned terms counted shared lookups: hits=%d misses=%d", hits, misses)
	}
}

// TestSharedCacheIsTheEnginesMemo pins the one memo tier: two engines
// over one cache, built and evaluated concurrently as a triage batch
// fans its claims out, where one engine holds the same signed term
// twice and the other holds the same terms in the other order. Every
// EV is bit-identical to an unshared twin's, and every signed,
// cacheable lookup counts once as a shared hit or miss.
func TestSharedCacheIsTheEnginesMemo(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "4")
	r := rng.New(19)
	db := randomDB(r, 4)
	a := query.IndicatorGE([]int{0, 1}, []float64{1, -1}, 0.5, 1)
	b := query.NegMinSquared([]int{1, 2, 3}, []float64{1, 1, -2}, -0.25, 0.75)
	groups := []*query.GroupSum{
		{Terms: []query.Term{a, a, b}},
		{Terms: []query.Term{b, a, a}},
	}
	subsets := []model.Set{nil, model.NewSet(1), model.NewSet(0, 2), nil, model.NewSet(0, 1, 2, 3)}

	shared := NewSharedEVCache()
	got := make([][]float64, len(groups))
	lookups := make([]int, len(groups))
	err := parallel.For(context.Background(), len(groups), func(_, i int) error {
		e, err := NewGroupEngineShared(db, groups[i], shared)
		if err != nil {
			return err
		}
		for _, T := range subsets {
			v, err := e.EVCtx(context.Background(), T)
			if err != nil {
				return err
			}
			got[i] = append(got[i], v)
			lookups[i] += len(e.terms) + len(e.pairs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range groups {
		twin := mustGroup(t, db, g)
		if twin.NumPairs() != 3 {
			t.Fatalf("engine %d has %d overlapping pairs, want 3", i, twin.NumPairs())
		}
		for j, T := range subsets {
			if want := twin.EV(T); got[i][j] != want {
				t.Fatalf("engine %d: shared EV(%v) = %v, unshared = %v", i, T, got[i][j], want)
			}
		}
	}
	hits, misses := shared.Stats()
	if want := uint64(lookups[0] + lookups[1]); hits+misses != want {
		t.Fatalf("shared lookups: %d hits + %d misses, want %d in all", hits, misses, want)
	}
}
