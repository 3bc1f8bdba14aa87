package ev

import (
	"testing"

	"github.com/factcheck/cleansel/internal/claims"
	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// servedShape builds the duplicity measure of the MinVar/uniqueness
// shape the daemon serves most, as the repository root's
// servedMinVarTask does: 120 objects with 4-point supports, a window-6
// sum claim asserted "as low as" the mean window sum, and every other
// disjoint window as a perturbation, so 19 terms of 4^6 joint outcomes
// each and no overlapping pairs.
func servedShape(tb testing.TB, seed uint64) (*model.DB, *query.GroupSum) {
	tb.Helper()
	const n, k, w = 120, 4, 6
	r := rng.New(seed)
	db := datasets.SyntheticK(datasets.UR, n, k, r.Uint64())
	start := w * r.Intn(n/w)
	var ps []claims.Perturbed
	for _, p := range claims.NonOverlappingWindows("w", n, w, start, 0.5) {
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
	set, err := claims.NewSet(claims.WindowSum("claim", start, w), claims.LowerIsStronger, tot/float64(windows), ps)
	if err != nil {
		tb.Fatal(err)
	}
	return db, set.Dup()
}

// BenchmarkTermWalks times the group engine's term walks on the served
// shape (see servedShape): walk=start is the start walk (singletonTerm)
// of every term at T = ∅, as NewStateCtx runs them; walk=extend is one
// extension walk of a term at its first var cleaned, by its other five
// vars, as a refreshing round runs it; walk=termEV is one termEV of a
// term at its first var cleaned.
func BenchmarkTermWalks(b *testing.B) {
	db, g := servedShape(b, 1)
	e := mustGroup(b, db, g)
	sc := newEvScratch(db.N())
	none := make([]bool, db.N())
	one := make([]bool, db.N())
	vars := e.terms[0].Vars
	one[vars[0]] = true
	b.Run("walk=start", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			for k := range e.terms {
				e.singletonTerm(k, none, sc)
			}
		}
	})
	b.Run("walk=extend", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			e.extendTerm(0, one, vars[1:], sc)
		}
	})
	b.Run("walk=termEV", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			e.termEV(e.dists, 0, one, sc)
		}
	})
}
