package ev

import (
	"context"
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/parallel"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// extensionInstance draws one term of width 1–6 over a database of up
// to seven objects with 1–4-point supports, some with a
// zero-probability atom. The term is an IndicatorGE, a NegMinSquared, a
// LinearTerm or a signed-zero term, each over a shuffled var order.
func extensionInstance(r *rng.RNG) (*model.DB, *query.GroupSum) {
	n := 1 + r.Intn(7)
	objs := make([]model.Object, n)
	for i := range objs {
		k := 1 + r.Intn(4)
		vals := make([]float64, k)
		probs := make([]float64, k)
		for j := range vals {
			vals[j] = float64(r.IntRange(-3, 3))
			probs[j] = r.Float64() + 0.05
		}
		if k > 1 && r.Intn(4) == 0 {
			probs[r.Intn(k)] = 0
		}
		objs[i] = model.Object{Name: "o", Cost: 1, Current: vals[0], Value: dist.MustDiscrete(vals, probs)}
	}
	w := 1 + r.Intn(n)
	if w > 6 {
		w = 6
	}
	vars := r.SampleWithoutReplacement(0, n-1, w)
	coef := make([]float64, w)
	for j := range coef {
		coef[j] = float64(r.IntRange(-2, 2)) + 0.5
	}
	c := float64(r.IntRange(-3, 3))
	var term query.Term
	switch r.Intn(4) {
	case 0:
		term = query.IndicatorGE(vars, coef, c, 1+r.Float64())
	case 1:
		term = query.NegMinSquared(vars, coef, c, r.Float64())
	case 2:
		term = query.LinearTerm(vars, coef, c)
	default:
		term = signedZeroTerm(vars, float64(r.IntRange(-2, 2)))
	}
	return model.New(objs), &query.GroupSum{Terms: []query.Term{term}}
}

// TestExtendTermMatchesTermEV is the extension walk's differential: on
// 3,000 random terms, cleaned masks and request lists (a random subset
// of the uncleaned vars, in random order), each value must equal
// termEV at the extended mask bit for bit. One scratch serves every
// instance, so stale workspace from a wider term is exercised too.
func TestExtendTermMatchesTermEV(t *testing.T) {
	r := rng.New(20261017)
	sc, ref := newEvScratch(7), newEvScratch(7)
	for trial := 0; trial < 3000; trial++ {
		db, g := extensionInstance(r)
		e := mustGroup(t, db, g)
		vars := e.terms[0].Vars
		cleaned := make([]bool, db.N())
		var open []int
		for _, v := range vars {
			if cleaned[v] = r.Intn(3) == 0; !cleaned[v] {
				open = append(open, v)
			}
		}
		if len(open) == 0 {
			cleaned[vars[0]] = false
			open = []int{vars[0]}
		}
		perm := r.Perm(len(open))
		vs := make([]int, 1+r.Intn(len(open)))
		for i := range vs {
			vs[i] = open[perm[i]]
		}
		got := append([]float64(nil), e.extendTerm(0, cleaned, vs, sc)...)
		for i, v := range vs {
			cleaned[v] = true
			want := e.termEV(e.dists, 0, cleaned, ref)
			cleaned[v] = false
			if !sameBits(got[i], want) {
				t.Fatalf("trial %d: term over %v cleaned %v, extended by %d: %v, termEV %v",
					trial, vars, cleaned, v, got[i], want)
			}
		}
	}
}

// TestRefreshOverlappingTermsAcrossWorkers drives the greedy's refresh
// (Clean, then DeltasCtx over Affected) on sliding-window instances
// where every object sits in up to three overlapping terms, so each
// refresh runs several extension walks that write the engine memo from
// different workers. Every delta must be bit-identical at one worker
// and at four.
func TestRefreshOverlappingTermsAcrossWorkers(t *testing.T) {
	ctx := context.Background()
	r := rng.New(6061)
	for trial := 0; trial < 8; trial++ {
		const n, w = 10, 3
		db := randomDB(r, n)
		if r.Intn(2) == 0 {
			withZeroAtom(r, db, r.Intn(n))
		}
		g := &query.GroupSum{}
		for s := 0; s+w <= n; s++ {
			vars := []int{s + 2, s, s + 1}
			coef := []float64{1.5, -0.5, float64(r.IntRange(-2, 2)) + 0.5}
			c := float64(r.IntRange(-3, 3))
			if s%2 == 0 {
				g.Terms = append(g.Terms, query.IndicatorGE(vars, coef, c, 1))
			} else {
				g.Terms = append(g.Terms, query.NegMinSquared(vars, coef, c, 0.5))
			}
		}
		order := r.Perm(n)
		run := func(workers string) []float64 {
			t.Setenv(parallel.EnvWorkers, workers)
			e := mustGroup(t, db, g)
			if e.NumPairs() == 0 {
				t.Fatalf("trial %d: no overlapping pairs", trial)
			}
			st := e.NewState()
			var bits []float64
			for _, o := range order {
				bits = append(bits, st.Clean(o), st.EV())
				deltas, err := st.DeltasCtx(ctx, st.Affected(o))
				if err != nil {
					t.Fatal(err)
				}
				bits = append(bits, deltas...)
			}
			return bits
		}
		one, four := run("1"), run("4")
		if len(one) != len(four) {
			t.Fatalf("trial %d: %d values at one worker, %d at four", trial, len(one), len(four))
		}
		for i := range one {
			if !sameBits(one[i], four[i]) {
				t.Fatalf("trial %d: value %d is %v at one worker, %v at four", trial, i, one[i], four[i])
			}
		}
	}
}
