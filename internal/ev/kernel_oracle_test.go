package ev

import (
	"context"
	"math"
	"testing"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/rng"
)

// The recursive enumerator below is the reference the iterative
// odometer kernel replaced. It survives here only as the oracle: every
// engine quantity computed through the kernel must equal, bit for bit,
// the same quantity computed with this enumerator plus a per-outcome
// gather of each term's arguments out of the object-indexed vector.

// enumerateRec iterates the product distribution of vars depth-first,
// assigning values into x (indexed by object id) and calling visit with
// the left-to-right product of the assignment's probabilities.
func enumerateRec(dists []*dist.Discrete, vars []int, x []float64, visit func(p float64)) {
	var rec func(i int, p float64)
	rec = func(i int, p float64) {
		if i == len(vars) {
			visit(p)
			return
		}
		d := dists[vars[i]]
		for j, v := range d.Values {
			x[vars[i]] = v
			rec(i+1, p*d.Probs[j])
		}
	}
	rec(0, 1)
}

// enumerateIdxRec is enumerateRec plus support-index tracking: idx[v]
// holds each enumerated var's current support position.
func enumerateIdxRec(dists []*dist.Discrete, vars []int, x []float64, idx []int, visit func(p float64)) {
	var rec func(i int, p float64)
	rec = func(i int, p float64) {
		if i == len(vars) {
			visit(p)
			return
		}
		d := dists[vars[i]]
		for j, v := range d.Values {
			x[vars[i]] = v
			idx[vars[i]] = j
			rec(i+1, p*d.Probs[j])
		}
	}
	rec(0, 1)
}

// oracleSplit partitions vars into (cleaned, uncleaned), in order.
func oracleSplit(vars []int, cleaned []bool) (in, out []int) {
	for _, v := range vars {
		if cleaned[v] {
			in = append(in, v)
		} else {
			out = append(out, v)
		}
	}
	return in, out
}

// oracleEval gathers term k's arguments from x and evaluates it.
func oracleEval(e *GroupEngine, k int, x []float64) float64 {
	var buf []float64
	for _, v := range e.terms[k].Vars {
		buf = append(buf, x[v])
	}
	return e.terms[k].Eval(buf)
}

func oracleTermEV(e *GroupEngine, k int, cleaned []bool) float64 {
	x := make([]float64, e.db.N())
	a, b := oracleSplit(e.terms[k].Vars, cleaned)
	var acc numeric.KahanAcc
	enumerateRec(e.dists, a, x, func(pa float64) {
		var m1, m2 numeric.KahanAcc
		enumerateRec(e.dists, b, x, func(p float64) {
			v := oracleEval(e, k, x)
			m1.Add(p * v)
			m2.Add(p * v * v)
		})
		mean := m1.Value()
		variance := m2.Value() - mean*mean
		if variance < 0 {
			variance = 0
		}
		acc.Add(pa * variance)
	})
	return acc.Value()
}

func oraclePairEV(e *GroupEngine, pi int, cleaned []bool) float64 {
	x := make([]float64, e.db.N())
	p := e.pairs[pi]
	a, _ := oracleSplit(p.union, cleaned)
	_, sharedU := oracleSplit(p.shared, cleaned)
	_, bk := oracleSplit(p.onlyK, cleaned)
	_, bl := oracleSplit(p.onlyL, cleaned)
	var acc numeric.KahanAcc
	enumerateRec(e.dists, a, x, func(pa float64) {
		var ekl, ek, el numeric.KahanAcc
		enumerateRec(e.dists, sharedU, x, func(ps float64) {
			var mk, ml numeric.KahanAcc
			enumerateRec(e.dists, bk, x, func(pb float64) {
				mk.Add(pb * oracleEval(e, p.k, x))
			})
			enumerateRec(e.dists, bl, x, func(pb float64) {
				ml.Add(pb * oracleEval(e, p.l, x))
			})
			vk, vl := mk.Value(), ml.Value()
			ekl.Add(ps * vk * vl)
			ek.Add(ps * vk)
			el.Add(ps * vl)
		})
		acc.Add(pa * (ekl.Value() - ek.Value()*el.Value()))
	})
	return acc.Value()
}

// oracleState is the incremental state recomputed through the oracle.
type oracleState struct {
	e              *GroupEngine
	cleaned        []bool
	termEV, pairEV []float64
	total          float64
}

func newOracleState(e *GroupEngine) *oracleState {
	s := &oracleState{e: e, cleaned: make([]bool, e.db.N())}
	var acc numeric.KahanAcc
	for k := range e.terms {
		s.termEV = append(s.termEV, oracleTermEV(e, k, s.cleaned))
		acc.Add(s.termEV[k])
	}
	for pi := range e.pairs {
		s.pairEV = append(s.pairEV, oraclePairEV(e, pi, s.cleaned))
		acc.Add(2 * s.pairEV[pi])
	}
	s.total = acc.Value()
	return s
}

// delta returns EV(T ∪ {o}) − EV(T) and, when commit is set, cleans o.
func (s *oracleState) delta(o int, commit bool) float64 {
	if s.cleaned[o] {
		return 0
	}
	s.cleaned[o] = true
	termNew := map[int]float64{}
	pairNew := map[int]float64{}
	var acc numeric.KahanAcc
	for _, k := range s.e.varTerms[o] {
		termNew[k] = oracleTermEV(s.e, k, s.cleaned)
		acc.Add(termNew[k] - s.termEV[k])
	}
	for _, pi := range s.e.varPairs[o] {
		pairNew[pi] = oraclePairEV(s.e, pi, s.cleaned)
		acc.Add(2 * (pairNew[pi] - s.pairEV[pi]))
	}
	d := acc.Value()
	if !commit {
		s.cleaned[o] = false
		return d
	}
	for k, v := range termNew {
		s.termEV[k] = v
	}
	for pi, v := range pairNew {
		s.pairEV[pi] = v
	}
	s.total += d
	return d
}

// singletons is the sequential singleton-benefit pass over the oracle.
func (s *oracleState) singletons() []float64 {
	e := s.e
	n := e.db.N()
	benefits := make([]float64, n)
	x := make([]float64, n)
	idx := make([]int, n)
	for k := range e.terms {
		a, b := oracleSplit(e.terms[k].Vars, s.cleaned)
		if len(b) == 0 {
			continue
		}
		evAfter := map[int]*numeric.KahanAcc{}
		m1 := map[int][]float64{}
		m2 := map[int][]float64{}
		for _, v := range b {
			evAfter[v] = &numeric.KahanAcc{}
			m1[v] = make([]float64, e.dists[v].Size())
			m2[v] = make([]float64, e.dists[v].Size())
		}
		enumerateRec(e.dists, a, x, func(pa float64) {
			for _, v := range b {
				for j := range m1[v] {
					m1[v][j] = 0
					m2[v][j] = 0
				}
			}
			enumerateIdxRec(e.dists, b, x, idx, func(pb float64) {
				g := oracleEval(e, k, x)
				for _, v := range b {
					m1[v][idx[v]] += pb * g
					m2[v][idx[v]] += pb * g * g
				}
			})
			for _, v := range b {
				for j, pv := range e.dists[v].Probs {
					if pv == 0 {
						continue
					}
					mean := m1[v][j] / pv
					variance := m2[v][j]/pv - mean*mean
					if variance < 0 {
						variance = 0
					}
					evAfter[v].Add(pa * pv * variance)
				}
			}
		})
		for _, v := range b {
			benefits[v] += s.termEV[k] - evAfter[v].Value()
		}
	}
	seen := map[int]bool{}
	for _, p := range e.pairs {
		for _, v := range p.union {
			if seen[v] || s.cleaned[v] {
				continue
			}
			seen[v] = true
			s.cleaned[v] = true
			for _, pi := range e.varPairs[v] {
				benefits[v] += 2 * (s.pairEV[pi] - oraclePairEV(e, pi, s.cleaned))
			}
			s.cleaned[v] = false
		}
	}
	for i := range benefits {
		if s.cleaned[i] || benefits[i] < 0 {
			benefits[i] = 0
		}
	}
	return benefits
}

// oracleEV is EVCtx through the oracle: terms then doubled pairs,
// Kahan-summed in index order.
func oracleEV(e *GroupEngine, T model.Set) float64 {
	cleaned := make([]bool, e.db.N())
	for _, i := range T {
		cleaned[i] = true
	}
	var acc numeric.KahanAcc
	for k := range e.terms {
		acc.Add(oracleTermEV(e, k, cleaned))
	}
	for pi := range e.pairs {
		acc.Add(2 * oraclePairEV(e, pi, cleaned))
	}
	return math.Max(acc.Value(), 0)
}

// oracleInstance draws a random engine input: the shared random
// database and overlapping GroupSum, sometimes a second overlapping
// term over the same objects, sometimes an arbitrary-predicate
// Indicator whose declared var order is shuffled and whose predicate
// weighs each argument by its position (so a misplaced argument changes
// the value), sometimes an object with a zero-probability atom, and
// sometimes a term that is exactly +0 or −0 on some outcomes.
func oracleInstance(r *rng.RNG) (*model.DB, *query.GroupSum) {
	n := 2 + r.Intn(5)
	db := randomDB(r, n)
	g := randomGroupSum(r, n)
	if r.Intn(2) == 0 {
		src := g.Terms[r.Intn(len(g.Terms))].Vars
		vars := append([]int{src[0]}, r.SampleWithoutReplacement(0, n-1, 1+r.Intn(n))...)
		vars = dedupInts(vars)
		coef := make([]float64, len(vars))
		for j := range coef {
			coef[j] = float64(r.IntRange(-2, 2)) + 0.5
		}
		g.Terms = append(g.Terms, query.NegMinSquared(vars, coef, float64(r.IntRange(-3, 3)), 1+r.Float64()))
	}
	if r.Intn(2) == 0 {
		k := 1 + r.Intn(n)
		if k > 3 {
			k = 3
		}
		vars := r.SampleWithoutReplacement(0, n-1, k)
		thr := float64(r.IntRange(-4, 4)) + 0.25
		ind := query.Indicator(vars, func(vals []float64) bool {
			s := 0.0
			for j, v := range vals {
				s += float64(j+1) * v
			}
			return s > thr
		})
		g.Terms = append(g.Terms, ind.Terms[0])
	}
	if r.Intn(2) == 0 {
		withZeroAtom(r, db, r.Intn(n))
	}
	if r.Intn(2) == 0 {
		k := 1 + r.Intn(n)
		if k > 3 {
			k = 3
		}
		g.Terms = append(g.Terms, signedZeroTerm(r.SampleWithoutReplacement(0, n-1, k), float64(r.IntRange(-2, 2))))
	}
	return db, g
}

// withZeroAtom gives object i one more support value, of probability
// 0, at a random position of its support.
func withZeroAtom(r *rng.RNG, db *model.DB, i int) {
	d := db.Objects[i].Value.(*dist.Discrete)
	at := r.Intn(d.Size() + 1)
	vals := append(append(append([]float64(nil), d.Values[:at]...), float64(r.IntRange(-3, 3))+0.5), d.Values[at:]...)
	probs := append(append(append([]float64(nil), d.Probs[:at]...), 0), d.Probs[at:]...)
	db.Objects[i].Value = dist.MustDiscrete(vals, probs)
}

// signedZeroTerm is a position-weighted sum s of its arguments where it
// exceeds thr, −0 where it falls below −thr and +0 in between: a term
// that is exactly zero, of either sign, on some outcomes.
func signedZeroTerm(vars []int, thr float64) query.Term {
	negZero := math.Copysign(0, -1)
	return query.Term{Vars: vars, TermFunc: query.EvalFunc(func(vals []float64) float64 {
		s := 0.0
		for j, v := range vals {
			s += float64(j+1) * v
		}
		switch {
		case s > thr:
			return s
		case s < -thr:
			return negZero
		}
		return 0
	})}
}

func dedupInts(vs []int) []int {
	seen := map[int]bool{}
	out := vs[:0]
	for _, v := range vs {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkKernelOracle compares every engine quantity on one random
// instance against the oracle, bit for bit: termEV and pairEV at a
// random cleaned mask, EVCtx on a cold and on a State-warmed engine,
// a fresh State's total and singleton benefits (its start walks), each
// committed delta along a random clean order and, after each clean,
// DeltasCtx over the cleaned object's Affected set (the greedy's
// refresh: extension walks, then memo reads, which the next Clean
// reads too), and then Delta and DeltasCtx at the resulting mask.
func checkKernelOracle(t *testing.T, r *rng.RNG) {
	t.Helper()
	db, g := oracleInstance(r)
	n := db.N()
	e := mustGroup(t, db, g)
	T := randomSubset(r, n)
	cleaned := make([]bool, n)
	for _, o := range T {
		cleaned[o] = true
	}
	sc := newEvScratch(n)
	for k := range e.terms {
		if got, want := e.termEV(e.dists, k, cleaned, sc), oracleTermEV(e, k, cleaned); !sameBits(got, want) {
			t.Fatalf("termEV[%d] at %v: %v, oracle %v", k, T, got, want)
		}
	}
	for pi := range e.pairs {
		if got, want := e.pairEV(e.dists, pi, cleaned, sc), oraclePairEV(e, pi, cleaned); !sameBits(got, want) {
			t.Fatalf("pairEV[%d] at %v: %v, oracle %v", pi, T, got, want)
		}
	}
	wantEV := oracleEV(e, T)
	if got, err := e.EVCtx(context.Background(), T); err != nil || !sameBits(got, wantEV) {
		t.Fatalf("cold EVCtx(%v) = %v (%v), oracle %v", T, got, err, wantEV)
	}

	// Clean T in a random order on a fresh engine, so its memo holds
	// only what the State wrote through.
	e = mustGroup(t, db, g)
	st, gotB, err := e.NewStateCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ref := newOracleState(e)
	if !sameBits(st.EV(), math.Max(ref.total, 0)) {
		t.Fatalf("NewState total %v, oracle %v", st.EV(), ref.total)
	}
	wantB := ref.singletons()
	for o := range wantB {
		if !sameBits(gotB[o], wantB[o]) {
			t.Fatalf("fresh singleton benefit[%d]: %v, oracle %v", o, gotB[o], wantB[o])
		}
	}
	for _, i := range r.Perm(len(T)) {
		o := T[i]
		if got, want := st.Clean(o), ref.delta(o, true); !sameBits(got, want) {
			t.Fatalf("Clean(%d) delta %v, oracle %v", o, got, want)
		}
		if !sameBits(st.EV(), math.Max(ref.total, 0)) {
			t.Fatalf("total after Clean(%d): %v, oracle %v", o, st.EV(), ref.total)
		}
		aff := st.Affected(o)
		deltas, err := st.DeltasCtx(context.Background(), aff)
		if err != nil {
			t.Fatal(err)
		}
		for j, a := range aff {
			if want := ref.delta(a, false); !sameBits(deltas[j], want) {
				t.Fatalf("DeltasCtx(Affected(%d))[%d] after Clean(%d): %v, oracle %v", o, a, o, deltas[j], want)
			}
		}
	}
	if got, err := e.EVCtx(context.Background(), T); err != nil || !sameBits(got, wantEV) {
		t.Fatalf("warm EVCtx(%v) = %v (%v), oracle %v", T, got, err, wantEV)
	}
	all := make([]int, n)
	for o := range all {
		all[o] = o
	}
	deltas, err := st.DeltasCtx(context.Background(), all)
	if err != nil {
		t.Fatal(err)
	}
	for o := 0; o < n; o++ {
		want := ref.delta(o, false)
		if got := st.Delta(o); !sameBits(got, want) {
			t.Fatalf("Delta(%d) at %v: %v, oracle %v", o, T, got, want)
		}
		if !sameBits(deltas[o], want) {
			t.Fatalf("DeltasCtx[%d] at %v: %v, oracle %v", o, T, deltas[o], want)
		}
	}
}

// TestKernelMatchesRecursiveOracle runs the oracle comparison over
// random instances with overlapping terms, order-sensitive indicator
// terms and random cleaned masks.
func TestKernelMatchesRecursiveOracle(t *testing.T) {
	r := rng.New(8675309)
	for trial := 0; trial < 300; trial++ {
		checkKernelOracle(t, rng.New(r.Uint64()))
	}
}

// TestOdometerVisitOrder pins the kernel's walk against the recursive
// enumerator directly: same assignments in the same order, same
// probability bits, same support indices, in both slot modes.
func TestOdometerVisitOrder(t *testing.T) {
	r := rng.New(271)
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(5)
		db := randomDB(r, n)
		dists, _ := db.Discretes()
		vars := r.SampleWithoutReplacement(0, n-1, r.Intn(n+1))
		type outcome struct {
			p    float64
			vals []float64
			idx  []int
		}
		var want []outcome
		x := make([]float64, n)
		idx := make([]int, n)
		enumerateIdxRec(dists, vars, x, idx, func(p float64) {
			o := outcome{p: p}
			for _, v := range vars {
				o.vals = append(o.vals, x[v])
				o.idx = append(o.idx, idx[v])
			}
			want = append(want, o)
		})
		// Term mode: slot = position in vars.
		w := &odometer{vars: vars, slot: make([]int, len(vars))}
		for i := range w.slot {
			w.slot[i] = i
		}
		args := make([]float64, len(vars))
		w.bind(dists, args)
		i := 0
		for p, ok := w.first(); ok; p, ok = w.next() {
			if i >= len(want) {
				t.Fatalf("trial %d: kernel visits more than %d outcomes", trial, len(want))
			}
			if !sameBits(p, want[i].p) {
				t.Fatalf("trial %d outcome %d: p %v, oracle %v", trial, i, p, want[i].p)
			}
			for lv := range vars {
				if !sameBits(args[lv], want[i].vals[lv]) || w.idx[lv] != want[i].idx[lv] {
					t.Fatalf("trial %d outcome %d level %d: (%v, %d), oracle (%v, %d)",
						trial, i, lv, args[lv], w.idx[lv], want[i].vals[lv], want[i].idx[lv])
				}
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("trial %d: kernel visited %d outcomes, oracle %d", trial, i, len(want))
		}
		// Id mode: slot = object id, over an object-indexed vector.
		xs := make([]float64, n)
		i = 0
		newOdometer(dists, xs, vars).each(func(p float64) {
			for lv, v := range vars {
				if !sameBits(xs[v], want[i].vals[lv]) {
					t.Fatalf("trial %d outcome %d: id-mode x[%d] %v, oracle %v", trial, i, v, xs[v], want[i].vals[lv])
				}
			}
			if !sameBits(p, want[i].p) {
				t.Fatalf("trial %d outcome %d: id-mode p %v, oracle %v", trial, i, p, want[i].p)
			}
			i++
		})
	}
}

// FuzzKernelOracle drives the oracle comparison from fuzzed seeds.
func FuzzKernelOracle(f *testing.F) {
	for _, seed := range []uint64{0, 1, 7, 42, 8675309} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkKernelOracle(t, rng.New(seed))
	})
}
