package ev

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/parallel"
	"github.com/factcheck/cleansel/internal/query"
)

// GroupEngine computes EV(T) exactly for query functions of the form
// f(X) = c + Σ_k g_k(X_{R_k}) over mutually independent discrete values —
// the structure of the bias/dup/frag claim-quality measures (Theorem 3.8).
//
// Under independence,
//
//	Var[f | X_T = t] = Σ_k Var[g_k | t] + 2·Σ_{k<l overlapping} Cov[g_k, g_l | t],
//
// and each term only involves the objects its claims reference, so the
// expectation over cleaning outcomes V_T factorizes per term/pair. The
// work per term is the product of the referenced supports (V^W and V^3W in
// the paper's notation), never the full joint.
type GroupEngine struct {
	db    *model.DB
	dists []*dist.Discrete
	g     *query.GroupSum

	terms []query.Term
	pairs []pairInfo

	varTerms [][]int // object id -> indices into terms
	varPairs [][]int // object id -> indices into pairs

	// Memoization for from-scratch EV calls: a term's contribution only
	// depends on which of ITS OWN variables are cleaned, so it is cached
	// by that local bitmask. Selectors that evaluate EV on many related
	// subsets (Best, OPT, the adaptive greedy) hit these caches heavily.
	// mu guards both caches: EV may be called from concurrent sweep
	// points, and cache misses are computed on the parallel worker pool.
	// Cached values are exact, so which goroutine fills an entry first
	// never changes a result.
	mu        *sync.Mutex
	ownMu     sync.Mutex // mu of an engine without a SharedEVCache
	termCache []map[uint64]float64
	pairCache []map[uint64]float64

	// shared, when non-nil, owns mu and the memo tables of the signed
	// terms and pairs, which engines over the same database share (see
	// SharedEVCache).
	shared *SharedEVCache
}

type pairInfo struct {
	k, l   int
	shared []int  // R_k ∩ R_l (non-empty)
	onlyK  []int  // R_k \ shared
	onlyL  []int  // R_l \ shared
	union  []int  // R_k ∪ R_l
	sig    string // ordered sig(k)+sig(l) ("" = unshareable)
}

// NewGroupEngine validates the model (independent, discrete) and indexes
// the term/pair structure.
func NewGroupEngine(db *model.DB, g *query.GroupSum) (*GroupEngine, error) {
	if db.Cov != nil {
		return nil, errors.New("ev: GroupEngine requires independent values")
	}
	ds, err := db.Discretes()
	if err != nil {
		return nil, fmt.Errorf("ev: GroupEngine: %w", err)
	}
	e := &GroupEngine{
		db:       db,
		dists:    ds,
		g:        g,
		varTerms: make([][]int, db.N()),
		varPairs: make([][]int, db.N()),
	}
	e.mu = &e.ownMu
	for k, t := range g.Terms {
		if t.TermFunc == nil {
			return nil, fmt.Errorf("ev: term %d has no function", k)
		}
		vars := append([]int(nil), t.Vars...)
		sort.Ints(vars)
		for i := 1; i < len(vars); i++ {
			if vars[i] == vars[i-1] {
				return nil, fmt.Errorf("ev: term references object %d twice", vars[i])
			}
		}
		for _, v := range vars {
			if v < 0 || v >= db.N() {
				return nil, fmt.Errorf("ev: term references unknown object %d", v)
			}
		}
		// Terms must receive values in their declared order, so the
		// engine keeps each term as declared.
		e.terms = append(e.terms, t)
	}
	// Index terms per object and find overlapping pairs.
	for k, t := range e.terms {
		for _, v := range t.Vars {
			e.varTerms[v] = append(e.varTerms[v], k)
		}
	}
	seen := map[[2]int]bool{}
	for _, ks := range e.varTerms {
		for i := 0; i < len(ks); i++ {
			for j := i + 1; j < len(ks); j++ {
				key := [2]int{ks[i], ks[j]}
				if key[0] > key[1] {
					key[0], key[1] = key[1], key[0]
				}
				if seen[key] {
					continue
				}
				seen[key] = true
				e.pairs = append(e.pairs, e.buildPair(key[0], key[1]))
			}
		}
	}
	sort.Slice(e.pairs, func(i, j int) bool {
		if e.pairs[i].k != e.pairs[j].k {
			return e.pairs[i].k < e.pairs[j].k
		}
		return e.pairs[i].l < e.pairs[j].l
	})
	for pi, p := range e.pairs {
		for _, v := range p.union {
			e.varPairs[v] = append(e.varPairs[v], pi)
		}
	}
	e.termCache = make([]map[uint64]float64, len(e.terms))
	e.pairCache = make([]map[uint64]float64, len(e.pairs))
	return e, nil
}

// localMask packs which of vars are cleaned into a bitmask; ok is false
// when the term is too wide to cache (> 64 variables).
func localMask(vars []int, cleaned []bool) (uint64, bool) {
	if len(vars) > 64 {
		return 0, false
	}
	var m uint64
	for i, v := range vars {
		if cleaned[v] {
			m |= 1 << uint(i)
		}
	}
	return m, true
}

// memoStore records v as entry i's memo value under mask. Callers hold
// e.mu.
func memoStore(cache []map[uint64]float64, i int, mask uint64, v float64) {
	if cache[i] == nil {
		cache[i] = make(map[uint64]float64)
	}
	cache[i][mask] = v
}

// memoize records v as entry i's memo value under the cleaned mask
// restricted to vars, when that mask is cacheable. Callers hold e.mu.
func memoize(cache []map[uint64]float64, i int, vars []int, cleaned []bool, v float64) {
	if mask, ok := localMask(vars, cleaned); ok {
		memoStore(cache, i, mask, v)
	}
}

func (e *GroupEngine) buildPair(k, l int) pairInfo {
	inK := map[int]bool{}
	for _, v := range e.terms[k].Vars {
		inK[v] = true
	}
	p := pairInfo{k: k, l: l}
	inShared := map[int]bool{}
	for _, v := range e.terms[l].Vars {
		if inK[v] {
			p.shared = append(p.shared, v)
			inShared[v] = true
		}
	}
	for _, v := range e.terms[k].Vars {
		if !inShared[v] {
			p.onlyK = append(p.onlyK, v)
		}
	}
	for _, v := range e.terms[l].Vars {
		if !inShared[v] {
			p.onlyL = append(p.onlyL, v)
		}
	}
	p.union = append(p.union, p.shared...)
	p.union = append(p.union, p.onlyK...)
	p.union = append(p.union, p.onlyL...)
	sort.Ints(p.shared)
	sort.Ints(p.onlyK)
	sort.Ints(p.onlyL)
	sort.Ints(p.union)
	// Ordered, not sorted: pairEV groups its products around the k-side
	// term, so only a pair with the same (k,l) role assignment is
	// guaranteed the same float64 (see the SharedEVCache contract).
	if sk, sl := e.terms[k].Sig, e.terms[l].Sig; sk != "" && sl != "" {
		p.sig = sk + "\x1e" + sl
	}
	return p
}

// NumPairs returns the number of overlapping term pairs (0 when all claim
// windows are disjoint).
func (e *GroupEngine) NumPairs() int { return len(e.pairs) }

// evalTerm evaluates term k at the object-indexed assignment x,
// gathering its arguments into the scratch buffer (the id-mode walks of
// pairEV and CondMoments; term-mode walks need no gather).
func (e *GroupEngine) evalTerm(k int, x []float64, sc *evScratch) float64 {
	t := &e.terms[k]
	buf := sc.buf[:0]
	for _, v := range t.Vars {
		buf = append(buf, x[v])
	}
	sc.buf = buf
	return t.Eval(buf)
}

// termEV returns Σ_a Pr[a]·Var[g_k | X_{R_k∩T} = a] for term k given the
// cleaned mask, enumerating with the provided distributions. Both walks
// write straight into the term's argument vector. The inner one is an
// odometer over the uncleaned vars but the last, times one sweep of
// the last (see splitSweep); with no uncleaned var, its one outcome is
// evaluated once. An outcome where the term is ±0 adds nothing: its
// addends are ±0, which leave an accumulator that starts at +0
// unchanged bit for bit (see docs/NUMERICS.md). Every walk here and in
// the kernels below applies the same rule.
func (e *GroupEngine) termEV(dists []*dist.Discrete, k int, cleaned []bool, sc *evScratch) float64 {
	t := &e.terms[k]
	args := growSlice(&sc.args, len(t.Vars))
	a, up := &sc.walks[0], &sc.walks[1]
	inner, pos := splitSweep(dists, t.Vars, cleaned, a, up)
	a.bind(dists, args)
	up.bind(dists, args)
	g := growSlice(&sc.swept, inner.Size())
	var acc numeric.KahanAcc
	for pa, ok := a.first(); ok; pa, ok = a.next() {
		var m1, m2 numeric.KahanAcc
		for pu, ok := up.first(); ok; pu, ok = up.next() {
			if pos < 0 {
				g[0] = t.Eval(args)
			} else {
				t.Sweep(args, pos, inner.Values, g)
			}
			for j, v := range g {
				if v == 0 {
					continue
				}
				p := pu * inner.Probs[j]
				m1.Add(p * v)
				m2.Add(p * v * v)
			}
		}
		mean := m1.Value()
		variance := m2.Value() - mean*mean
		if variance < 0 {
			variance = 0
		}
		acc.Add(pa * variance)
	}
	return acc.Value()
}

// pairEV returns Σ_a Pr[a]·Cov[g_k, g_l | X_{union∩T} = a] for an
// overlapping pair, exploiting that given the shared variables the two
// terms are conditionally independent:
//
//	E[g_k·g_l | a] = Σ_s Pr[s]·E[g_k | a,s]·E[g_l | a,s]
//
// where s ranges over the uncleaned shared variables.
func (e *GroupEngine) pairEV(dists []*dist.Discrete, pi int, cleaned []bool, sc *evScratch) float64 {
	p := &e.pairs[pi]
	a, s, bk, bl := &sc.walks[0], &sc.walks[1], &sc.walks[2], &sc.walks[3]
	a.fill(p.union, cleaned, true)
	s.fill(p.shared, cleaned, false)
	bk.fill(p.onlyK, cleaned, false)
	bl.fill(p.onlyL, cleaned, false)
	for _, w := range [...]*odometer{a, s, bk, bl} {
		w.bind(dists, sc.x)
	}
	var acc numeric.KahanAcc
	for pa, ok := a.first(); ok; pa, ok = a.next() {
		var ekl, ek, el numeric.KahanAcc
		for ps, ok := s.first(); ok; ps, ok = s.next() {
			var mk, ml numeric.KahanAcc
			for pb, ok := bk.first(); ok; pb, ok = bk.next() {
				if g := e.evalTerm(p.k, sc.x, sc); g != 0 {
					mk.Add(pb * g)
				}
			}
			for pb, ok := bl.first(); ok; pb, ok = bl.next() {
				if g := e.evalTerm(p.l, sc.x, sc); g != 0 {
					ml.Add(pb * g)
				}
			}
			vk, vl := mk.Value(), ml.Value()
			ekl.Add(ps * vk * vl)
			ek.Add(ps * vk)
			el.Add(ps * vl)
		}
		cov := ekl.Value() - ek.Value()*el.Value()
		acc.Add(pa * cov)
	}
	return acc.Value()
}

// singletonTerm is the start walk of a term: one walk of term k's
// support at cleaned, with termEV's split and order, that returns
// termEV's value for the term bit for bit together with drops[j], the
// singleton benefit of cleaning the term's j-th uncleaned var
// (declaration order) next. The drops group the joint sweep by each
// var's value and divide its moments by the value's probability; they
// are the singleton benefits NewStateCtx returns, not extendTerm's
// exact ones. A fully cleaned term has no drops: it returns termEV and
// nil.
func (e *GroupEngine) singletonTerm(k int, cleaned []bool, sc *evScratch) (ev float64, drops []float64) {
	t := &e.terms[k]
	a, up := &sc.walks[0], &sc.walks[1]
	inner, pos := splitSweep(e.dists, t.Vars, cleaned, a, up)
	if pos < 0 {
		return e.termEV(e.dists, k, cleaned, sc), nil
	}
	args := growSlice(&sc.args, len(t.Vars))
	a.bind(e.dists, args)
	up.bind(e.dists, args)
	// The uncleaned vars are levels 0..last: up's levels, then the
	// swept one. evAfter[lv] accumulates Σ_a p_a Σ_val p_val·Var[g | a,
	// X_v=val] for the var v at level lv. The accumulators and moment
	// rows live on the worker scratch, indexed by level.
	last := len(up.vars)
	law := func(lv int) *dist.Discrete {
		if lv == last {
			return inner
		}
		return e.dists[up.vars[lv]]
	}
	for len(sc.m1) <= last {
		sc.m1, sc.m2 = append(sc.m1, nil), append(sc.m2, nil)
	}
	m1, m2 := sc.m1[:last+1], sc.m2[:last+1]
	evAfter := growSlice(&sc.acc, last+1)
	clear(evAfter)
	for lv := range m1 {
		growSlice(&m1[lv], law(lv).Size())
		growSlice(&m2[lv], law(lv).Size())
	}
	g := growSlice(&sc.swept, inner.Size())
	var acc numeric.KahanAcc
	for pa, ok := a.first(); ok; pa, ok = a.next() {
		for lv := range m1 {
			clear(m1[lv])
			clear(m2[lv])
		}
		r1, r2 := m1[last], m2[last]
		var t1, t2 numeric.KahanAcc
		for pu, ok := up.first(); ok; pu, ok = up.next() {
			t.Sweep(args, pos, inner.Values, g)
			for j, v := range g {
				if v == 0 {
					continue
				}
				pg := pu * inner.Probs[j] * v
				t1.Add(pg)
				t2.Add(pg * v)
				for lv, i := range up.idx {
					m1[lv][i] += pg
					m2[lv][i] += pg * v
				}
				r1[j] += pg
				r2[j] += pg * v
			}
		}
		mean := t1.Value()
		variance := t2.Value() - mean*mean
		if variance < 0 {
			variance = 0
		}
		acc.Add(pa * variance)
		for lv := range m1 {
			r1, r2 := m1[lv], m2[lv]
			for j, pv := range law(lv).Probs {
				if pv == 0 {
					continue
				}
				mean := r1[j] / pv
				variance := r2[j]/pv - mean*mean
				if variance < 0 {
					variance = 0
				}
				evAfter[lv].Add(pa * pv * variance)
			}
		}
	}
	ev = acc.Value()
	drops = make([]float64, last+1)
	for lv := range drops {
		drops[lv] = ev - evAfter[lv].Value()
	}
	return ev, drops
}

// extReq is one var an extension walk adds to its term's cleaned set.
type extReq struct {
	level int // the var's level in the walk's uncleaned split
	off   int // its first moment cell: one cell per support value
	// Per outcome of the split's upper levels (all but the last): the
	// left-to-right product of their probabilities with this var's
	// factor left out, and, for a var above the last level, its cell.
	// For a var above the last upper level, head is that product
	// without the last upper level's factor, which alone changes
	// between carries.
	above, head float64
	cell        int
}

// extendTerm returns termEV(k, cleaned ∪ {v}) for every var v of vs,
// uncleaned vars of term k, bit for bit, from one walk of the term's
// support at cleaned. The walk is termEV's at cleaned: cleaned vars
// outer, uncleaned vars inner, each in declaration order. Restricted to
// one outer outcome and one value of v, it visits the other uncleaned
// outcomes in the lexicographic order of termEV's inner walk at
// cleaned ∪ {v}, and each addend's probability is that walk's
// left-to-right product: the same factors, v's left out (an exact
// ×1.0). So each (outer outcome, v value) group's Kahan moments and
// conditional variance are termEV's for the matching outer outcome at
// cleaned ∪ {v}. A last walk over cleaned ∪ {v} in declaration order,
// with termEV's own prefix products, sums Pr·Var over the groups in
// termEV's outer order. The result aliases the scratch.
func (e *GroupEngine) extendTerm(k int, cleaned []bool, vs []int, sc *evScratch) []float64 {
	t := &e.terms[k]
	args := growSlice(&sc.args, len(t.Vars))
	a, up, ap := &sc.walks[0], &sc.walks[1], &sc.walks[2]
	// The inner split walks as its upper levels (an odometer) times one
	// sweep of its last level, level last, so each outcome knows which
	// of its factors changed.
	inner, pos := splitSweep(e.dists, t.Vars, cleaned, a, up)
	last := len(up.vars)
	a.bind(e.dists, args)
	up.bind(e.dists, args)
	g := growSlice(&sc.swept, inner.Size())

	reqs, cells := sc.ext[:0], 0
	for _, v := range vs {
		level := 0
		for level < last && up.vars[level] != v {
			level++
		}
		reqs = append(reqs, extReq{level: level, off: cells})
		cells += e.dists[v].Size()
	}
	sc.ext = reqs
	outer := 1
	for _, v := range a.vars {
		outer *= e.dists[v].Size()
	}
	moments := growSlice(&sc.moments, 2*cells)
	m1, m2 := moments[:cells], moments[cells:]
	// groupVar[i·cells + off + j]: the conditional variance of group
	// (i-th outer outcome in walk order, j-th value of the var at off).
	groupVar := growSlice(&sc.groupVar, outer*cells)

	row := groupVar
	for _, ok := a.first(); ok; _, ok = a.next() {
		clear(moments)
		for pu, ok := up.first(); ok; pu, ok = up.next() {
			// The last upper level is the odometer's fastest: it is
			// back at its first value exactly when the walk started or
			// carried, the only times a level above it moves.
			carried := last == 0 || up.idx[last-1] == 0
			for r := range reqs {
				rq := &reqs[r]
				switch {
				case rq.level == last:
					rq.above = pu
				case rq.level == last-1:
					rq.above, rq.cell = up.prefix[last-1], rq.off+up.idx[last-1]
				default:
					if carried {
						p := up.prefix[rq.level]
						for l := rq.level + 1; l < last-1; l++ {
							p *= e.dists[up.vars[l]].Probs[up.idx[l]]
						}
						rq.head, rq.cell = p, rq.off+up.idx[rq.level]
					}
					rq.above = rq.head * e.dists[up.vars[last-1]].Probs[up.idx[last-1]]
				}
			}
			t.Sweep(args, pos, inner.Values, g)
			for j, v := range g {
				if v == 0 {
					continue
				}
				for r := range reqs {
					rq := &reqs[r]
					var pg float64
					c := rq.cell
					if rq.level == last {
						pg, c = rq.above*v, rq.off+j
					} else {
						pg = rq.above * inner.Probs[j] * v
					}
					m1[c].Add(pg)
					m2[c].Add(pg * v)
				}
			}
		}
		for c := range row[:cells] {
			mean := m1[c].Value()
			variance := m2[c].Value() - mean*mean
			if variance < 0 {
				variance = 0
			}
			row[c] = variance
		}
		row = row[cells:]
	}

	out := growSlice(&sc.extOut, len(vs))
	for r, v := range vs {
		ap.vars, ap.slot = ap.vars[:0], ap.slot[:0]
		q := 0
		for pos, w := range t.Vars {
			if w == v {
				q = len(ap.vars)
			}
			if cleaned[w] || w == v {
				ap.vars = append(ap.vars, w)
				ap.slot = append(ap.slot, pos)
			}
		}
		ap.bind(e.dists, args)
		base := reqs[r].off
		var acc numeric.KahanAcc
		for pa, ok := ap.first(); ok; pa, ok = ap.next() {
			i := 0
			for l, w := range ap.vars {
				if l != q {
					i = i*e.dists[w].Size() + ap.idx[l]
				}
			}
			acc.Add(pa * groupVar[i*cells+base+ap.idx[q]])
		}
		out[r] = acc.Value()
	}
	return out
}

// growSlice returns *buf resized to n, reallocating only when it is too
// small. Contents are stale until overwritten — every caller zeroes or
// assigns before reading.
func growSlice[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// evScratch is the per-worker workspace of the enumeration paths: an
// object-indexed assignment vector, a term argument vector, the level
// arrays and var lists of up to four nested walks, the id-mode gather
// buffer, the new term/pair values of the last recompute, a term walk's
// swept values, the per-level moment workspace of the start walk, and
// the extension walk's accumulators.
// Work items fully overwrite the slots they read, so reusing a
// workspace across items never changes a result.
type evScratch struct {
	x     []float64
	args  []float64
	walks [4]odometer
	buf   []float64
	// termNew and pairNew hold the values State.recompute computed,
	// aligned with varTerms[o] and varPairs[o].
	termNew, pairNew []float64
	// A term walk's sweep output: the term at each value of the swept
	// (last uncleaned) level.
	swept []float64
	// Start-walk workspace (see singletonTerm), indexed by the walk's
	// inner level: conditional first/second moment rows, grown to the
	// level's support size, and one Kahan accumulator per level.
	m1, m2 [][]float64
	acc    []numeric.KahanAcc
	// Extension-walk workspace (see extendTerm): its requests, the Kahan
	// moment pairs of the current outer outcome, every group's
	// conditional variance, and the results.
	ext      []extReq
	moments  []numeric.KahanAcc
	groupVar []float64
	extOut   []float64
}

func newEvScratch(n int) *evScratch {
	return &evScratch{
		x:   make([]float64, n),
		buf: make([]float64, 0, 32),
	}
}

// scratchPool lazily allocates one workspace per parallel worker. The
// pool is sized for the worker count at creation; each slot is owned
// by exactly one worker goroutine at a time.
type scratchPool struct {
	n int
	s []*evScratch
}

func newScratchPool(n int) *scratchPool {
	return &scratchPool{n: n, s: make([]*evScratch, parallel.Workers())}
}

func (p *scratchPool) get(worker int) *evScratch {
	if worker < 0 || worker >= len(p.s) {
		// The slot slice was sized for the worker count at pool
		// creation; a wider pool at execution time (CLEANSEL_WORKERS
		// re-read between construction and run, or a caller-supplied
		// wider pool) would index past it. Hand such a spill worker a
		// fresh unpooled workspace instead: growing p.s here would race
		// with the other workers, and scratch contents never affect
		// results, so the only cost is a lost reuse.
		return newEvScratch(p.n)
	}
	if p.s[worker] == nil {
		p.s[worker] = newEvScratch(p.n)
	}
	return p.s[worker]
}

// evMiss is one uncached term/pair contribution to an EV call.
type evMiss struct {
	i         int // term or pair index
	mask      uint64
	cacheable bool
}

// memoValues returns one family of EV contributions for the cleaned
// mask: the terms' variances or the pairs' covariances. Entry i depends
// on the variables vars(i); its value comes from memo, and otherwise
// from walk, which computes the misses on the worker pool. On an engine
// over a SharedEVCache, each lookup of a cacheable entry with a
// signature (sig(i) != "") counts as a shared hit or miss.
func (e *GroupEngine) memoValues(ctx context.Context, cleaned []bool, memo []map[uint64]float64,
	vars func(i int) []int, sig func(i int) string, walk func(i int, sc *evScratch) float64) ([]float64, error) {
	vals := make([]float64, len(memo))
	var misses []evMiss
	var sharedHits, sharedMisses int64
	e.mu.Lock()
	for i := range memo {
		mask, ok := localMask(vars(i), cleaned)
		if !ok {
			misses = append(misses, evMiss{i: i})
			continue
		}
		v, hit := memo[i][mask]
		if e.shared != nil && sig(i) != "" {
			if hit {
				sharedHits++
			} else {
				sharedMisses++
			}
		}
		if hit {
			vals[i] = v
			continue
		}
		misses = append(misses, evMiss{i: i, mask: mask, cacheable: true})
	}
	if e.shared != nil {
		e.shared.hits += uint64(sharedHits)
		e.shared.misses += uint64(sharedMisses)
	}
	e.mu.Unlock()
	// Write-only trace ticks: the recorder never feeds back into the
	// computation, so recorded and unrecorded runs are bit-identical.
	rec := obs.FromContext(ctx)
	rec.Add("ev_cache_hits", int64(len(memo)-len(misses)))
	rec.Add("ev_cache_misses", int64(len(misses)))
	if e.shared != nil {
		rec.Add("ev_shared_hits", sharedHits)
		rec.Add("ev_shared_misses", sharedMisses)
	}
	if len(misses) == 0 {
		return vals, nil
	}
	pool := newScratchPool(e.db.N())
	if err := parallel.For(ctx, len(misses), func(worker, j int) error {
		i := misses[j].i
		vals[i] = walk(i, pool.get(worker))
		return nil
	}); err != nil {
		return nil, err
	}
	e.mu.Lock()
	for _, m := range misses {
		if m.cacheable {
			memoStore(memo, m.i, m.mask, vals[m.i])
		}
	}
	e.mu.Unlock()
	return vals, nil
}

// EV computes the objective from scratch for the subset T, memoizing each
// term's contribution by the cleaned-mask restricted to its variables.
// Safe for concurrent use; uncached contributions are computed on the
// parallel worker pool.
func (e *GroupEngine) EV(T model.Set) float64 {
	v, err := e.EVCtx(context.Background(), T)
	if err != nil {
		// Background is never cancelled and no other error exists on
		// this path; keep the legacy no-error signature honest.
		panic(err)
	}
	return v
}

// EVCtx is EV with cooperative cancellation: it returns the context's
// error as soon as the current term/pair contribution finishes. The
// summation order is fixed (terms ascending, then pairs ascending), so
// the value is bit-identical for every worker count.
func (e *GroupEngine) EVCtx(ctx context.Context, T model.Set) (float64, error) {
	rec := obs.FromContext(ctx)
	rec.Add("ev_calls", 1)
	cleaned := make([]bool, e.db.N())
	for _, i := range T {
		cleaned[i] = true
	}
	termVals, err := e.memoValues(ctx, cleaned, e.termCache,
		func(k int) []int { return e.terms[k].Vars },
		func(k int) string { return e.terms[k].Sig },
		func(k int, sc *evScratch) float64 {
			rec.Add("ev_term_walks", 1)
			return e.termEV(e.dists, k, cleaned, sc)
		})
	if err != nil {
		return 0, err
	}
	pairVals, err := e.memoValues(ctx, cleaned, e.pairCache,
		func(pi int) []int { return e.pairs[pi].union },
		func(pi int) string { return e.pairs[pi].sig },
		func(pi int, sc *evScratch) float64 { return e.pairEV(e.dists, pi, cleaned, sc) })
	if err != nil {
		return 0, err
	}
	var acc numeric.KahanAcc
	for _, v := range termVals {
		acc.Add(v)
	}
	for _, v := range pairVals {
		acc.Add(2 * v)
	}
	v := acc.Value()
	if v < 0 {
		v = 0
	}
	return v, nil
}

// Variance returns EV(∅) = Var[f(X)].
func (e *GroupEngine) Variance() float64 { return e.EV(nil) }

// CondMoments returns the conditional mean and variance of f(X) given
// X_i = values[i] for every i with known[i] — the posterior a fact-checker
// holds after cleaning reveals true values (used by the §4.3 "in action"
// experiments). The conditioning is implemented by substituting point
// masses for the known objects.
func (e *GroupEngine) CondMoments(values []float64, known []bool) (mean, variance float64) {
	ds := make([]*dist.Discrete, len(e.dists))
	copy(ds, e.dists)
	for i, k := range known {
		if k {
			ds[i] = dist.PointMass(values[i])
		}
	}
	sc := newEvScratch(e.db.N())
	noClean := make([]bool, e.db.N())
	var mAcc, vAcc numeric.KahanAcc
	mAcc.Add(e.g.Const)
	for k := range e.terms {
		var m1 numeric.KahanAcc
		newOdometer(ds, sc.x, e.terms[k].Vars).each(func(p float64) {
			m1.Add(p * e.evalTerm(k, sc.x, sc))
		})
		mAcc.Add(m1.Value())
		vAcc.Add(e.termEV(ds, k, noClean, sc))
	}
	for pi := range e.pairs {
		vAcc.Add(2 * e.pairEV(ds, pi, noClean, sc))
	}
	variance = vAcc.Value()
	if variance < 0 {
		variance = 0
	}
	return mAcc.Value(), variance
}

// State tracks EV(T) incrementally while a greedy algorithm grows T.
// Cleaning an object only dirties the terms and pairs that reference it,
// so deltas cost work proportional to the object's local claim structure
// rather than the whole query.
//
// A State writes the values it computes through to its engine's memo:
// the initial per-term and per-pair values, each extended term value
// DeltasCtx computes, and each value Clean commits. A memo entry is a
// pure function of its term and that term's cleaned mask, so a later
// EVCtx(T) on the engine, or a later delta of the State itself, reads
// the values the greedy already computed, bit for bit. A State itself
// is not safe for concurrent use; its engine stays safe for concurrent
// EV calls.
type State struct {
	e       *GroupEngine
	cleaned []bool
	termEV  []float64
	pairEV  []float64
	total   float64
	// pool holds one workspace per parallel worker; sequential
	// operations use slot 0.
	pool *scratchPool
	// rec is the recorder NewStateCtx was given; Delta and Clean, which
	// take no context, count their walks on it.
	rec *obs.Recorder
}

// NewState is NewStateCtx without a context, returning only the State.
func (e *GroupEngine) NewState() *State {
	s, _, err := e.NewStateCtx(context.Background())
	if err != nil {
		panic(err) // Background is never cancelled; no other error exists
	}
	return s
}

// NewStateCtx builds the incremental state at T = ∅ on the parallel
// worker pool and returns it with every object's singleton benefit
// EV(∅) − EV({o}). One start walk per term (singletonTerm) yields the
// term's variance and its singleton drops, and the pair covariances
// follow; every value is stored in the engine's memo. The benefits sum
// each term's drops, plus, for an object in overlapping pairs, the
// change of its pairs' covariances. Reductions run in index order, so
// the state and the benefits are bit-identical for every worker count.
func (e *GroupEngine) NewStateCtx(ctx context.Context) (*State, []float64, error) {
	s, drops, err := e.newState(ctx)
	if err != nil {
		return nil, nil, err
	}
	singles, err := s.singletons(ctx, drops)
	if err != nil {
		return nil, nil, err
	}
	return s, singles, nil
}

// newState builds the State at T = ∅ and returns it with the start
// walks' drops: drops[k][j] is the drop in term k's variance when its
// j-th var (declaration order) is cleaned.
func (e *GroupEngine) newState(ctx context.Context) (*State, [][]float64, error) {
	rec := obs.FromContext(ctx)
	defer rec.Span("ev_state_init")()
	s := &State{
		e:       e,
		cleaned: make([]bool, e.db.N()),
		termEV:  make([]float64, len(e.terms)),
		pool:    newScratchPool(e.db.N()),
		rec:     rec,
	}
	drops := make([][]float64, len(e.terms))
	if err := parallel.For(ctx, len(e.terms), func(worker, k int) error {
		s.termEV[k], drops[k] = e.singletonTerm(k, s.cleaned, s.pool.get(worker))
		rec.Add("ev_term_walks", 1)
		return nil
	}); err != nil {
		return nil, nil, err
	}
	pairEV, err := parallel.Map(ctx, len(e.pairs), func(worker, pi int) (float64, error) {
		return e.pairEV(e.dists, pi, s.cleaned, s.pool.get(worker)), nil
	})
	if err != nil {
		return nil, nil, err
	}
	s.pairEV = pairEV
	e.mu.Lock()
	for k, v := range s.termEV {
		memoize(e.termCache, k, e.terms[k].Vars, s.cleaned, v)
	}
	for pi, v := range pairEV {
		memoize(e.pairCache, pi, e.pairs[pi].union, s.cleaned, v)
	}
	e.mu.Unlock()
	var acc numeric.KahanAcc
	for k := range s.termEV {
		acc.Add(s.termEV[k])
	}
	for pi := range s.pairEV {
		acc.Add(2 * s.pairEV[pi])
	}
	s.total = acc.Value()
	return s, drops, nil
}

// singletons returns the singleton benefits of the fresh State s: the
// start walks' drops, added in term order and within a term in
// declaration order, then each object's change in its pairs'
// covariances, objects visited in pair order. The pair pass flips
// s.cleaned in place, so it stays sequential (pair structure is sparse;
// the start walks dominate).
func (s *State) singletons(ctx context.Context, drops [][]float64) ([]float64, error) {
	defer obs.FromContext(ctx).Span("singleton_benefits")()
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	e := s.e
	benefits := make([]float64, e.db.N())
	for k, d := range drops {
		for j, v := range e.terms[k].Vars {
			benefits[v] += d[j]
		}
	}
	if len(e.pairs) > 0 {
		sc := s.pool.get(0)
		seen := map[int]bool{}
		for _, p := range e.pairs {
			for _, v := range p.union {
				if seen[v] {
					continue
				}
				if err := ctx.Err(); err != nil {
					return nil, context.Cause(ctx)
				}
				seen[v] = true
				s.cleaned[v] = true
				for _, pi := range e.varPairs[v] {
					nv := e.pairEV(e.dists, pi, s.cleaned, sc)
					benefits[v] += 2 * (s.pairEV[pi] - nv)
				}
				s.cleaned[v] = false
			}
		}
	}
	for i := range benefits {
		if benefits[i] < 0 {
			benefits[i] = 0
		}
	}
	return benefits, nil
}

// EV returns the current objective value EV(T).
func (s *State) EV() float64 {
	if s.total < 0 {
		return 0
	}
	return s.total
}

// Delta returns EV(T ∪ {o}) − EV(T) without committing (≤ 0 by
// Lemma 3.4). Cleaning an already-cleaned object has delta 0.
func (s *State) Delta(o int) float64 {
	if s.cleaned[o] {
		return 0
	}
	return s.recompute(o, s.rec)
}

// DeltasCtx returns Delta(o) for every o in objs, bit-identical to
// calling Delta on each object in turn, at every worker count. It
// first computes the extended term values the memo lacks, one
// extension walk per term (extendTerm) fanned out over the terms, and
// writes them through to the memo. It then sums each object's delta
// on the caller, in objs order, checking the context between objects:
// its term values are memo hits, and its pair covariances and any term
// too wide to cache are walked there.
func (s *State) DeltasCtx(ctx context.Context, objs []int) ([]float64, error) {
	if err := s.extend(ctx, objs); err != nil {
		return nil, err
	}
	rec := obs.FromContext(ctx)
	deltas := make([]float64, len(objs))
	for i, o := range objs {
		if err := ctx.Err(); err != nil {
			return nil, context.Cause(ctx)
		}
		if !s.cleaned[o] {
			deltas[i] = s.recompute(o, rec)
		}
	}
	return deltas, nil
}

// extend puts EV_k(T ∪ {o}) in the memo for every term k of every
// uncleaned o in objs: it groups the values the memo lacks by term and
// computes each term's with one extension walk, the terms fanned out
// over the worker pool, each writing its values through under the
// engine's lock. Terms too wide to cache are left to recompute.
func (s *State) extend(ctx context.Context, objs []int) error {
	e := s.e
	// termReq asks for term k's value with object o cleaned as well.
	type termReq struct{ k, o int }
	var reqs []termReq
	e.mu.Lock()
	for _, o := range objs {
		if s.cleaned[o] {
			continue
		}
		for _, k := range e.varTerms[o] {
			mask, ok := localMask(e.terms[k].Vars, s.cleaned)
			if !ok {
				continue
			}
			if _, hit := e.termCache[k][mask|varBit(e.terms[k].Vars, o)]; !hit {
				reqs = append(reqs, termReq{k: k, o: o})
			}
		}
	}
	e.mu.Unlock()
	slices.SortFunc(reqs, func(x, y termReq) int {
		if c := cmp.Compare(x.k, y.k); c != 0 {
			return c
		}
		return cmp.Compare(x.o, y.o)
	})
	// One work item per term: the term and the objects to extend it by.
	type termWork struct {
		k  int
		vs []int
	}
	var work []termWork
	for _, r := range slices.Compact(reqs) {
		if n := len(work); n == 0 || work[n-1].k != r.k {
			work = append(work, termWork{k: r.k})
		}
		w := &work[len(work)-1]
		w.vs = append(w.vs, r.o)
	}
	rec := obs.FromContext(ctx)
	return parallel.For(ctx, len(work), func(worker, i int) error {
		k, vs := work[i].k, work[i].vs
		vals := e.extendTerm(k, s.cleaned, vs, s.pool.get(worker))
		rec.Add("ev_term_walks", 1)
		vars := e.terms[k].Vars
		mask, _ := localMask(vars, s.cleaned)
		e.mu.Lock()
		for j, v := range vs {
			memoStore(e.termCache, k, mask|varBit(vars, v), vals[j])
		}
		e.mu.Unlock()
		return nil
	})
}

// varBit returns the local-mask bit of object v in vars.
func varBit(vars []int, v int) uint64 {
	for i, w := range vars {
		if w == v {
			return 1 << uint(i)
		}
	}
	return 0
}

// Clean commits object o into T, writes the recomputed term and pair
// values through to the engine's memo, and returns the achieved delta.
func (s *State) Clean(o int) float64 {
	if s.cleaned[o] {
		return 0
	}
	e := s.e
	delta := s.recompute(o, s.rec)
	sc := s.pool.get(0)
	s.cleaned[o] = true
	e.mu.Lock()
	for j, k := range e.varTerms[o] {
		s.termEV[k] = sc.termNew[j]
		memoize(e.termCache, k, e.terms[k].Vars, s.cleaned, sc.termNew[j])
	}
	for j, pi := range e.varPairs[o] {
		s.pairEV[pi] = sc.pairNew[j]
		memoize(e.pairCache, pi, e.pairs[pi].union, s.cleaned, sc.pairNew[j])
	}
	e.mu.Unlock()
	s.total += delta
	return delta
}

// recompute evaluates the terms and pairs of o with o added to the
// cleaned set, leaves the new values in slot 0's termNew and pairNew
// (aligned with varTerms[o] and varPairs[o]), and returns their total
// change. A term value the memo holds is read, not walked; each walk
// ticks rec. s.cleaned is restored before it returns.
func (s *State) recompute(o int, rec *obs.Recorder) float64 {
	e := s.e
	sc := s.pool.get(0)
	s.cleaned[o] = true
	sc.termNew, sc.pairNew = sc.termNew[:0], sc.pairNew[:0]
	var acc numeric.KahanAcc
	for _, k := range e.varTerms[o] {
		nv, hit := e.memoTerm(k, s.cleaned)
		if !hit {
			nv = e.termEV(e.dists, k, s.cleaned, sc)
			rec.Add("ev_term_walks", 1)
		}
		sc.termNew = append(sc.termNew, nv)
		acc.Add(nv - s.termEV[k])
	}
	for _, pi := range e.varPairs[o] {
		nv := e.pairEV(e.dists, pi, s.cleaned, sc)
		sc.pairNew = append(sc.pairNew, nv)
		acc.Add(2 * (nv - s.pairEV[pi]))
	}
	s.cleaned[o] = false
	return acc.Value()
}

// memoTerm returns term k's memo value at the cleaned mask, if any.
func (e *GroupEngine) memoTerm(k int, cleaned []bool) (float64, bool) {
	mask, ok := localMask(e.terms[k].Vars, cleaned)
	if !ok {
		return 0, false
	}
	e.mu.Lock()
	v, hit := e.termCache[k][mask]
	e.mu.Unlock()
	return v, hit
}

// Affected returns the object IDs (other than o itself) whose Delta may
// change when o is cleaned: every object sharing a term or an overlapping
// pair with o. Lazy-greedy selectors use it to invalidate cached benefits.
func (s *State) Affected(o int) []int {
	seen := map[int]struct{}{}
	for _, k := range s.e.varTerms[o] {
		for _, v := range s.e.terms[k].Vars {
			seen[v] = struct{}{}
		}
	}
	for _, pi := range s.e.varPairs[o] {
		for _, v := range s.e.pairs[pi].union {
			seen[v] = struct{}{}
		}
	}
	delete(seen, o)
	out := make([]int, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	sort.Ints(out)
	return out
}
