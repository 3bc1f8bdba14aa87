package ev

import (
	"context"
	"errors"
	"fmt"
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

	terms []termInfo
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
	mu        sync.Mutex
	termCache []map[uint64]float64
	pairCache []map[uint64]float64

	// shared, when non-nil, is a second cache tier consulted after the
	// local one, keyed by term signatures so engines compiled from
	// different claims over the same database reuse each other's
	// enumerations (see SharedEVCache).
	shared *SharedEVCache
}

type termInfo struct {
	vars []int
	eval func([]float64) float64
	sig  string // canonical signature ("" = unshareable)
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
	for _, t := range g.Terms {
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
		// Terms must receive values in their declared order; keep the
		// original order for evaluation but track sorted vars for set math.
		e.terms = append(e.terms, termInfo{vars: t.Vars, eval: t.Eval, sig: t.Sig})
	}
	// Index terms per object and find overlapping pairs.
	for k, t := range e.terms {
		for _, v := range t.vars {
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
	for _, v := range e.terms[k].vars {
		inK[v] = true
	}
	p := pairInfo{k: k, l: l}
	inShared := map[int]bool{}
	for _, v := range e.terms[l].vars {
		if inK[v] {
			p.shared = append(p.shared, v)
			inShared[v] = true
		}
	}
	for _, v := range e.terms[k].vars {
		if !inShared[v] {
			p.onlyK = append(p.onlyK, v)
		}
	}
	for _, v := range e.terms[l].vars {
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
	if sk, sl := e.terms[k].sig, e.terms[l].sig; sk != "" && sl != "" {
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
	for _, v := range t.vars {
		buf = append(buf, x[v])
	}
	sc.buf = buf
	return t.eval(buf)
}

// termEV returns Σ_a Pr[a]·Var[g_k | X_{R_k∩T} = a] for term k given the
// cleaned mask, enumerating with the provided distributions. Both walks
// write straight into the term's argument vector.
func (e *GroupEngine) termEV(dists []*dist.Discrete, k int, cleaned []bool, sc *evScratch) float64 {
	t := &e.terms[k]
	args := sc.termArgs(len(t.vars))
	a, b := &sc.walks[0], &sc.walks[1]
	splitTerm(t.vars, cleaned, a, b)
	a.bind(dists, args)
	b.bind(dists, args)
	var acc numeric.KahanAcc
	for pa, ok := a.first(); ok; pa, ok = a.next() {
		var m1, m2 numeric.KahanAcc
		for p, ok := b.first(); ok; p, ok = b.next() {
			v := t.eval(args)
			m1.Add(p * v)
			m2.Add(p * v * v)
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
				mk.Add(pb * e.evalTerm(p.k, sc.x, sc))
			}
			for pb, ok := bl.first(); ok; pb, ok = bl.next() {
				ml.Add(pb * e.evalTerm(p.l, sc.x, sc))
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

// evScratch is the per-worker workspace of the enumeration paths: an
// object-indexed assignment vector, a term argument vector, the level
// arrays and var lists of up to four nested walks, the id-mode gather
// buffer, a private cleaned mask for the parallel refresh, the new
// term/pair values of the last recompute, and the per-object moment
// workspace of the singleton-benefit pass. Work items fully overwrite
// the slots they read, so reusing a workspace across items never
// changes a result.
type evScratch struct {
	x     []float64
	args  []float64
	walks [4]odometer
	buf   []float64
	// mask is a private copy of a State's cleaned set, valid while
	// maskGen equals the State's generation (see State.DeltasCtx).
	mask    []bool
	maskGen int
	// termNew and pairNew hold the values State.recompute computed,
	// aligned with varTerms[o] and varPairs[o].
	termNew, pairNew []float64
	// Flattened singleton-benefit workspace, indexed by object id:
	// conditional first/second moment rows (grown to the object's
	// support size on first use) and one Kahan accumulator per object.
	// These replace per-term map[int] allocations whose lookups sat in
	// the innermost per-state loop.
	m1, m2 [][]float64
	acc    []numeric.KahanAcc
}

func newEvScratch(n int) *evScratch {
	return &evScratch{
		x:       make([]float64, n),
		buf:     make([]float64, 0, 32),
		mask:    make([]bool, n),
		maskGen: -1,
		m1:      make([][]float64, n),
		m2:      make([][]float64, n),
		acc:     make([]numeric.KahanAcc, n),
	}
}

// termArgs returns the argument vector grown to a width-w term.
// Contents are stale until a walk writes them.
func (sc *evScratch) termArgs(w int) []float64 {
	if cap(sc.args) < w {
		sc.args = make([]float64, w)
	}
	sc.args = sc.args[:w]
	return sc.args
}

// momentRow returns row v of m grown to size. Contents are stale until
// overwritten — every caller zeroes or assigns before reading.
func momentRow(m [][]float64, v, size int) []float64 {
	if cap(m[v]) < size {
		m[v] = make([]float64, size)
	}
	m[v] = m[v][:size]
	return m[v]
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

// termValues returns every term's contribution for the cleaned mask,
// serving hits from the cache and computing misses on the worker pool.
func (e *GroupEngine) termValues(ctx context.Context, cleaned []bool) ([]float64, error) {
	vals := make([]float64, len(e.terms))
	var misses []evMiss
	e.mu.Lock()
	for k := range e.terms {
		mask, ok := localMask(e.terms[k].vars, cleaned)
		if ok {
			if v, hit := e.termCache[k][mask]; hit {
				vals[k] = v
				continue
			}
			misses = append(misses, evMiss{i: k, mask: mask, cacheable: true})
			continue
		}
		misses = append(misses, evMiss{i: k})
	}
	e.mu.Unlock()
	// Write-only trace ticks: the recorder never feeds back into the
	// computation, so recorded and unrecorded runs are bit-identical.
	if rec := obs.FromContext(ctx); rec != nil {
		rec.Add("ev_cache_hits", int64(len(e.terms)-len(misses)))
		rec.Add("ev_cache_misses", int64(len(misses)))
	}
	if len(misses) == 0 {
		return vals, nil
	}
	// Second tier: values another engine over the same database already
	// enumerated for a signature-identical term.
	compute := misses
	if e.shared != nil {
		sig := func(i int) string { return e.terms[i].sig }
		compute = e.shared.splitShared(e.shared.terms, misses, vals, sig)
		if rec := obs.FromContext(ctx); rec != nil {
			rec.Add("ev_shared_hits", int64(len(misses)-len(compute)))
			rec.Add("ev_shared_misses", int64(len(compute)))
		}
	}
	if len(compute) > 0 {
		pool := newScratchPool(e.db.N())
		if err := parallel.For(ctx, len(compute), func(worker, i int) error {
			sc := pool.get(worker)
			m := compute[i]
			vals[m.i] = e.termEV(e.dists, m.i, cleaned, sc)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	e.mu.Lock()
	for _, m := range misses {
		if m.cacheable {
			memoStore(e.termCache, m.i, m.mask, vals[m.i])
		}
	}
	e.mu.Unlock()
	if e.shared != nil && len(compute) > 0 {
		e.shared.publish(e.shared.terms, compute, vals, func(i int) string { return e.terms[i].sig })
	}
	return vals, nil
}

// pairValues is termValues for the overlapping-pair covariances.
func (e *GroupEngine) pairValues(ctx context.Context, cleaned []bool) ([]float64, error) {
	vals := make([]float64, len(e.pairs))
	var misses []evMiss
	e.mu.Lock()
	for pi := range e.pairs {
		mask, ok := localMask(e.pairs[pi].union, cleaned)
		if ok {
			if v, hit := e.pairCache[pi][mask]; hit {
				vals[pi] = v
				continue
			}
			misses = append(misses, evMiss{i: pi, mask: mask, cacheable: true})
			continue
		}
		misses = append(misses, evMiss{i: pi})
	}
	e.mu.Unlock()
	if rec := obs.FromContext(ctx); rec != nil && len(e.pairs) > 0 {
		rec.Add("ev_cache_hits", int64(len(e.pairs)-len(misses)))
		rec.Add("ev_cache_misses", int64(len(misses)))
	}
	if len(misses) == 0 {
		return vals, nil
	}
	compute := misses
	if e.shared != nil {
		sig := func(i int) string { return e.pairs[i].sig }
		compute = e.shared.splitShared(e.shared.pairs, misses, vals, sig)
		if rec := obs.FromContext(ctx); rec != nil {
			rec.Add("ev_shared_hits", int64(len(misses)-len(compute)))
			rec.Add("ev_shared_misses", int64(len(compute)))
		}
	}
	if len(compute) > 0 {
		pool := newScratchPool(e.db.N())
		if err := parallel.For(ctx, len(compute), func(worker, i int) error {
			sc := pool.get(worker)
			m := compute[i]
			vals[m.i] = e.pairEV(e.dists, m.i, cleaned, sc)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	e.mu.Lock()
	for _, m := range misses {
		if m.cacheable {
			memoStore(e.pairCache, m.i, m.mask, vals[m.i])
		}
	}
	e.mu.Unlock()
	if e.shared != nil && len(compute) > 0 {
		e.shared.publish(e.shared.pairs, compute, vals, func(i int) string { return e.pairs[i].sig })
	}
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
	obs.FromContext(ctx).Add("ev_calls", 1)
	cleaned := make([]bool, e.db.N())
	for _, i := range T {
		cleaned[i] = true
	}
	termVals, err := e.termValues(ctx, cleaned)
	if err != nil {
		return 0, err
	}
	pairVals, err := e.pairValues(ctx, cleaned)
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
		newOdometer(ds, sc.x, e.terms[k].vars).each(func(p float64) {
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
// the initial per-term and per-pair values, and each value Clean
// commits. A memo entry is a pure function of its term and that term's
// cleaned mask, so a later EVCtx(T) on the engine reads the values the
// greedy already computed, bit for bit. A State itself is not safe for
// concurrent use; its engine stays safe for concurrent EV calls.
type State struct {
	e       *GroupEngine
	cleaned []bool
	termEV  []float64
	pairEV  []float64
	total   float64
	// pool holds one workspace per parallel worker; sequential
	// operations use slot 0.
	pool *scratchPool
	// gen counts Clean calls: a worker's private mask copy is current
	// while its maskGen equals gen.
	gen int
}

// NewState returns the incremental state at T = ∅.
func (e *GroupEngine) NewState() *State {
	s, err := e.NewStateCtx(context.Background())
	if err != nil {
		panic(err) // Background is never cancelled; no other error exists
	}
	return s
}

// NewStateCtx builds the incremental state at T = ∅, computing the
// initial per-term variances and per-pair covariances on the parallel
// worker pool and storing them in the engine's memo. The reduction runs
// in index order, so the state is bit-identical for every worker count.
func (e *GroupEngine) NewStateCtx(ctx context.Context) (*State, error) {
	defer obs.FromContext(ctx).Span("ev_state_init")()
	s := &State{
		e:       e,
		cleaned: make([]bool, e.db.N()),
		pool:    newScratchPool(e.db.N()),
	}
	termEV, err := parallel.Map(ctx, len(e.terms), func(worker, k int) (float64, error) {
		return e.termEV(e.dists, k, s.cleaned, s.pool.get(worker)), nil
	})
	if err != nil {
		return nil, err
	}
	pairEV, err := parallel.Map(ctx, len(e.pairs), func(worker, pi int) (float64, error) {
		return e.pairEV(e.dists, pi, s.cleaned, s.pool.get(worker)), nil
	})
	if err != nil {
		return nil, err
	}
	s.termEV, s.pairEV = termEV, pairEV
	e.mu.Lock()
	for k, v := range termEV {
		memoize(e.termCache, k, e.terms[k].vars, s.cleaned, v)
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
	return s, nil
}

// EV returns the current objective value EV(T).
func (s *State) EV() float64 {
	if s.total < 0 {
		return 0
	}
	return s.total
}

// Cleaned reports whether object o is already in T.
func (s *State) Cleaned(o int) bool { return s.cleaned[o] }

// Delta returns EV(T ∪ {o}) − EV(T) without committing (≤ 0 by
// Lemma 3.4). Cleaning an already-cleaned object has delta 0.
func (s *State) Delta(o int) float64 {
	if s.cleaned[o] {
		return 0
	}
	return s.recompute(o, s.pool.get(0), s.cleaned)
}

// DeltasCtx returns Delta(o) for every o in objs, one parallel work
// item per object. Each worker evaluates against its own copy of the
// cleaned mask and its own scratch, so the shared state is only read,
// and the results come back in objs order: bit-identical to calling
// Delta on each object in turn, at every worker count.
func (s *State) DeltasCtx(ctx context.Context, objs []int) ([]float64, error) {
	return parallel.Map(ctx, len(objs), func(worker, i int) (float64, error) {
		o := objs[i]
		if s.cleaned[o] {
			return 0, nil
		}
		sc := s.pool.get(worker)
		if sc.maskGen != s.gen {
			copy(sc.mask, s.cleaned)
			sc.maskGen = s.gen
		}
		return s.recompute(o, sc, sc.mask), nil
	})
}

// Clean commits object o into T, writes the recomputed term and pair
// values through to the engine's memo, and returns the achieved delta.
func (s *State) Clean(o int) float64 {
	if s.cleaned[o] {
		return 0
	}
	e := s.e
	sc := s.pool.get(0)
	delta := s.recompute(o, sc, s.cleaned)
	s.cleaned[o] = true
	s.gen++
	e.mu.Lock()
	for j, k := range e.varTerms[o] {
		s.termEV[k] = sc.termNew[j]
		memoize(e.termCache, k, e.terms[k].vars, s.cleaned, sc.termNew[j])
	}
	for j, pi := range e.varPairs[o] {
		s.pairEV[pi] = sc.pairNew[j]
		memoize(e.pairCache, pi, e.pairs[pi].union, s.cleaned, sc.pairNew[j])
	}
	e.mu.Unlock()
	s.total += delta
	return delta
}

// recompute evaluates the terms and pairs of o with o added to mask,
// leaves the new values in sc.termNew and sc.pairNew (aligned with
// varTerms[o] and varPairs[o]), and returns their total change. mask is
// restored before it returns.
func (s *State) recompute(o int, sc *evScratch, mask []bool) float64 {
	e := s.e
	mask[o] = true
	sc.termNew, sc.pairNew = sc.termNew[:0], sc.pairNew[:0]
	var acc numeric.KahanAcc
	for _, k := range e.varTerms[o] {
		nv := e.termEV(e.dists, k, mask, sc)
		sc.termNew = append(sc.termNew, nv)
		acc.Add(nv - s.termEV[k])
	}
	for _, pi := range e.varPairs[o] {
		nv := e.pairEV(e.dists, pi, mask, sc)
		sc.pairNew = append(sc.pairNew, nv)
		acc.Add(2 * (nv - s.pairEV[pi]))
	}
	mask[o] = false
	return acc.Value()
}

// SingletonBenefits returns, for every object o, the benefit
// EV(T) − EV(T ∪ {o}) of cleaning it next (0 for objects already in T).
// It computes all term contributions in a single enumeration pass per term
// — grouping the joint sweep by each candidate variable's value — which is
// a factor-W speedup over calling Delta per object and the reason large
// Figure-10 instances initialize in seconds.
func (s *State) SingletonBenefits() []float64 {
	b, err := s.SingletonBenefitsCtx(context.Background())
	if err != nil {
		panic(err) // Background is never cancelled; no other error exists
	}
	return b
}

// SingletonBenefitsCtx is SingletonBenefits with the per-term passes
// fanned out over the parallel worker pool and cooperative
// cancellation between work items. Contributions are reduced in term
// order (and within a term in declaration order), exactly as the
// sequential loop accumulates them, so the result is bit-identical
// for every worker count.
func (s *State) SingletonBenefitsCtx(ctx context.Context) ([]float64, error) {
	defer obs.FromContext(ctx).Span("singleton_benefits")()
	e := s.e
	n := e.db.N()
	benefits := make([]float64, n)
	// Term contributions, one pass per term: deltas[j] is the drop in
	// the term's expected variance if its j-th uncleaned var (in
	// declaration order) were cleaned.
	contribs, err := parallel.Map(ctx, len(e.terms), func(worker, k int) ([]float64, error) {
		t := &e.terms[k]
		sc := s.pool.get(worker)
		a, b := &sc.walks[0], &sc.walks[1]
		splitTerm(t.vars, s.cleaned, a, b)
		if len(b.vars) == 0 {
			return nil, nil // fully cleaned term: no one can improve it
		}
		args := sc.termArgs(len(t.vars))
		a.bind(e.dists, args)
		b.bind(e.dists, args)
		// evAfter[v] accumulates Σ_a p_a Σ_val p_val·Var[g | a, X_v=val].
		// The accumulators and moment rows live flat on the worker
		// scratch, indexed by object id: the loops below run in the
		// same order with the same fp operands as the map-keyed
		// original, they just skip the hashing.
		evAfter := sc.acc
		for _, v := range b.vars {
			evAfter[v] = numeric.KahanAcc{}
		}
		m1, m2 := sc.m1, sc.m2
		for _, v := range b.vars {
			momentRow(m1, v, e.dists[v].Size())
			momentRow(m2, v, e.dists[v].Size())
		}
		for pa, ok := a.first(); ok; pa, ok = a.next() {
			for _, v := range b.vars {
				r1, r2 := m1[v], m2[v]
				for j := range r1 {
					r1[j] = 0
					r2[j] = 0
				}
			}
			for pb, ok := b.first(); ok; pb, ok = b.next() {
				g := t.eval(args)
				for lv, v := range b.vars {
					j := b.idx[lv]
					m1[v][j] += pb * g
					m2[v][j] += pb * g * g
				}
			}
			for _, v := range b.vars {
				d := e.dists[v]
				r1, r2 := m1[v], m2[v]
				for j, pv := range d.Probs {
					if pv == 0 {
						continue
					}
					mean := r1[j] / pv
					variance := r2[j]/pv - mean*mean
					if variance < 0 {
						variance = 0
					}
					evAfter[v].Add(pa * pv * variance)
				}
			}
		}
		deltas := make([]float64, len(b.vars))
		for j, v := range b.vars {
			deltas[j] = s.termEV[k] - evAfter[v].Value()
		}
		return deltas, nil
	})
	if err != nil {
		return nil, err
	}
	for k, deltas := range contribs {
		j := 0
		for _, v := range e.terms[k].vars {
			if !s.cleaned[v] {
				benefits[v] += deltas[j]
				j++
			}
		}
	}
	// Pair contributions: recompute per object, but only objects in
	// pairs. This pass flips s.cleaned in place, so it stays sequential
	// (pair structure is sparse; the term passes above dominate).
	if len(e.pairs) > 0 {
		sc := s.pool.get(0)
		seen := map[int]bool{}
		for _, p := range e.pairs {
			for _, v := range p.union {
				if seen[v] || s.cleaned[v] {
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
		if s.cleaned[i] || benefits[i] < 0 {
			benefits[i] = 0
		}
	}
	return benefits, nil
}

// Affected returns the object IDs (other than o itself) whose Delta may
// change when o is cleaned: every object sharing a term or an overlapping
// pair with o. Lazy-greedy selectors use it to invalidate cached benefits.
func (s *State) Affected(o int) []int {
	seen := map[int]struct{}{}
	for _, k := range s.e.varTerms[o] {
		for _, v := range s.e.terms[k].vars {
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
