package ev

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/numeric"
	"github.com/factcheck/cleansel/internal/query"
)

// Entropy computes the *entropy*-based analogue of EV(T),
//
//	EH(T) = Σ_v Pr[X_T = v] · H(f(X) | X_T = v),
//
// the uncertainty measure behind PWS-quality-style cleaning objectives
// (§5 related work: Cheng et al.). The paper argues expected variance
// suits fact-checking better because the *magnitude* of the deviation
// matters for numeric claims, while entropy only counts outcome spread;
// this engine exists so that claim can be tested rather than asserted —
// see the divergence test and the ablation bench.
//
// Entropy has no Theorem 3.8-style decomposition (it is not additive over
// independent summands), so the engine enumerates the joint support of
// the referenced objects. Use it on small workloads.
type Entropy struct {
	db    *model.DB
	dists []*dist.Discrete
	f     query.Function
	vars  []int
}

// NewEntropy builds the engine for independent discrete values.
func NewEntropy(db *model.DB, f query.Function) (*Entropy, error) {
	if db.Cov != nil {
		return nil, errors.New("ev: Entropy requires independent values")
	}
	ds, err := db.Discretes()
	if err != nil {
		return nil, fmt.Errorf("ev: Entropy: %w", err)
	}
	return &Entropy{db: db, dists: ds, f: f, vars: f.Vars()}, nil
}

// maxEntropyStates bounds the buffered one-pass pmf accumulation: a
// conditional support up to 2^20 states (16 MiB of pooled scratch)
// buffers every (outcome, probability) pair from a single enumeration;
// anything larger takes the legacy two-pass route, which never
// materializes the product state space.
const maxEntropyStates = 1 << 20

// entropyScratch buffers the outcome stream of one conditional pmf so a
// single enumeration can both size the pooling grid and accumulate the
// distribution. Pooled across EV calls; every slot is appended fresh
// before it is read.
type entropyScratch struct {
	vals, probs []float64
}

var entropyScratchPool = sync.Pool{New: func() any { return new(entropyScratch) }}

// EV implements Engine with the entropy objective (the name keeps the
// Engine interface; the unit is nats, not variance).
func (e *Entropy) EV(T model.Set) float64 {
	return e.ev(T, maxEntropyStates)
}

// ev is EV with the buffered-path threshold injected so tests can force
// the legacy two-pass route (maxStates 0) and pin the two bit-identical.
func (e *Entropy) ev(T model.Set, maxStates int) float64 {
	inT := make([]bool, e.db.N())
	for _, i := range T {
		inT[i] = true
	}
	var cleanVars, freeVars []int
	for _, v := range e.vars {
		if inT[v] {
			cleanVars = append(cleanVars, v)
		} else {
			freeVars = append(freeVars, v)
		}
	}
	// Conditional support size, saturating past the buffer cap.
	states := 1
	for _, v := range freeVars {
		size := e.dists[v].Size()
		if size > 0 && states > maxStates/size {
			states = maxStates + 1
			break
		}
		states *= size
	}
	var sc *entropyScratch
	if states <= maxStates {
		sc = entropyScratchPool.Get().(*entropyScratch)
		defer entropyScratchPool.Put(sc)
	}
	x := make([]float64, e.db.N())
	free := newOdometer(e.dists, x, freeVars)
	var acc numeric.KahanAcc
	newOdometer(e.dists, x, cleanVars).each(func(pT float64) {
		// Conditional distribution of f over the free variables. The
		// pooling grid must be sized to the magnitude f actually
		// reaches (the same scale-aware quantization dist.WeightedSum
		// convolves on; for |f| ≤ numeric.QuantizeMaxAbs the grid — and
		// therefore the entropy — is bit-identical to the legacy fixed
		// 1e-9 keys), so the reach has to be known before pooling.
		var h float64
		if sc != nil {
			// One-pass route: buffer every (outcome, probability) pair
			// from a single enumeration — halving the f.Eval calls —
			// then take the reach from the buffer (same comparison
			// sequence as the legacy scan) and pool through the shared
			// dense-or-map kernel. Bit-identical to the two-pass route
			// below: same outcomes, same accumulation order, same
			// ascending-key traversal.
			vals, probs := sc.vals[:0], sc.probs[:0]
			for p, ok := free.first(); ok; p, ok = free.next() {
				vals = append(vals, e.f.Eval(x))
				probs = append(probs, p)
			}
			sc.vals, sc.probs = vals, probs
			var reach float64
			for _, v := range vals {
				if a := math.Abs(v); a > reach {
					reach = a
				}
			}
			_, masses := dist.PoolPMF(numeric.GridFor(reach), vals, probs)
			for _, p := range masses {
				if p > 0 {
					h -= p * math.Log(p)
				}
			}
		} else {
			// Legacy two-pass route for supports past the buffer cap:
			// evaluating f twice per state keeps the memory at the
			// number of *distinct* outcomes, never the raw product
			// state space.
			var reach float64
			for _, ok := free.first(); ok; _, ok = free.next() {
				if a := math.Abs(e.f.Eval(x)); a > reach {
					reach = a
				}
			}
			grid := numeric.GridFor(reach)
			pmf := map[int64]float64{}
			for p, ok := free.first(); ok; p, ok = free.next() {
				pmf[grid.Key(e.f.Eval(x))] += p
			}
			for _, k := range numeric.SortedKeys(pmf) {
				if p := pmf[k]; p > 0 {
					h -= p * math.Log(p)
				}
			}
		}
		acc.Add(pT * h)
	})
	v := acc.Value()
	if v < 0 {
		v = 0
	}
	return v
}

// Variance is a misnomer kept for Engine symmetry: it returns EH(∅), the
// prior entropy of f(X).
func (e *Entropy) Variance() float64 { return e.EV(nil) }
