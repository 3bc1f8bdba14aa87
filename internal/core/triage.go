package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"github.com/factcheck/cleansel/internal/claims"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/parallel"
)

// Report is a claim quality assessment: the three §2.2 measures at the
// current values plus their variances under the error model, the
// diagnostics a fact-checker starts from. The root package exports it as
// QualityReport; it is defined here so the triage machinery can live
// below the public API.
type Report struct {
	Bias          float64 // bias at current values (negative = exaggeration)
	BiasVariance  float64
	Duplicity     int // perturbations at least as strong as the claim
	DupVariance   float64
	Fragility     float64
	FragVariance  float64
	Perturbations int
}

// TriageContext amortizes claim assessment over one database: the
// discretized view, the current-value vector, and a cross-engine EV
// cache are built once and reused for every claim assessed through it.
// It is the only code that picks an assessment's discrete view, and
// AssessBatch is the only assessment routine: a standalone assessment is
// a batch of one. Assessing N related claims through one context costs
// far less than N independent assessments, and — because every reuse is
// exact (cached values are the outputs of the identical enumerations a
// cold assessment would run) — each claim's Report is bit-identical to
// what a standalone assessment produces, regardless of batch
// composition, assessment order, or worker count.
//
// Safe for concurrent use; AssessBatch may be called freely from
// multiple goroutines.
type TriageContext struct {
	db     *model.DB
	work   *model.DB // discrete view: db itself, or its k-point discretization
	u      []float64 // current values of db, computed once
	shared *ev.SharedEVCache

	// reports memoizes finished assessments by claims.Set signature, so
	// a renamed copy of an already-assessed claim is served without
	// touching the engines at all.
	mu      sync.Mutex
	reports map[string]Report
}

// DiscretizationPoints is the default equal-probability grid onto which
// normal value models are discretized (the §4.2 convention is 6 for
// single-series CDC data).
const DiscretizationPoints = 6

// MaxDiscretize is the largest point count a discrete view accepts. The
// paper discretizes normal value models onto 4 and 6 points; at 1024 a
// discretized object holds 24 KB.
const MaxDiscretize = 1024

// CheckDiscretize rejects a point count outside [0, MaxDiscretize]
// (0 asks for the default), before anything is allocated for it.
func CheckDiscretize(k int) error {
	if k < 0 || k > MaxDiscretize {
		return fmt.Errorf("discretize %d is outside [0, %d]", k, MaxDiscretize)
	}
	return nil
}

// DiscreteView returns db itself when every value model is discrete,
// and otherwise db.Discretized(points), each normal model replaced by
// its points-value equal-probability grid (0 means
// DiscretizationPoints). A point count outside [0, MaxDiscretize] is an
// error.
func DiscreteView(db *model.DB, points int) (*model.DB, error) {
	if err := CheckDiscretize(points); err != nil {
		return nil, err
	}
	if _, err := db.Discretes(); err == nil {
		return db, nil
	}
	if points == 0 {
		points = DiscretizationPoints
	}
	return db.Discretized(points), nil
}

// NewTriageContext compiles the dataset-level assessment state. The
// bias variance is exact over db; the duplicity and fragility variances
// are computed over DiscreteView(db, points).
func NewTriageContext(db *model.DB, points int) (*TriageContext, error) {
	if db == nil {
		return nil, errors.New("core: triage needs a database")
	}
	work, err := DiscreteView(db, points)
	if err != nil {
		return nil, err
	}
	return &TriageContext{
		db:      db,
		work:    work,
		u:       db.Currents(),
		shared:  ev.NewSharedEVCache(),
		reports: make(map[string]Report),
	}, nil
}

// Assessed returns the number of distinct claims (by signature) the
// context has assessed successfully.
func (tc *TriageContext) Assessed() int {
	tc.mu.Lock()
	defer tc.mu.Unlock()
	return len(tc.reports)
}

// SharedStats reports the cross-engine EV cache's lifetime hit/miss
// counts (observability only; never feeds back into results).
func (tc *TriageContext) SharedStats() (hits, misses uint64) { return tc.shared.Stats() }

// assessOne is the single-claim assessment: bias and duplicity at
// current values, the modular bias variance over the original database,
// and the duplicity/fragility expected variances over the discrete view,
// their engines built over the shared cache.
func (tc *TriageContext) assessOne(ctx context.Context, set *claims.Set) (Report, error) {
	rep := Report{Perturbations: set.M()}
	bias := set.Bias()
	rep.Bias = bias.Eval(tc.u)
	mod, err := ev.NewModular(tc.db, bias)
	if err != nil {
		return Report{}, err
	}
	rep.BiasVariance = mod.Variance()
	rep.Duplicity = set.DupValue(tc.u)
	dupEng, err := ev.NewGroupEngineShared(tc.work, set.Dup(), tc.shared)
	if err != nil {
		return Report{}, err
	}
	if rep.DupVariance, err = dupEng.EVCtx(ctx, nil); err != nil {
		return Report{}, err
	}
	frag := set.Frag()
	rep.Fragility = frag.Eval(tc.u)
	fragEng, err := ev.NewGroupEngineShared(tc.work, frag, tc.shared)
	if err != nil {
		return Report{}, err
	}
	if rep.FragVariance, err = fragEng.EVCtx(ctx, nil); err != nil {
		return Report{}, err
	}
	return rep, nil
}

// AssessBatch assesses every set, deduplicating by signature first
// (each distinct claim is assessed once, duplicates copy its report)
// and fanning the distinct claims out over the parallel worker pool.
//
// The returned slices parallel sets: reports[i] is valid iff
// errs[i] == nil. A malformed claim fails alone — its error lands in
// errs[i] (and in every duplicate's slot) without poisoning the batch.
// The error return is reserved for batch-fatal conditions, i.e. ctx
// cancellation, after in-flight workers have drained.
func (tc *TriageContext) AssessBatch(ctx context.Context, sets []*claims.Set) (reports []Report, errs []error, err error) {
	reports = make([]Report, len(sets))
	errs = make([]error, len(sets))
	// Dedup pass: representative index per signature, in first-occurrence
	// order so work order (and therefore every trace and result) is a
	// pure function of the request.
	repOf := make([]int, len(sets))
	sigs := make([]string, len(sets))
	firstOf := make(map[string]int, len(sets))
	var uniq []int
	var memoHits, dupHits int64
	tc.mu.Lock()
	for i, s := range sets {
		if s == nil {
			errs[i] = errors.New("core: triage needs a perturbation set")
			repOf[i] = -1
			continue
		}
		sig := s.Signature()
		sigs[i] = sig
		if j, ok := firstOf[sig]; ok {
			repOf[i] = j
			dupHits++
			continue
		}
		firstOf[sig] = i
		repOf[i] = i
		if rep, ok := tc.reports[sig]; ok {
			reports[i] = rep
			memoHits++
			continue
		}
		uniq = append(uniq, i)
	}
	tc.mu.Unlock()
	obs.FromContext(ctx).Add("triage_dedup_hits", dupHits+memoHits)
	if err := parallel.For(ctx, len(uniq), func(worker, k int) error {
		i := uniq[k]
		rep, aerr := tc.assessOne(ctx, sets[i])
		if aerr != nil {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			errs[i] = aerr
			return nil
		}
		reports[i] = rep
		return nil
	}); err != nil {
		return nil, nil, err
	}
	// Memoize successes, then scatter representatives to duplicates.
	tc.mu.Lock()
	for _, i := range uniq {
		if errs[i] == nil {
			tc.reports[sigs[i]] = reports[i]
		}
	}
	tc.mu.Unlock()
	for i, j := range repOf {
		if j < 0 || j == i {
			continue
		}
		if errs[j] != nil {
			errs[i] = errs[j]
			continue
		}
		reports[i] = reports[j]
	}
	return reports, errs, nil
}
