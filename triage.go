package cleansel

import (
	"context"
	"errors"

	"github.com/factcheck/cleansel/internal/core"
)

// TriageContext amortizes claim assessment over one database for
// claim-stream triage: the discretized view, current values, and a
// cross-claim expected-variance cache are compiled once and reused for
// every claim assessed through the context. Each claim's QualityReport
// is bit-identical to a standalone AssessClaim of the same claim — the
// reuse is exact, never approximate — regardless of batch composition,
// order, or worker count.
type TriageContext struct {
	tc *core.TriageContext
}

// NewTriageContext compiles the dataset-level assessment state. The
// database must be independent; for the duplicity and fragility
// variances, normal value models are discretized with the package
// default (k=6), exactly as AssessClaim does. A database that fails
// DB.Validate is an error, as it is for Select.
func NewTriageContext(db *DB) (*TriageContext, error) {
	if db == nil {
		return nil, errors.New("cleansel: NewTriageContext needs a db")
	}
	if err := db.Validate(); err != nil {
		return nil, err
	}
	tc, err := core.NewTriageContext(db, core.DiscretizationPoints)
	if err != nil {
		return nil, err
	}
	return &TriageContext{tc: tc}, nil
}

// AssessClaim assesses one claim through the shared state: it is
// AssessClaims on a batch of one. Safe for concurrent use.
func (t *TriageContext) AssessClaim(ctx context.Context, set *PerturbationSet) (QualityReport, error) {
	reports, errs, err := t.tc.AssessBatch(ctx, []*PerturbationSet{set})
	if err != nil {
		return QualityReport{}, err
	}
	return reports[0], errs[0]
}

// AssessClaims assesses a batch: signature-identical claims (renamed
// copies included) are assessed once, distinct claims fan out over the
// parallel worker pool, and overlapping claims share term/pair
// enumerations through the cross-claim cache. reports[i] is valid iff
// errs[i] == nil — one malformed claim fails alone without poisoning
// the batch. The error return is reserved for ctx cancellation, which
// drains in-flight workers before returning.
func (t *TriageContext) AssessClaims(ctx context.Context, sets []*PerturbationSet) (reports []QualityReport, errs []error, err error) {
	return t.tc.AssessBatch(ctx, sets)
}

// SharedCacheStats reports the cross-claim EV cache's lifetime
// hit/miss counts (observability only).
func (t *TriageContext) SharedCacheStats() (hits, misses uint64) { return t.tc.SharedStats() }
