package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"time"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/ev"
	"github.com/factcheck/cleansel/internal/maxpr"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/rng"
	"github.com/factcheck/cleansel/internal/server/wire"
)

// The traced run replays every op in-process through the layers'
// public functions, timing each call as a span:
//
//	cleansel facade   cleansel.SelectContext / TriageContext.AssessClaims
//	cleansel replay   the facade's body rebuilt from the layers below:
//	  ev              ev.NewGroupEngine, GroupEngine.EVCtx
//	  maxpr           maxpr.NewHybrid, Evaluator.Prob
//	  core            core.SelectWithContext over harness-built
//	                  selectors, core.TriageContext.AssessBatch
//	    ev, maxpr     stages the layers report inside the core call
//	session           session.NewStepper, Stepper.Recommend/Reveal
//
// The rebuilt answer must equal the facade's bit for bit, or the run
// fails: the per-layer numbers then describe the program that served
// the answers. The facade's answer is also what the daemon's responses
// are checked against.

// Constants the facade uses internally, mirrored by the replay (a
// change to either shows up as a replay mismatch).
const (
	facadeDiscretize   = 6       // cleansel's discretization of normal models
	facadeHybridMC     = 20000   // Monte-Carlo samples of the MaxPr fallback
	facadeHybridSalt   = 0x51ec7 // seed salt of that fallback's stream
	facadeHybridStates = 0       // exact-evaluator state cap (0: default)
)

// probTimer is a maxpr.Evaluator that counts and times the calls it
// forwards. The replay places one outside maxpr.NewCached (every call
// the selector makes) and one inside (the calls the memo misses).
type probTimer struct {
	inner maxpr.Evaluator
	calls int64
	spent time.Duration
}

// Prob implements maxpr.Evaluator.
func (p *probTimer) Prob(T model.Set) float64 {
	t0 := time.Now()
	v := p.inner.Prob(T)
	p.spent += time.Since(t0)
	p.calls++
	return v
}

// layerStats is what the replay measured.
type layerStats struct {
	spans      *spanLog
	rounds     int   // objects chosen by the replayed selects
	probCalls  int64 // Prob calls the selector made
	probMisses int64 // of which the memo did not answer
	probSpent  time.Duration
	mismatches []string
}

func (l *layerStats) mismatch(op int, format string, args ...any) {
	if len(l.mismatches) < maxErrs {
		l.mismatches = append(l.mismatches, fmt.Sprintf("replay of request %d: ", op)+fmt.Sprintf(format, args...))
	}
}

// replay replays every request of reqs in order, filling in the digests
// of the correct answers.
func replay(ctx context.Context, idx datasetIndex, reqs []request) (*layerStats, error) {
	l := &layerStats{spans: newSpanLog()}
	var play *episodePlay
	for i := range reqs {
		r := &reqs[i]
		var err error
		switch r.kind {
		case kindSelect:
			err = l.replaySelect(ctx, idx, i, r)
		case kindTriage:
			err = l.replayTriage(ctx, idx, i, r)
		case kindCreate:
			var db *model.DB
			if db, err = idx.sessionDB(); err != nil {
				break
			}
			var build func() (*episodePlay, error)
			if build, err = episodeBuilder(r.body, db); err != nil {
				break
			}
			s := l.spans.begin(i, -1, "session", "create", false)
			play, err = build()
			l.spans.end(s)
			if err == nil {
				err = l.checkSession(i, r, play)
			}
		case kindClean:
			var c wire.CleanRequest
			if c, err = wire.DecodeClean(bytes.NewReader(r.body)); err != nil {
				break
			}
			s := l.spans.begin(i, -1, "session", "step", false)
			err = play.step(c.Object, c.Value)
			l.spans.end(s)
			if err == nil {
				err = l.checkSession(i, r, play)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("replaying request %d: %w", i, err)
		}
	}
	return l, nil
}

// checkSession compares the replayed episode's state with the one the
// stream was generated with.
func (l *layerStats) checkSession(op int, r *request, play *episodePlay) error {
	_, want, err := play.state()
	if err != nil {
		return err
	}
	if want != r.want {
		l.mismatch(op, "session state differs from the generated episode")
	}
	return nil
}

// sessionDB returns the one dataset the session workload uploads.
func (idx datasetIndex) sessionDB() (*model.DB, error) {
	for _, db := range idx {
		if len(idx) == 1 {
			return db, nil
		}
	}
	return nil, fmt.Errorf("session replay needs exactly one dataset, have %d", len(idx))
}

// replaySelect replays one /v1/select: the facade, then its body rebuilt
// from the layers.
func (l *layerStats) replaySelect(ctx context.Context, idx datasetIndex, op int, r *request) error {
	task, err := idx.selectTask(r.body)
	if err != nil {
		return err
	}
	s := l.spans.begin(op, -1, "cleansel", "facade", true)
	res, err := cleansel.SelectContext(ctx, task)
	l.spans.end(s)
	if err != nil {
		return err
	}
	body, err := selectBody(res)
	if err != nil {
		return err
	}
	r.want = sha256.Sum256(body)

	root := l.spans.begin(op, -1, "cleansel", "replay", false)
	var (
		T             model.Set
		before, after float64
	)
	switch {
	case task.Goal == cleansel.MinimizeUncertainty && task.Measure == cleansel.Uniqueness && task.DB.Cov == nil && task.Algorithm == cleansel.AlgoGreedy:
		T, before, after, err = l.minVarLayers(ctx, op, root, task)
	case task.Goal == cleansel.MaximizeSurprise && task.Measure == cleansel.Fairness && task.DB.Cov == nil:
		T, before, after, err = l.maxPrLayers(ctx, op, root, task)
	default:
		err = fmt.Errorf("the replay covers greedy MinVar/uniqueness and MaxPr/fairness on independent data, not %v/%v", task.Goal, task.Measure)
	}
	l.spans.end(root)
	if err != nil {
		return err
	}
	l.rounds += len(T)
	if !sameSet(T, res.Set) || !sameBits(before, res.Before) || !sameBits(after, res.After) {
		l.mismatch(op, "layers chose %v (%v -> %v), the facade %v (%v -> %v)", T, before, after, res.Set, res.Before, res.After)
	}
	return nil
}

// discreteView mirrors the facade: normal value models are discretized
// for the exact engines.
func discreteView(db *model.DB) *model.DB {
	if _, err := db.Discretes(); err != nil {
		return db.Discretized(facadeDiscretize)
	}
	return db
}

// minVarLayers rebuilds the facade's greedy MinVar/uniqueness solve.
func (l *layerStats) minVarLayers(ctx context.Context, op, root int, task cleansel.Task) (model.Set, float64, float64, error) {
	work := discreteView(task.DB)
	g := task.Claims.Dup()
	s := l.spans.begin(op, root, "ev", "NewGroupEngine", false)
	engine, err := ev.NewGroupEngine(work, g)
	l.spans.end(s)
	if err != nil {
		return nil, 0, 0, err
	}
	rec := obs.NewRecorder(obs.SystemClock)
	s = l.spans.begin(op, root, "core", "SelectWithContext", false)
	sel, err := core.NewGreedyMinVarGroup(work, g)
	var T model.Set
	if err == nil {
		T, err = core.SelectWithContext(obs.WithRecorder(ctx, rec), sel, task.Budget)
	}
	l.spans.end(s)
	if err != nil {
		return nil, 0, 0, err
	}
	stages := stageTotals(rec)
	l.spans.aggregate(s, "ev", "ev_state_init", stages["ev_state_init"])
	l.spans.aggregate(s, "ev", "singleton_benefits", stages["singleton_benefits"])
	var ends [2]float64
	for i, set := range []model.Set{nil, T} {
		s = l.spans.begin(op, root, "ev", "EVCtx", false)
		ends[i], err = engine.EVCtx(ctx, set)
		l.spans.end(s)
		if err != nil {
			return nil, 0, 0, err
		}
	}
	return T, ends[0], ends[1], nil
}

// maxPrLayers rebuilds the facade's greedy MaxPr solve over discrete
// data, with timing evaluators outside and inside the memo.
func (l *layerStats) maxPrLayers(ctx context.Context, op, root int, task cleansel.Task) (model.Set, float64, float64, error) {
	db := task.DB
	if _, ok := db.Normals(); ok {
		return nil, 0, 0, errors.New("the replay covers MaxPr over discrete data only")
	}
	s := l.spans.begin(op, root, "maxpr", "NewHybrid", false)
	h, err := maxpr.NewHybrid(discreteView(db), task.Claims.Bias(), task.Tau, facadeHybridStates, facadeHybridMC, rng.New(task.Seed^facadeHybridSalt))
	l.spans.end(s)
	if err != nil {
		return nil, 0, 0, err
	}
	inner := &probTimer{inner: h}
	outer := &probTimer{inner: maxpr.NewCached(inner)}
	s = l.spans.begin(op, root, "core", "SelectWithContext", false)
	sel, err := core.NewGreedyMaxPr(db, outer)
	var T model.Set
	if err == nil {
		T, err = core.SelectWithContext(ctx, sel, task.Budget)
	}
	l.spans.end(s)
	if err != nil {
		return nil, 0, 0, err
	}
	l.spans.aggregate(s, "maxpr", "Prob", outer.spent)
	s = l.spans.begin(op, root, "maxpr", "Prob", false)
	before, after := outer.Prob(nil), outer.Prob(T)
	l.spans.end(s)
	l.probCalls += outer.calls
	l.probMisses += inner.calls
	l.probSpent += outer.spent
	return T, before, after, nil
}

// replayTriage replays one /v1/triage batch: the facade, then the core
// batch assessment it wraps.
func (l *layerStats) replayTriage(ctx context.Context, idx datasetIndex, op int, r *request) error {
	b, err := idx.decodeTriage(r.body)
	if err != nil {
		return err
	}
	s := l.spans.begin(op, -1, "cleansel", "facade", true)
	tc, err := cleansel.NewTriageContext(b.work)
	var (
		reports []cleansel.QualityReport
		errs    []error
	)
	if err == nil {
		reports, errs, err = tc.AssessClaims(ctx, b.sets)
	}
	l.spans.end(s)
	if err != nil {
		return err
	}
	body, err := b.triageBody(reports, errs)
	if err != nil {
		return err
	}
	r.want = sha256.Sum256(body)

	root := l.spans.begin(op, -1, "cleansel", "replay", false)
	s = l.spans.begin(op, root, "core", "AssessBatch", false)
	ctc, err := core.NewTriageContext(b.work, facadeDiscretize)
	var (
		creps []core.Report
		cerrs []error
	)
	if err == nil {
		creps, cerrs, err = ctc.AssessBatch(ctx, b.sets)
	}
	l.spans.end(s)
	if err != nil {
		l.spans.end(root)
		return err
	}
	same := len(creps) == len(reports)
	for i := 0; same && i < len(creps); i++ {
		same = sameReport(cleansel.QualityReport(creps[i]), reports[i]) && (cerrs[i] == nil) == (errs[i] == nil)
	}
	l.spans.end(root)
	if !same {
		l.mismatch(op, "core batch assessment differs from the facade's")
	}
	return nil
}

// stageTotals returns a recorder's stage totals by name.
func stageTotals(rec *obs.Recorder) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, st := range rec.Snapshot().Stages {
		out[st.Name] = time.Duration(st.TotalMS * float64(time.Millisecond))
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSet(a, b model.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func sameReport(a, b cleansel.QualityReport) bool {
	return sameBits(a.Bias, b.Bias) && sameBits(a.BiasVariance, b.BiasVariance) &&
		a.Duplicity == b.Duplicity && sameBits(a.DupVariance, b.DupVariance) &&
		sameBits(a.Fragility, b.Fragility) && sameBits(a.FragVariance, b.FragVariance) &&
		a.Perturbations == b.Perturbations
}
