package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/server/wire"
	"github.com/factcheck/cleansel/internal/session"
)

// The functions here compute what a correct daemon answers, through
// the root package and the wire codec, from the same request bytes the
// daemon receives. They mirror the handlers of internal/server without
// HTTP: decode, resolve the dataset, build, solve, encode.

// datasetIndex maps the ids the daemon assigned at set-up to the
// databases the uploads compile to.
type datasetIndex map[string]*cleansel.DB

// newDatasetIndex compiles each upload, keyed by the id the daemon
// returned for it.
func newDatasetIndex(uploads []uploadReq, ids []string) (datasetIndex, error) {
	idx := make(datasetIndex, len(uploads))
	for i, u := range uploads {
		db, err := wire.BuildDB(u.objects)
		if err != nil {
			return nil, err
		}
		idx[ids[i]] = db
	}
	return idx, nil
}

// resolve returns the database a problem refers to.
func (idx datasetIndex) resolve(objects []wire.Object, id string) (*cleansel.DB, error) {
	if id == "" {
		return wire.BuildDB(objects)
	}
	db, ok := idx[id]
	if !ok {
		return nil, fmt.Errorf("unknown dataset %q", id)
	}
	return db, nil
}

// encodeBody encodes a response value exactly as the daemon does: the
// JSON encoding followed by a newline.
func encodeBody(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// selectTask decodes a /v1/select body into the task the facade solves.
func (idx datasetIndex) selectTask(body []byte) (cleansel.Task, error) {
	req, err := wire.DecodeTask(bytes.NewReader(body))
	if err != nil {
		return cleansel.Task{}, err
	}
	db, err := idx.resolve(req.Objects, req.DatasetID)
	if err != nil {
		return cleansel.Task{}, err
	}
	return req.BuildTask(db)
}

// selectBody is the /v1/select response body for a facade result.
func selectBody(res cleansel.Result) ([]byte, error) {
	return encodeBody(wire.EncodeResult(res))
}

// triageBatch is a decoded /v1/triage body, ready for assessment.
type triageBatch struct {
	names     []string
	work      *cleansel.DB
	measure   cleansel.Measure
	sets      []*cleansel.PerturbationSet
	buildErrs []error
}

// decodeTriage decodes and builds a /v1/triage body.
func (idx datasetIndex) decodeTriage(body []byte) (*triageBatch, error) {
	req, err := wire.DecodeTriage(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	db, err := idx.resolve(req.Objects, req.DatasetID)
	if err != nil {
		return nil, err
	}
	work, measure, sets, buildErrs, err := req.BuildTriage(db)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(req.Claims))
	for i, c := range req.Claims {
		names[i] = c.Claim.Name
	}
	return &triageBatch{names: names, work: work, measure: measure, sets: sets, buildErrs: buildErrs}, nil
}

// triageBody is the /v1/triage response body for a batch's reports.
func (b *triageBatch) triageBody(reports []cleansel.QualityReport, assessErrs []error) ([]byte, error) {
	errs := make([]error, len(b.names))
	uniq := make(map[string]struct{}, len(b.names))
	for i := range b.names {
		switch {
		case b.buildErrs[i] != nil:
			errs[i] = b.buildErrs[i]
		case assessErrs[i] != nil:
			errs[i] = assessErrs[i]
		default:
			uniq[b.sets[i].Signature()] = struct{}{}
		}
	}
	return encodeBody(wire.EncodeTriage(b.measure, b.names, reports, errs, len(uniq)))
}

// expectOne computes the digest of the correct answer to one select or
// triage request through the facade.
func (idx datasetIndex) expectOne(ctx context.Context, r *request) error {
	var body []byte
	switch r.kind {
	case kindSelect:
		task, err := idx.selectTask(r.body)
		if err != nil {
			return err
		}
		res, err := cleansel.SelectContext(ctx, task)
		if err != nil {
			return err
		}
		if body, err = selectBody(res); err != nil {
			return err
		}
	case kindTriage:
		b, err := idx.decodeTriage(r.body)
		if err != nil {
			return err
		}
		tc, err := cleansel.NewTriageContext(b.work)
		if err != nil {
			return err
		}
		reports, errs, err := tc.AssessClaims(ctx, b.sets)
		if err != nil {
			return err
		}
		if body, err = b.triageBody(reports, errs); err != nil {
			return err
		}
	default:
		return nil // session answers are computed by the generator
	}
	r.want = sha256.Sum256(body)
	return nil
}

// expectAll fills the digests of every select and triage request, on
// GOMAXPROCS workers. It runs before the timed phase.
func (idx datasetIndex) expectAll(ctx context.Context, reqs []request) error {
	workers := runtime.GOMAXPROCS(0)
	next := make(chan int)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := range next {
				if errs[w] == nil {
					errs[w] = idx.expectOne(ctx, &reqs[i])
				}
			}
		}(w)
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// episodePlay replays one session episode in-process: the stepper the
// daemon builds for the create request, and the log of reveals.
type episodePlay struct {
	st  *session.Stepper
	log []session.CleanedValue
}

// episodeBuilder decodes a create body against the stored dataset, as
// the daemon does, and returns the session-layer call that builds the
// episode: the stepper and its first recommendation.
func episodeBuilder(body []byte, db *model.DB) (func() (*episodePlay, error), error) {
	req, err := wire.DecodeSession(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	goal, err := session.ParseGoal(req.Goal)
	if err != nil {
		return nil, err
	}
	set, err := req.Problem.BuildSet(db)
	if err != nil {
		return nil, err
	}
	bias := set.Bias()
	return func() (*episodePlay, error) {
		st, err := session.NewStepper(db, bias, goal, req.Tau, req.Budget)
		if err != nil {
			return nil, err
		}
		st.Recommend(nil)
		return &episodePlay{st: st}, nil
	}, nil
}

// newEpisodePlay builds the episode a create body opens.
func newEpisodePlay(body []byte, db *model.DB) (*episodePlay, error) {
	build, err := episodeBuilder(body, db)
	if err != nil {
		return nil, err
	}
	return build()
}

// step applies one clean report and computes the next recommendation.
func (p *episodePlay) step(o int, value float64) error {
	if err := p.st.Reveal(o, value, nil); err != nil {
		return err
	}
	p.st.Recommend(nil)
	p.log = append(p.log, session.CleanedValue{Object: o, Name: p.st.Name(o), Value: value})
	return nil
}

// state returns the episode's wire state with the id blank, and the
// digest of its response body.
func (p *episodePlay) state() (wire.SessionState, [32]byte, error) {
	st := session.State{
		Goal:        p.st.Goal(),
		Status:      p.st.Status(nil),
		Steps:       p.st.Steps(),
		Tau:         p.st.Tau(),
		Budget:      p.st.Budget(),
		Remaining:   p.st.Remaining(),
		Spent:       p.st.Spent(),
		Baseline:    p.st.Baseline(),
		Current:     p.st.Current(),
		Achieved:    p.st.Achieved(),
		Estimate:    p.st.Estimate(),
		Uncertainty: p.st.Uncertainty(),
		Cleaned:     append([]session.CleanedValue{}, p.log...),
	}
	if rr, ok := p.st.Recommend(nil); ok {
		st.Rec = &rr
	}
	ws := wire.EncodeSessionState(st)
	body, err := encodeBody(ws)
	if err != nil {
		return wire.SessionState{}, [32]byte{}, err
	}
	return ws, sha256.Sum256(body), nil
}
