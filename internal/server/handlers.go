package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/server/wire"
)

// limitBody bounds the request body so oversized payloads fail as 413
// instead of exhausting memory.
func (s *Server) limitBody(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
}

// resolveDB produces the database a problem refers to: the stored
// dataset when dataset_id is given, the inline objects otherwise.
func (s *Server) resolveDB(p wire.Problem) (*cleansel.DB, error) {
	switch {
	case p.DatasetID != "" && len(p.Objects) > 0:
		return nil, badRequest(errors.New("give objects or dataset_id, not both"))
	case p.DatasetID != "":
		ds, ok := s.store.Get(p.DatasetID)
		if !ok {
			return nil, notFound(fmt.Sprintf("dataset %q not found (it may have been evicted; re-upload it)", p.DatasetID))
		}
		return ds.DB, nil
	default:
		return wire.BuildDB(p.Objects)
	}
}

// serveComputed is the shared select/rank/assess path: consult the
// result cache under the request's canonical hash; on a miss, solve
// under the per-request timeout, coalescing with any identical solve
// already in flight (a thundering herd of the same viral-claim request
// computes once), and cache the encoded success. X-Cache reports hit,
// miss, or coalesced.
func (s *Server) serveComputed(w http.ResponseWriter, r *http.Request, endpoint string, req canonicalRequest, f func(context.Context) (any, error)) {
	key := cacheKey(endpoint, req)
	if body, ok := s.results.Get(key); ok {
		w.Header().Set("X-Cache", "hit")
		s.writeResult(w, r, body, "hit")
		return
	}
	// Bound this caller's wait; the coalesced computation itself is
	// bounded inside compute and cancelled once every waiter is gone.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	body, shared, err := s.flights.Do(ctx, key, func(callCtx context.Context) ([]byte, error) {
		v, err := s.compute(callCtx, f)
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		return append(b, '\n'), nil
	})
	cacheStatus := "miss"
	if shared {
		cacheStatus = "coalesced"
	}
	w.Header().Set("X-Cache", cacheStatus)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.results.Put(key, body, int64(len(body)))
	s.writeResult(w, r, body, cacheStatus)
}

// writeResult writes an encoded success body. With ?trace=1 the body is
// wrapped in an envelope carrying the request ID, cache status, and the
// recorder's stage timings and engine op counts. The cache always holds
// the plain body — the envelope is built per response — so tracing a
// request never changes the bytes any other client is served.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, body []byte, cacheStatus string) {
	if r.URL.Query().Get("trace") != "1" {
		w.Header().Set("Content-Type", "application/json")
		if _, err := w.Write(body); err != nil {
			s.log.Error("writing response", "err", err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"result":     json.RawMessage(body),
		"request_id": obs.RequestID(r.Context()),
		"cache":      cacheStatus,
		"trace":      obs.FromContext(r.Context()).Snapshot(),
	})
}

func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	req, err := wire.DecodeTask(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.serveComputed(w, r, "select", &req, func(ctx context.Context) (any, error) {
		rec := obs.FromContext(ctx)
		db, err := s.resolveDB(req.Problem)
		if err != nil {
			return nil, err
		}
		endCompile := rec.Span("compile")
		task, err := req.BuildTask(db)
		endCompile()
		if err != nil {
			return nil, err
		}
		endSolve := rec.Span("solve")
		res, err := cleansel.SelectContext(ctx, task)
		endSolve()
		if err != nil {
			return nil, err
		}
		return wire.EncodeResult(res), nil
	})
}

func (s *Server) handleRank(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	req, err := wire.DecodeRank(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.serveComputed(w, r, "rank", &req, func(ctx context.Context) (any, error) {
		rec := obs.FromContext(ctx)
		db, err := s.resolveDB(req.Problem)
		if err != nil {
			return nil, err
		}
		endCompile := rec.Span("compile")
		work, set, measure, err := req.BuildRank(db)
		endCompile()
		if err != nil {
			return nil, err
		}
		endSolve := rec.Span("solve")
		ranked, err := cleansel.RankObjectsContext(ctx, work, set, measure)
		endSolve()
		if err != nil {
			return nil, err
		}
		return map[string]any{"objects": wire.EncodeBenefits(ranked)}, nil
	})
}

func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	req, err := wire.DecodeAssess(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.serveComputed(w, r, "assess", &req, func(ctx context.Context) (any, error) {
		rec := obs.FromContext(ctx)
		db, err := s.resolveDB(req.Problem)
		if err != nil {
			return nil, err
		}
		endCompile := rec.Span("compile")
		set, err := req.BuildSet(db)
		endCompile()
		if err != nil {
			return nil, err
		}
		endSolve := rec.Span("solve")
		defer endSolve()
		reports, errs, _, err := assess(ctx, db, req.Discretize, []*cleansel.PerturbationSet{set})
		if err != nil {
			return nil, err
		}
		if errs[0] != nil {
			return nil, errs[0]
		}
		return wire.EncodeReport(reports[0]), nil
	})
}

// assess runs every assessment the server makes, /v1/assess as a batch
// of one: core.TriageContext checks the request's discretize and picks
// the discrete view from it (0 = the default), so the bias variance
// stays exact over db whatever the field says. It also returns the
// number of distinct claims assessed successfully.
func assess(ctx context.Context, db *cleansel.DB, discretize int, sets []*cleansel.PerturbationSet) ([]cleansel.QualityReport, []error, int, error) {
	tc, err := core.NewTriageContext(db, discretize)
	if err != nil {
		return nil, nil, 0, err
	}
	reports, errs, err := tc.AssessBatch(ctx, sets)
	return reports, errs, tc.Assessed(), err
}

// handleTriage is the bulk assessment endpoint: one dataset, many
// claims, amortized through one core.TriageContext so the
// perturbation/EV state compiles once per batch. Each claim's report
// is bit-identical to what /v1/assess returns for it alone; a
// malformed claim gets a per-claim error entry without failing the
// batch.
func (s *Server) handleTriage(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	req, err := wire.DecodeTriage(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if len(req.Claims) == 0 {
		s.writeError(w, badRequest(errors.New("triage needs at least one claim")))
		return
	}
	s.serveComputed(w, r, "triage", &req, func(ctx context.Context) (any, error) {
		rec := obs.FromContext(ctx)
		db, err := s.resolveDB(wire.Problem{Objects: req.Objects, DatasetID: req.DatasetID})
		if err != nil {
			return nil, err
		}
		endCompile := rec.Span("compile")
		_, measure, sets, buildErrs, err := req.BuildTriage(db)
		endCompile()
		if err != nil {
			return nil, err
		}
		endSolve := rec.Span("solve")
		defer endSolve()
		// The context is fresh per request, so the distinct claims it
		// assessed are the batch's unique successes.
		reports, assessErrs, unique, err := assess(ctx, db, req.Discretize, sets)
		if err != nil {
			return nil, err
		}
		names := make([]string, len(req.Claims))
		errs := make([]error, len(req.Claims))
		ok := 0
		for i := range req.Claims {
			names[i] = req.Claims[i].Claim.Name
			switch {
			case buildErrs[i] != nil:
				errs[i] = buildErrs[i]
			case assessErrs[i] != nil:
				errs[i] = assessErrs[i]
			default:
				ok++
			}
		}
		s.met.triageClaims.With("ok").Add(float64(ok))
		s.met.triageClaims.With("error").Add(float64(len(req.Claims) - ok))
		return wire.EncodeTriage(measure, names, reports, errs, unique), nil
	})
}

// datasetInfo is the metadata the dataset endpoints report.
type datasetInfo struct {
	ID      string `json:"id"`
	Name    string `json:"name,omitempty"`
	Objects int    `json:"objects"`
}

func (s *Server) handleDatasetUpload(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	ds, err := wire.DecodeDataset(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rec, err := s.store.Add(ds)
	if err != nil {
		switch {
		case errors.Is(err, errDatasetTooLarge):
			err = &apiError{Status: http.StatusRequestEntityTooLarge, Code: "payload_too_large", Message: err.Error()}
		case errors.Is(err, errPersist):
			// Durable mode could not write the dataset file: the upload
			// must not be acknowledged, and it is the server's fault.
			err = &apiError{Status: http.StatusInternalServerError, Code: "persist_error", Message: err.Error()}
		}
		s.writeError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, datasetInfo{ID: rec.ID, Name: rec.Name, Objects: rec.Objects})
}

func (s *Server) handleDatasetGet(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		s.writeError(w, notFound(fmt.Sprintf("dataset %q not found", r.PathValue("id"))))
		return
	}
	s.writeJSON(w, http.StatusOK, datasetInfo{ID: rec.ID, Name: rec.Name, Objects: rec.Objects})
}

// handleHealthz reports liveness and statistics. Every number here is
// read from the same objects the /metrics registry exposes (the
// registered cache counters, the flight group's coalesced counter,
// the request CounterVec), so the two views cannot disagree.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	health := map[string]any{
		"status":         "ok",
		"uptime_seconds": int64(s.clock.Now().Sub(s.start).Seconds()),
		"requests":       s.met.requestsSeen(),
		"datasets":       s.store.Len(),
		"dataset_bytes":  s.store.Bytes(),
		"coalesced":      s.flights.Coalesced(),
		"sessions":       s.sessionStats(),
		"cache": map[string]any{
			"entries": s.results.Len(),
			"bytes":   s.results.Bytes(),
			"hits":    uint64(s.met.cacheHit.Value()),
			"misses":  uint64(s.met.cacheMiss.Value()),
		},
	}
	if p := s.persistStats(); p != nil {
		health["persist"] = p
	}
	s.writeJSON(w, http.StatusOK, health)
}
