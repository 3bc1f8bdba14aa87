package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"

	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/server/wire"
	"github.com/factcheck/cleansel/internal/session"
)

// The session endpoints serve the paper's adaptive loop as a stateful
// protocol: create an episode, follow its recommendation, clean the
// object out of band, report the revealed value, repeat until the
// session is countered or exhausted. Unlike select/rank/assess these
// are inherently stateful — every /clean changes the episode — so they
// bypass the result cache and the coalescer entirely; they still ride
// the access-log middleware (request IDs, metrics, traces) and the
// compute pool for the create-time compile.

// buildSessionStepper compiles a create request into an episode
// stepper: resolve the database, compile the claim's bias function, and
// validate the episode parameters. A live create compiles the decoded
// body through it and a restore the decoded canonical spec, so it must
// stay a pure function of the decoded request and the dataset store.
func (s *Server) buildSessionStepper(req wire.SessionRequest) (*session.Stepper, error) {
	goal, err := session.ParseGoal(req.Goal)
	if err != nil {
		return nil, err
	}
	db, err := s.resolveDB(req.Problem)
	if err != nil {
		return nil, err
	}
	set, err := req.Problem.BuildSet(db)
	if err != nil {
		return nil, err
	}
	return session.NewStepper(db, set.Bias(), goal, req.Tau, req.Budget)
}

// rebuildSession builds a stepper from spec, the canonical
// create-request bytes: the manager's restore callback.
func (s *Server) rebuildSession(spec []byte) (*session.Stepper, error) {
	req, err := wire.DecodeSession(bytes.NewReader(spec))
	if err != nil {
		return nil, err
	}
	return s.buildSessionStepper(req)
}

// sessionError maps the session layer's sentinels onto the protocol:
// 404 unknown, 409 conflicting (out-of-order/duplicate step, reveal
// inconsistent with state), 410 expired. Anything else is a bad
// request.
func sessionError(err error) error {
	switch {
	case errors.Is(err, session.ErrNotFound):
		return &apiError{Status: http.StatusNotFound, Code: "not_found", Message: err.Error()}
	case errors.Is(err, session.ErrExpired):
		return &apiError{Status: http.StatusGone, Code: "expired", Message: err.Error()}
	case errors.Is(err, session.ErrStep), errors.Is(err, session.ErrRevealConflict):
		return &apiError{Status: http.StatusConflict, Code: "conflict", Message: err.Error()}
	default:
		return err
	}
}

// writeSessionState answers with the episode state, honouring the
// ?trace=1 envelope (session responses are never cached, so the trace's
// cache field reports "none").
func (s *Server) writeSessionState(w http.ResponseWriter, r *http.Request, st session.State) {
	body, err := json.Marshal(wire.EncodeSessionState(st))
	if err != nil {
		s.writeError(w, err)
		return
	}
	s.writeResult(w, r, append(body, '\n'), "none")
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	req, err := wire.DecodeSession(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// A stepper keeps its objects' names for the life of the session,
	// and decoded names share the whole body, padding and all: copy
	// them, as the dataset store does.
	ownNames(req.Objects)
	// The create-time compile (dataset build, claim compilation, first
	// recommendation) is the one potentially expensive session step;
	// run it under the compute pool and timeout like any other solve.
	v, err := s.compute(r.Context(), func(ctx context.Context) (any, error) {
		rec := obs.FromContext(ctx)
		endCompile := rec.Span("compile")
		st, err := s.buildSessionStepper(req)
		endCompile()
		if err != nil {
			return nil, err
		}
		// The spec is the decoded request's canonical encoding, so equal
		// requests persist equal bytes regardless of client formatting;
		// only a manager that writes snapshots asks for it.
		spec := func() []byte { return req.AppendCanonical(nil) }
		endStep := rec.Span("step")
		state, err := s.sessions.Create(spec, st, rec)
		endStep()
		if err != nil {
			return nil, err
		}
		return state, nil
	})
	if err != nil {
		s.writeError(w, sessionError(err))
		return
	}
	s.writeSessionState(w, r, v.(session.State))
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	rec := obs.FromContext(r.Context())
	st, err := s.sessions.Get(r.PathValue("id"), rec)
	if err != nil {
		s.writeError(w, sessionError(err))
		return
	}
	s.writeSessionState(w, r, st)
}

func (s *Server) handleSessionClean(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	req, err := wire.DecodeClean(r.Body)
	if err != nil {
		s.writeError(w, err)
		return
	}
	rec := obs.FromContext(r.Context())
	endStep := rec.Span("step")
	st, err := s.sessions.Clean(r.PathValue("id"), req.Step, req.Object, req.Value, rec)
	endStep()
	if err != nil {
		s.writeError(w, sessionError(err))
		return
	}
	s.writeSessionState(w, r, st)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.sessions.Delete(r.PathValue("id")); err != nil {
		s.writeError(w, sessionError(err))
		return
	}
	s.writeJSON(w, http.StatusOK, map[string]string{"deleted": r.PathValue("id")})
}

// sessionStats is the /healthz sessions block, read from the same
// counters the /metrics registry serves.
func (s *Server) sessionStats() map[string]any {
	st := s.sessions.Stats()
	return map[string]any{
		"active":         st.Active,
		"created":        st.Created,
		"expired":        st.Expired,
		"evicted":        st.Evicted,
		"restored":       st.Restored,
		"load_errors":    st.LoadErrors,
		"persist_errors": st.PersistErrors,
	}
}
