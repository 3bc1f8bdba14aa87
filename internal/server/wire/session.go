package wire

import (
	"github.com/factcheck/cleansel/internal/session"
)

// SessionRequest is the body of POST /v1/sessions: the problem under
// scrutiny plus the episode parameters. The canonical encoding of this
// struct is also the session's durable spec — what a restarted daemon
// replays to rebuild the episode — so its field set and order are part
// of the snapshot format.
type SessionRequest struct {
	Problem
	Goal   string  `json:"goal,omitempty"` // minvar|maxpr (default minvar)
	Budget float64 `json:"budget"`
	Tau    float64 `json:"tau,omitempty"`
}

// CleanRequest is the body of POST /v1/sessions/{id}/clean: the client
// cleaned Object (normally the current recommendation) and found Value.
// Step echoes the session's step counter from the recommendation being
// answered, so duplicate or out-of-order reports are rejected instead
// of corrupting the episode.
type CleanRequest struct {
	Step   int     `json:"step"`
	Object int     `json:"object"`
	Value  float64 `json:"value"`
}

// SessionRec is the current recommendation on the wire.
type SessionRec struct {
	Object  int     `json:"object"`
	Name    string  `json:"name"`
	Benefit float64 `json:"benefit"`
	Cost    float64 `json:"cost"`
	Ratio   float64 `json:"ratio"`
}

// CleanedValue is one cleaned-object log entry on the wire.
type CleanedValue struct {
	Object int     `json:"object"`
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
}

// SessionState mirrors session.State on the wire: the full episode
// state every session endpoint answers with.
type SessionState struct {
	ID          string         `json:"id"`
	Goal        string         `json:"goal"`
	Status      string         `json:"status"`
	Steps       int            `json:"steps"`
	Budget      float64        `json:"budget"`
	Remaining   float64        `json:"remaining"`
	Spent       float64        `json:"spent"`
	Tau         float64        `json:"tau"`
	Baseline    float64        `json:"baseline"`
	Current     float64        `json:"current"`
	Achieved    float64        `json:"achieved"`
	Estimate    float64        `json:"estimate"`
	Uncertainty float64        `json:"uncertainty"`
	Cleaned     []CleanedValue `json:"cleaned"`
	// Recommendation is absent when the session is terminal.
	Recommendation *SessionRec `json:"recommendation,omitempty"`
}

// EncodeSessionState maps a session state onto the wire.
func EncodeSessionState(st session.State) SessionState {
	out := SessionState{
		ID:          st.ID,
		Goal:        string(st.Goal),
		Status:      string(st.Status),
		Steps:       st.Steps,
		Budget:      st.Budget,
		Remaining:   st.Remaining,
		Spent:       st.Spent,
		Tau:         st.Tau,
		Baseline:    st.Baseline,
		Current:     st.Current,
		Achieved:    st.Achieved,
		Estimate:    st.Estimate,
		Uncertainty: st.Uncertainty,
		Cleaned:     make([]CleanedValue, len(st.Cleaned)),
	}
	for i, c := range st.Cleaned {
		out.Cleaned[i] = CleanedValue{Object: c.Object, Name: c.Name, Value: c.Value}
	}
	if st.Rec != nil {
		out.Recommendation = &SessionRec{
			Object: st.Rec.Object, Name: st.Rec.Name,
			Benefit: st.Rec.Benefit, Cost: st.Rec.Cost, Ratio: st.Rec.Ratio,
		}
	}
	return out
}
