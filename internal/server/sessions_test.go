package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/factcheck/cleansel/internal/obs"
)

// sessionBody builds a session create request over the quickstart
// objects.
func sessionBody(goal string, tau, budget float64) string {
	return fmt.Sprintf(`{`+inlineObjects+problemBody+`,
  "goal": %q,
  "tau": %v,
  "budget": %v
}`, goal, tau, budget)
}

// sessionState decodes a session response body.
func sessionState(t *testing.T, body []byte) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("invalid session state %q: %v", body, err)
	}
	if _, ok := m["id"].(string); !ok {
		t.Fatalf("session state without id: %s", body)
	}
	return m
}

func cleanBody(step int, object int, value float64) string {
	return fmt.Sprintf(`{"step": %d, "object": %d, "value": %v}`, step, object, value)
}

// TestLiveStateDoesNotPinRequestBodies checks that sessions and stored
// datasets keep only memory of their own size. Decoded strings share one
// copy of the request body, so a stepper or dataset keeping a decoded
// name as it is would pin the whole body, padding included, for as long
// as it lives.
func TestLiveStateDoesNotPinRequestBodies(t *testing.T) {
	const n, padding = 8, 1 << 20
	padded := func(body string) string { return body + strings.Repeat(" ", padding) }
	for _, tc := range []struct {
		name, path string
		body       func(i int) string
	}{
		{"session", "/v1/sessions", func(int) string { return padded(sessionBody("maxpr", 1, 3)) }},
		{"dataset", "/v1/datasets", func(i int) string {
			return padded(fmt.Sprintf(`{"name":"d%d","objects":[{"name":"o%d","current":1,"cost":1,"values":[1],"probs":[1]}]}`, i, i))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newTestServer(Config{})
			bodies := make([]string, n)
			for i := range bodies {
				bodies[i] = tc.body(i)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			for _, body := range bodies {
				if rec := do(t, h, "POST", tc.path, body); rec.Code != http.StatusOK {
					t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
				}
			}
			runtime.GC()
			runtime.ReadMemStats(&after)
			if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > n*padding/4 {
				t.Fatalf("%d live records grew the heap by %d bytes; their bodies carried %d bytes of padding each", n, grown, padding)
			}
			runtime.KeepAlive(h)
			runtime.KeepAlive(bodies)
		})
	}
}

// TestSessionEpisodeHTTP drives one full adaptive episode over HTTP:
// create, follow each recommendation, report the revealed value, repeat
// to a terminal state, as the adaptive figure does in process.
func TestSessionEpisodeHTTP(t *testing.T) {
	h := newTestServer(Config{})
	rec := do(t, h, "POST", "/v1/sessions", sessionBody("maxpr", 1, 3))
	if rec.Code != http.StatusOK {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body.String())
	}
	st := sessionState(t, rec.Body.Bytes())
	id := st["id"].(string)
	if st["status"] != "active" || st["steps"].(float64) != 0 || st["goal"] != "maxpr" {
		t.Fatalf("fresh session %v", st)
	}
	if st["recommendation"] == nil {
		t.Fatalf("active session without recommendation: %v", st)
	}

	// Follow the recommendations, revealing each object's current value
	// (nothing surprising ever happens, so the episode must end
	// exhausted, not countered).
	currents := []float64{100, 120, 140}
	for step := 0; st["status"] == "active"; step++ {
		if step > 3 {
			t.Fatal("episode did not terminate within the budget")
		}
		r := st["recommendation"].(map[string]any)
		obj := int(r["object"].(float64))
		rec = do(t, h, "POST", "/v1/sessions/"+id+"/clean", cleanBody(step, obj, currents[obj]))
		if rec.Code != http.StatusOK {
			t.Fatalf("clean step %d: status %d: %s", step, rec.Code, rec.Body.String())
		}
		st = sessionState(t, rec.Body.Bytes())
		if got := int(st["steps"].(float64)); got != step+1 {
			t.Fatalf("steps %d after clean %d", got, step)
		}
		if len(st["cleaned"].([]any)) != step+1 {
			t.Fatalf("cleaned log %v after step %d", st["cleaned"], step)
		}
	}
	if st["status"] != "exhausted" {
		t.Fatalf("final status %v, want exhausted", st["status"])
	}
	if st["recommendation"] != nil {
		t.Fatalf("terminal session still recommends: %v", st)
	}
	if spent := st["spent"].(float64); spent > 3 {
		t.Fatalf("spent %v over budget 3", spent)
	}
	// GET returns the same terminal state.
	rec = do(t, h, "GET", "/v1/sessions/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("get: status %d", rec.Code)
	}
	got := sessionState(t, rec.Body.Bytes())
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("GET state %v != clean state %v", got, st)
	}
	// DELETE ends it; a later GET is a 404.
	rec = do(t, h, "DELETE", "/v1/sessions/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("delete: status %d", rec.Code)
	}
	wantError(t, do(t, h, "GET", "/v1/sessions/"+id, ""), http.StatusNotFound, "not_found")
}

// TestSessionCounteredHTTP reveals a shocking value and watches the
// MaxPr session terminate with its counterargument.
func TestSessionCounteredHTTP(t *testing.T) {
	h := newTestServer(Config{})
	rec := do(t, h, "POST", "/v1/sessions", sessionBody("maxpr", 1, 3))
	st := sessionState(t, rec.Body.Bytes())
	id := st["id"].(string)
	r := st["recommendation"].(map[string]any)
	obj := int(r["object"].(float64))
	// Reveal the support value that drops the claim measure the most.
	// The quickstart bias is −x_jan/2 + x_mar/2, so jan surprises high
	// (105) and mar surprises low (130), both dropping it by > τ = 1.
	extremes := []float64{105, 120, 130}
	rec = do(t, h, "POST", "/v1/sessions/"+id+"/clean", cleanBody(0, obj, extremes[obj]))
	if rec.Code != http.StatusOK {
		t.Fatalf("clean: status %d: %s", rec.Code, rec.Body.String())
	}
	st = sessionState(t, rec.Body.Bytes())
	if st["status"] != "countered" {
		t.Fatalf("status %v after extreme reveal, want countered (achieved %v)", st["status"], st["achieved"])
	}
	if st["achieved"].(float64) <= 1 {
		t.Fatalf("achieved %v, want > tau", st["achieved"])
	}
	// A terminal session refuses further cleans with 409.
	wantError(t, do(t, h, "POST", "/v1/sessions/"+id+"/clean", cleanBody(1, (obj+1)%3, 100)),
		http.StatusConflict, "conflict")
}

func TestSessionStepConflicts(t *testing.T) {
	h := newTestServer(Config{})
	rec := do(t, h, "POST", "/v1/sessions", sessionBody("minvar", 0, 3))
	st := sessionState(t, rec.Body.Bytes())
	id := st["id"].(string)
	obj := int(st["recommendation"].(map[string]any)["object"].(float64))
	// Out-of-order: the session has not issued step 2 yet.
	wantError(t, do(t, h, "POST", "/v1/sessions/"+id+"/clean", cleanBody(2, obj, 100)),
		http.StatusConflict, "conflict")
	if rec = do(t, h, "POST", "/v1/sessions/"+id+"/clean", cleanBody(0, obj, 100)); rec.Code != http.StatusOK {
		t.Fatalf("clean: %d: %s", rec.Code, rec.Body.String())
	}
	// Duplicate delivery of the same report: refused, state unchanged.
	wantError(t, do(t, h, "POST", "/v1/sessions/"+id+"/clean", cleanBody(0, obj, 100)),
		http.StatusConflict, "conflict")
	after := sessionState(t, do(t, h, "GET", "/v1/sessions/"+id, "").Body.Bytes())
	if after["steps"].(float64) != 1 {
		t.Fatalf("duplicate clean advanced the session: %v", after)
	}
	// Re-cleaning an already-cleaned object at the right step: 409 too.
	wantError(t, do(t, h, "POST", "/v1/sessions/"+id+"/clean", cleanBody(1, obj, 100)),
		http.StatusConflict, "conflict")
}

func TestSessionExpiryHTTP(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(1_700_000_000, 0))
	h := newTestServer(Config{Clock: clock, SessionTTL: time.Minute})
	rec := do(t, h, "POST", "/v1/sessions", sessionBody("minvar", 0, 3))
	id := sessionState(t, rec.Body.Bytes())["id"].(string)
	clock.Advance(2 * time.Minute)
	wantError(t, do(t, h, "GET", "/v1/sessions/"+id, ""), http.StatusGone, "expired")
	wantError(t, do(t, h, "GET", "/v1/sessions/s_0123456789abcdef", ""), http.StatusNotFound, "not_found")
}

// The goal name is case-insensitive, as on /v1/select: a create with
// "MAXPR" opens a maxpr episode.
func TestSessionGoalAnyCase(t *testing.T) {
	h := newTestServer(Config{})
	rec := do(t, h, "POST", "/v1/sessions", sessionBody("MAXPR", 1, 3))
	if rec.Code != http.StatusOK {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body.String())
	}
	if st := sessionState(t, rec.Body.Bytes()); st["goal"] != "maxpr" {
		t.Fatalf("goal %v, want maxpr", st["goal"])
	}
}

func TestSessionBadRequests(t *testing.T) {
	h := newTestServer(Config{})
	wantError(t, do(t, h, "POST", "/v1/sessions", `{"goal": "bogus"}`), http.StatusBadRequest, "bad_request")
	wantError(t, do(t, h, "POST", "/v1/sessions", sessionBody("minvar", 0, -1)), http.StatusBadRequest, "bad_request")
	wantError(t, do(t, h, "POST", "/v1/sessions", `not json`), http.StatusBadRequest, "bad_request")
	rec := do(t, h, "POST", "/v1/sessions", sessionBody("minvar", 0, 3))
	id := sessionState(t, rec.Body.Bytes())["id"].(string)
	wantError(t, do(t, h, "POST", "/v1/sessions/"+id+"/clean", `{"step": 0, "object": 99, "value": 1}`),
		http.StatusBadRequest, "bad_request")
	wantError(t, do(t, h, "POST", "/v1/sessions/"+id+"/clean", `{"step": 0, "object": 0, "value": "x"}`),
		http.StatusBadRequest, "bad_request")
}

// TestSessionTraceCounters asserts the acceptance criterion that
// incremental conditioning is observable: a traced clean carries the
// session_conditioned and session_step_evals engine counters.
func TestSessionTraceCounters(t *testing.T) {
	h := newTestServer(Config{})
	rec := do(t, h, "POST", "/v1/sessions", sessionBody("maxpr", 1, 3))
	st := sessionState(t, rec.Body.Bytes())
	id := st["id"].(string)
	obj := int(st["recommendation"].(map[string]any)["object"].(float64))
	// Reveal the current value: nothing surprising, so the session stays
	// active and the next recommendation re-evaluates the remaining
	// candidates.
	currents := []float64{100, 120, 140}
	rec = do(t, h, "POST", "/v1/sessions/"+id+"/clean?trace=1", cleanBody(0, obj, currents[obj]))
	if rec.Code != http.StatusOK {
		t.Fatalf("traced clean: %d: %s", rec.Code, rec.Body.String())
	}
	env := decodeBody(t, rec)
	if env["cache"] != "none" {
		t.Fatalf("session responses must not be cached: %v", env["cache"])
	}
	if env["request_id"] == "" {
		t.Fatal("trace envelope without request_id")
	}
	trace := env["trace"].(map[string]any)
	counters := map[string]float64{}
	if cs, ok := trace["counters"].([]any); ok {
		for _, c := range cs {
			m := c.(map[string]any)
			counters[m["name"].(string)] = m["value"].(float64)
		}
	}
	if counters["session_conditioned"] != 1 {
		t.Fatalf("session_conditioned = %v, want 1 (counters: %v)", counters["session_conditioned"], counters)
	}
	// The post-clean recommendation re-evaluates the remaining
	// candidates (one eval per uncleaned object, none re-compiled).
	if counters["session_step_evals"] < 2 {
		t.Fatalf("session_step_evals = %v, want >= 2", counters["session_step_evals"])
	}
	if _, ok := env["result"].(map[string]any); !ok {
		t.Fatalf("trace envelope without result: %v", env)
	}
}

// TestSessionWorkerBitIdentity asserts recommendations are bit-identical
// across solver-pool widths and engine worker counts: the session path
// is strictly sequential, so parallelism knobs must not change a byte.
func TestSessionWorkerBitIdentity(t *testing.T) {
	states := make([]map[string]any, 0, 2)
	for i, workers := range []string{"1", "8"} {
		t.Setenv("CLEANSEL_WORKERS", workers)
		h := newTestServer(Config{MaxInflight: 1 + 7*i})
		rec := do(t, h, "POST", "/v1/sessions", sessionBody("maxpr", 1, 3))
		if rec.Code != http.StatusOK {
			t.Fatalf("create: %d: %s", rec.Code, rec.Body.String())
		}
		st := sessionState(t, rec.Body.Bytes())
		id := st["id"].(string)
		obj := int(st["recommendation"].(map[string]any)["object"].(float64))
		after := sessionState(t, do(t, h, "POST", "/v1/sessions/"+id+"/clean", cleanBody(0, obj, 120)).Body.Bytes())
		// IDs are random per session; everything else must match exactly.
		delete(st, "id")
		delete(after, "id")
		states = append(states, map[string]any{"create": st, "clean": after})
	}
	if !reflect.DeepEqual(states[0], states[1]) {
		t.Fatalf("session state depends on worker count:\n1 worker: %v\n8 workers: %v", states[0], states[1])
	}
}

// TestSessionRestartRecovery runs an episode halfway, restarts the
// daemon on the same snapshot, and continues it.
func TestSessionRestartRecovery(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "sessions.snap")
	cfg := Config{SessionSnapshot: snap}
	s := mustNew(t, cfg)
	h := s.Handler()
	rec := do(t, h, "POST", "/v1/sessions", sessionBody("minvar", 0, 3))
	st := sessionState(t, rec.Body.Bytes())
	id := st["id"].(string)
	obj := int(st["recommendation"].(map[string]any)["object"].(float64))
	before := sessionState(t, do(t, h, "POST", "/v1/sessions/"+id+"/clean", cleanBody(0, obj, 100)).Body.Bytes())
	s.Close()

	s2 := mustNew(t, cfg)
	h2 := s2.Handler()
	rec = do(t, h2, "GET", "/v1/sessions/"+id, "")
	if rec.Code != http.StatusOK {
		t.Fatalf("session lost across restart: %d: %s", rec.Code, rec.Body.String())
	}
	after := sessionState(t, rec.Body.Bytes())
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("replayed state drifted:\nbefore %v\nafter  %v", before, after)
	}
	// healthz reports the recovery.
	health := decodeBody(t, do(t, h2, "GET", "/healthz", ""))
	sess := health["sessions"].(map[string]any)
	if sess["restored"].(float64) != 1 || sess["active"].(float64) != 1 {
		t.Fatalf("healthz sessions %v", sess)
	}
	// The episode continues: next step is 1.
	next := int(after["recommendation"].(map[string]any)["object"].(float64))
	rec = do(t, h2, "POST", "/v1/sessions/"+id+"/clean", cleanBody(1, next, 120))
	if rec.Code != http.StatusOK {
		t.Fatalf("continuing replayed session: %d: %s", rec.Code, rec.Body.String())
	}
}

// restartNamesBody is a session create request over inline objects
// named as in pinUploadBody: characters the canonical encoding escapes,
// U+2028, invalid UTF-8 and a lone surrogate.
const restartNamesBody = `{"objects": [
    {"name": "a<b>&c", "current": 100, "cost": 1, "values": [95, 100, 105], "probs": [1, 1, 1]},
    {"name": "café ` + "\u2028 \xff" + ` \ud800", "current": 120, "cost": 1, "values": [90, 120, 150], "probs": [1, 1, 1]},
    {"NAME": "upper", "current": 140, "cost": 1, "normal": {"mean": 140, "sigma": 8}}
  ],
  "claim": {"name": "total", "coef": {"0": 1, "1": 1, "2": 1}},
  "direction": "higher",
  "perturbations": [{"claim": {"name": "reweighted", "coef": {"0": 1, "1": 2, "2": 1}}, "sensibility": 1}],
  "goal": "maxpr", "tau": 1, "budget": 3}`

// TestSessionRestartAnswersSameBytes checks that a restored session
// answers the bytes the live one did. A live create compiles the
// decoded request body; a restore compiles the decoded canonical spec.
// The decoder, like encoding/json, already reads invalid UTF-8 and a
// lone surrogate as U+FFFD, and responses encode names as the canonical
// spec does, so the two compiles must agree on every name. After the
// create and after each clean, a daemon restarted on a copy of the
// snapshot must answer GET with the live response's bytes, the session
// id blanked.
func TestSessionRestartAnswersSameBytes(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "sessions.snap")
	h := mustNew(t, Config{SessionSnapshot: snap}).Handler()
	live := do(t, h, "POST", "/v1/sessions", restartNamesBody)
	currents := []float64{100, 120, 140}
	for step := 0; ; step++ {
		if live.Code != http.StatusOK {
			t.Fatalf("live step %d: status %d: %s", step, live.Code, live.Body.String())
		}
		st := sessionState(t, live.Body.Bytes())
		id := st["id"].(string)
		data, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		restart := filepath.Join(dir, fmt.Sprintf("restart-%d.snap", step))
		if err := os.WriteFile(restart, data, 0o600); err != nil {
			t.Fatal(err)
		}
		restored := do(t, mustNew(t, Config{SessionSnapshot: restart}).Handler(), "GET", "/v1/sessions/"+id, "")
		blank := func(b []byte) string { return strings.ReplaceAll(string(b), id, "") }
		if got, want := blank(restored.Body.Bytes()), blank(live.Body.Bytes()); restored.Code != http.StatusOK || got != want {
			t.Fatalf("step %d: restored daemon answered %d\n%s\nlive daemon answered\n%s", step, restored.Code, got, want)
		}
		if st["status"] != "active" {
			if step != 3 || !strings.Contains(live.Body.String(), `"café \u2028 `+"\ufffd \ufffd\"") {
				t.Fatalf("episode ended after %d cleans, want 3 naming every object: %s", step, live.Body.String())
			}
			return
		}
		obj := int(st["recommendation"].(map[string]any)["object"].(float64))
		live = do(t, h, "POST", "/v1/sessions/"+id+"/clean", cleanBody(step, obj, currents[obj]))
	}
}

func TestSessionMetricsSurface(t *testing.T) {
	h := newTestServer(Config{})
	rec := do(t, h, "POST", "/v1/sessions", sessionBody("minvar", 0, 3))
	if rec.Code != http.StatusOK {
		t.Fatalf("create: %d", rec.Code)
	}
	body := do(t, h, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		`cleanseld_sessions_total{event="created"} 1`,
		"cleanseld_sessions_active 1",
		`cleanseld_requests_total{endpoint="sessions",code="200"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
	health := decodeBody(t, do(t, h, "GET", "/healthz", ""))
	sess, ok := health["sessions"].(map[string]any)
	if !ok {
		t.Fatalf("healthz without sessions block: %v", health)
	}
	if sess["created"].(float64) != 1 || sess["active"].(float64) != 1 {
		t.Fatalf("healthz sessions %v", sess)
	}
}
