package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

const datasetBody = `{
  "name": "quickstart",
  "objects": [
    {"name": "jan", "current": 100, "cost": 1, "values": [95, 100, 105], "probs": [1, 1, 1]},
    {"name": "feb", "current": 120, "cost": 1, "values": [90, 120, 150], "probs": [1, 1, 1]},
    {"name": "mar", "current": 140, "cost": 1, "values": [130, 140, 150], "probs": [1, 1, 1]}
  ]
}`

const problemBody = `
  "claim": {"name": "mar-vs-jan", "coef": {"2": 1, "0": -1}},
  "direction": "higher",
  "perturbations": [
    {"claim": {"name": "feb-vs-jan", "coef": {"1": 1, "0": -1}}, "sensibility": 1},
    {"claim": {"name": "mar-vs-feb", "coef": {"2": 1, "1": -1}}, "sensibility": 1}
  ]`

// inlineObjects is the quickstart dataset as an inline-objects fragment.
const inlineObjects = `"objects": [
    {"name": "jan", "current": 100, "cost": 1, "values": [95, 100, 105], "probs": [1, 1, 1]},
    {"name": "feb", "current": 120, "cost": 1, "values": [90, 120, 150], "probs": [1, 1, 1]},
    {"name": "mar", "current": 140, "cost": 1, "values": [130, 140, 150], "probs": [1, 1, 1]}
  ],`

// selectBody builds a select request around a data reference: either
// inlineObjects or a `"dataset_id": "...",` fragment.
func selectBody(dataRef string) string {
	return `{` + dataRef + problemBody + `,
  "measure": "uniqueness",
  "goal": "minvar",
  "algorithm": "greedy",
  "budget": 1
}`
}

// TestSelectOptimumHugeBudget sends optimum fairness selects whose
// budget dwarfs the objects' total cost of 3: they answer what budget 3
// answers (jan and mar) instead of sizing the knapsack from the budget,
// which at 1e16 panicked and at 1e300 overflowed to an empty set.
func TestSelectOptimumHugeBudget(t *testing.T) {
	h := newTestServer(Config{})
	body := func(budget string) string {
		return `{` + inlineObjects + problemBody + `,
  "measure": "fairness",
  "goal": "minvar",
  "algorithm": "optimum",
  "budget": ` + budget + `
}`
	}
	want := do(t, h, "POST", "/v1/select", body("3"))
	if want.Code != http.StatusOK || !strings.Contains(want.Body.String(), `"jan","mar"`) {
		t.Fatalf("budget 3: status %d, body %s", want.Code, want.Body.String())
	}
	for _, budget := range []string{"1e16", "1e300"} {
		rec := do(t, h, "POST", "/v1/select", body(budget))
		if rec.Code != http.StatusOK || rec.Body.String() != want.Body.String() {
			t.Errorf("budget %s: status %d, body %s; want %s", budget, rec.Code, rec.Body.String(), want.Body.String())
		}
	}
}

// mustNew builds a Server, failing the test on configuration errors
// (only possible when durable state is requested).
func mustNew(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func newTestServer(cfg Config) http.Handler {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s.Handler()
}

// do runs one request through the handler and returns the recorder.
func do(t testing.TB, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var req *http.Request
	if body == "" {
		req = httptest.NewRequest(method, path, nil)
	} else {
		req = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// decodeBody unmarshals a response body into a generic map.
func decodeBody(t *testing.T, rec *httptest.ResponseRecorder) map[string]any {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &m); err != nil {
		t.Fatalf("invalid JSON response %q: %v", rec.Body.String(), err)
	}
	return m
}

// wantError asserts a structured error response with the given status
// and code.
func wantError(t *testing.T, rec *httptest.ResponseRecorder, status int, code string) {
	t.Helper()
	if rec.Code != status {
		t.Fatalf("status %d, want %d (body: %s)", rec.Code, status, rec.Body.String())
	}
	m := decodeBody(t, rec)
	e, ok := m["error"].(map[string]any)
	if !ok {
		t.Fatalf("no structured error in %s", rec.Body.String())
	}
	if e["code"] != code {
		t.Fatalf("error code %v, want %s", e["code"], code)
	}
	if msg, _ := e["message"].(string); msg == "" {
		t.Fatal("error has no message")
	}
}

func TestSelectInlineObjects(t *testing.T) {
	h := newTestServer(Config{})
	rec := do(t, h, "POST", "/v1/select", selectBody(inlineObjects))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("X-Cache = %q, want miss", got)
	}
	m := decodeBody(t, rec)
	for _, key := range []string{"chosen", "ids", "cost_spent", "objective_before", "objective_after"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("response missing %q: %s", key, rec.Body.String())
		}
	}
	if m["objective_before"].(float64) < m["objective_after"].(float64) {
		t.Fatalf("uncertainty rose: %s", rec.Body.String())
	}
}

func TestSelectOnStoredDatasetIsCacheHitOnRepeat(t *testing.T) {
	h := newTestServer(Config{})

	up := do(t, h, "POST", "/v1/datasets", datasetBody)
	if up.Code != http.StatusOK {
		t.Fatalf("upload status %d: %s", up.Code, up.Body.String())
	}
	id, _ := decodeBody(t, up)["id"].(string)
	if !strings.HasPrefix(id, "ds_") {
		t.Fatalf("bad dataset id %q", id)
	}

	body := selectBody(`"dataset_id": "` + id + `",`)
	first := do(t, h, "POST", "/v1/select", body)
	if first.Code != http.StatusOK {
		t.Fatalf("first select status %d: %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q, want miss", got)
	}

	second := do(t, h, "POST", "/v1/select", body)
	if second.Code != http.StatusOK {
		t.Fatalf("second select status %d: %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q, want hit (repeated identical request must be served from cache)", got)
	}
	if first.Body.String() != second.Body.String() {
		t.Fatalf("cache returned a different answer:\n%s\nvs\n%s", first.Body.String(), second.Body.String())
	}

	// A different request on the same dataset must not alias the entry.
	other := strings.Replace(body, `"budget": 1`, `"budget": 2`, 1)
	third := do(t, h, "POST", "/v1/select", other)
	if third.Code != http.StatusOK {
		t.Fatalf("third select status %d: %s", third.Code, third.Body.String())
	}
	if got := third.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("different budget served from cache: X-Cache = %q", got)
	}
}

func TestDatasetUploadIsIdempotent(t *testing.T) {
	h := newTestServer(Config{})
	a := decodeBody(t, do(t, h, "POST", "/v1/datasets", datasetBody))
	b := decodeBody(t, do(t, h, "POST", "/v1/datasets", datasetBody))
	if a["id"] != b["id"] {
		t.Fatalf("same content, different ids: %v vs %v", a["id"], b["id"])
	}
	if a["objects"].(float64) != 3 {
		t.Fatalf("objects = %v", a["objects"])
	}
	rec := do(t, h, "GET", "/v1/datasets/"+a["id"].(string), "")
	if rec.Code != http.StatusOK {
		t.Fatalf("metadata status %d", rec.Code)
	}
	if decodeBody(t, rec)["name"] != "quickstart" {
		t.Fatalf("metadata: %s", rec.Body.String())
	}
}

func TestRankEndpoint(t *testing.T) {
	h := newTestServer(Config{})
	body := `{` + problemBody + `, "measure": "uniqueness",
  "objects": [
    {"name": "jan", "current": 100, "cost": 1, "values": [95, 100, 105], "probs": [1, 1, 1]},
    {"name": "feb", "current": 120, "cost": 1, "values": [90, 120, 150], "probs": [1, 1, 1]},
    {"name": "mar", "current": 140, "cost": 1, "values": [130, 140, 150], "probs": [1, 1, 1]}
  ]}`
	rec := do(t, h, "POST", "/v1/rank", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	objs, ok := decodeBody(t, rec)["objects"].([]any)
	if !ok || len(objs) != 3 {
		t.Fatalf("rank response: %s", rec.Body.String())
	}
	first := objs[0].(map[string]any)
	// feb has by far the widest support, so it must rank first.
	if first["name"] != "feb" {
		t.Fatalf("top-ranked object %v, want feb", first["name"])
	}
	if do(t, h, "POST", "/v1/rank", body).Header().Get("X-Cache") != "hit" {
		t.Fatal("repeated rank request missed the cache")
	}
}

func TestAssessEndpoint(t *testing.T) {
	h := newTestServer(Config{})
	body := `{` + problemBody + `,
  "objects": [
    {"name": "jan", "current": 100, "cost": 1, "values": [95, 100, 105], "probs": [1, 1, 1]},
    {"name": "feb", "current": 120, "cost": 1, "values": [90, 120, 150], "probs": [1, 1, 1]},
    {"name": "mar", "current": 140, "cost": 1, "values": [130, 140, 150], "probs": [1, 1, 1]}
  ]}`
	rec := do(t, h, "POST", "/v1/assess", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	m := decodeBody(t, rec)
	for _, key := range []string{"bias", "bias_variance", "duplicity", "fragility", "perturbations"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("assess response missing %q: %s", key, rec.Body.String())
		}
	}
}

func TestErrorPaths(t *testing.T) {
	h := newTestServer(Config{})
	badProbs := strings.Replace(selectBody(inlineObjects), `"probs": [1, 1, 1]`, `"probs": [1, -1, 1]`, 1)
	unknownMeasure := strings.Replace(selectBody(inlineObjects), `"measure": "uniqueness"`, `"measure": "vibes"`, 1)
	maxPrOptimum := strings.NewReplacer(`"measure": "uniqueness"`, `"measure": "fairness"`,
		`"goal": "minvar"`, `"goal": "maxpr"`, `"algorithm": "greedy"`, `"algorithm": "optimum"`).Replace(selectBody(inlineObjects))

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"bad probabilities", "POST", "/v1/select", badProbs, http.StatusBadRequest, "bad_request"},
		{"unknown measure", "POST", "/v1/select", unknownMeasure, http.StatusBadRequest, "bad_request"},
		{"maxpr non-greedy algorithm", "POST", "/v1/select", maxPrOptimum, http.StatusBadRequest, "bad_request"},
		{"malformed json", "POST", "/v1/select", `{"objects": [`, http.StatusBadRequest, "bad_request"},
		{"unknown field", "POST", "/v1/select", `{"wat": 1}`, http.StatusBadRequest, "bad_request"},
		{"unknown dataset", "POST", "/v1/select", selectBody(`"dataset_id": "ds_missing",`), http.StatusNotFound, "not_found"},
		{"objects and dataset_id", "POST", "/v1/select", strings.Replace(selectBody(`"dataset_id": "ds_x",`), `"claim"`, `"objects": [{"name": "a", "current": 1, "cost": 1, "values": [1], "probs": [1]}], "claim"`, 1), http.StatusBadRequest, "bad_request"},
		{"bad dataset upload", "POST", "/v1/datasets", `{"objects": [{"name": "x", "current": 1, "cost": 1}]}`, http.StatusBadRequest, "bad_request"},
		{"dataset metadata missing", "GET", "/v1/datasets/ds_nope", "", http.StatusNotFound, "not_found"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantError(t, do(t, h, tc.method, tc.path, tc.body), tc.status, tc.code)
		})
	}
}

func TestOversizedPayloadIs413(t *testing.T) {
	h := newTestServer(Config{MaxBodyBytes: 128})
	wantError(t, do(t, h, "POST", "/v1/select", selectBody(inlineObjects)),
		http.StatusRequestEntityTooLarge, "payload_too_large")
}

// TestStrictDecodingErrorClasses pins what the request decoder rejects
// beyond encoding/json — trailing delimiters, repeated keys, and a
// complete value followed by bytes past the body limit — and the error
// message docs/API.md quotes.
func TestStrictDecodingErrorClasses(t *testing.T) {
	h := newTestServer(Config{MaxBodyBytes: 64})
	for _, body := range []string{`{"budget":1}}`, `{"budget":1} ]`, `{"budget":1,"BUDGET":2}`} {
		wantError(t, do(t, h, "POST", "/v1/select", body), http.StatusBadRequest, "bad_request")
	}
	wantError(t, do(t, h, "POST", "/v1/select", `{"budget":1}`+strings.Repeat(" ", 64)),
		http.StatusRequestEntityTooLarge, "payload_too_large")

	rec := do(t, h, "POST", "/v1/triage", `{"claims2": []}`)
	wantError(t, rec, http.StatusBadRequest, "bad_request")
	if msg := decodeBody(t, rec)["error"].(map[string]any)["message"]; msg != `parsing request: unknown field "claims2"` {
		t.Fatalf("message %q", msg)
	}
}

func TestComputeTimeoutIs504(t *testing.T) {
	h := newTestServer(Config{Timeout: time.Nanosecond})
	wantError(t, do(t, h, "POST", "/v1/select", selectBody(inlineObjects)),
		http.StatusGatewayTimeout, "timeout")
}

func TestHealthz(t *testing.T) {
	h := newTestServer(Config{})
	do(t, h, "POST", "/v1/select", selectBody(inlineObjects))
	do(t, h, "POST", "/v1/select", selectBody(inlineObjects))
	rec := do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	m := decodeBody(t, rec)
	if m["status"] != "ok" {
		t.Fatalf("health: %s", rec.Body.String())
	}
	cache, ok := m["cache"].(map[string]any)
	if !ok {
		t.Fatalf("no cache stats: %s", rec.Body.String())
	}
	if cache["hits"].(float64) < 1 || cache["misses"].(float64) < 1 {
		t.Fatalf("cache stats not tracking: %s", rec.Body.String())
	}
	if m["requests"].(float64) < 3 {
		t.Fatalf("request counter not tracking: %s", rec.Body.String())
	}
}

func TestMethodNotAllowed(t *testing.T) {
	h := newTestServer(Config{})
	if rec := do(t, h, "GET", "/v1/select", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/select status %d, want 405", rec.Code)
	}
}
