package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/factcheck/cleansel/internal/obs"
)

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := do(t, h, "GET", "/metrics", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q", ct)
	}
	return rec.Body.String()
}

// metricValue extracts one sample value from an exposition body; the
// sample line must match `name{labels} value` exactly (labels written
// in the order the vec declares them).
func metricValue(t *testing.T, body, sample string) float64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(sample) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("sample %q not found in exposition:\n%s", sample, body)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("sample %q has unparseable value %q", sample, m[1])
	}
	return v
}

// TestMetricsScrapeCountsRequests drives a known request mix and
// asserts the scrape reports exactly those counts: two identical
// selects (miss then hit) plus the request counters themselves.
func TestMetricsScrapeCountsRequests(t *testing.T) {
	h := newTestServer(Config{})
	body := selectBody(inlineObjects)
	for i := 0; i < 2; i++ {
		if rec := do(t, h, "POST", "/v1/select", body); rec.Code != http.StatusOK {
			t.Fatalf("select %d status %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	exp := scrape(t, h)

	if v := metricValue(t, exp, `cleanseld_requests_total{endpoint="select",code="200"}`); v != 2 {
		t.Fatalf("select requests = %v, want 2", v)
	}
	if v := metricValue(t, exp, `cleanseld_cache_requests_total{status="hit"}`); v != 1 {
		t.Fatalf("cache hits = %v, want 1", v)
	}
	if v := metricValue(t, exp, `cleanseld_cache_requests_total{status="miss"}`); v != 1 {
		t.Fatalf("cache misses = %v, want 1", v)
	}
	if v := metricValue(t, exp, `cleanseld_request_seconds_count{endpoint="select"}`); v != 2 {
		t.Fatalf("latency observations = %v, want 2", v)
	}
	if v := metricValue(t, exp, `cleanseld_request_seconds_bucket{endpoint="select",le="+Inf"}`); v != 2 {
		t.Fatalf("+Inf bucket = %v, want 2", v)
	}
	if v := metricValue(t, exp, `cleanseld_pool_capacity`); v < 1 {
		t.Fatalf("pool capacity = %v, want >= 1", v)
	}
	// The solve ticked the trace; its stage totals and engine counts,
	// the group engine's term walks among them, must reach /metrics.
	if v := metricValue(t, exp, `cleanseld_solve_stage_seconds_total{stage="solve"}`); v < 0 {
		t.Fatalf("solve stage seconds = %v", v)
	}
	if v := metricValue(t, exp, `cleanseld_engine_ops_total{op="ev_term_walks"}`); v < 1 {
		t.Fatalf("term walks = %v, want >= 1", v)
	}

	// A second scrape must report the first one as a completed request.
	exp = scrape(t, h)
	if v := metricValue(t, exp, `cleanseld_requests_total{endpoint="metrics",code="200"}`); v != 1 {
		t.Fatalf("metrics endpoint requests = %v, want 1", v)
	}
}

// TestMetricsCountConvolutionRoutes serves one traced select_maxpr
// request from the benchmark's generator and reads its convolution work
// off /metrics: the conv_ops counter there equals the conv_ops the
// request's own trace reports.
func TestMetricsCountConvolutionRoutes(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("wire", "testdata", "select_maxpr.json"))
	if err != nil {
		t.Fatal(err)
	}
	h := newTestServer(Config{})
	rec := do(t, h, "POST", "/v1/select?trace=1", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("select status %d: %s", rec.Code, rec.Body.String())
	}
	var env struct {
		Trace obs.Trace `json:"trace"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	var traced int64
	for _, c := range env.Trace.Counters {
		if c.Name == "conv_ops" {
			traced = c.Value
		}
	}
	if traced == 0 {
		t.Fatal("the traced select convolved nothing")
	}
	if got := metricValue(t, scrape(t, h), `cleanseld_engine_ops_total{op="conv_ops"}`); got != float64(traced) {
		t.Fatalf("/metrics conv_ops = %v, the request's trace says %d", got, traced)
	}
}

// TestHealthzAgreesWithMetrics asserts the satellite invariant: the
// /healthz statistics and the /metrics scrape read the same counters,
// so after any request mix the two views report identical numbers.
func TestHealthzAgreesWithMetrics(t *testing.T) {
	h := newTestServer(Config{})
	body := selectBody(inlineObjects)
	do(t, h, "POST", "/v1/select", body)
	do(t, h, "POST", "/v1/select", body)
	do(t, h, "POST", "/v1/select", body)

	health := decodeBody(t, do(t, h, "GET", "/healthz", ""))
	exp := scrape(t, h)

	cache := health["cache"].(map[string]any)
	if hits := metricValue(t, exp, `cleanseld_cache_requests_total{status="hit"}`); hits != cache["hits"].(float64) {
		t.Fatalf("hits disagree: metrics %v, healthz %v", hits, cache["hits"])
	}
	if misses := metricValue(t, exp, `cleanseld_cache_requests_total{status="miss"}`); misses != cache["misses"].(float64) {
		t.Fatalf("misses disagree: metrics %v, healthz %v", misses, cache["misses"])
	}
	if entries := metricValue(t, exp, `cleanseld_cache_entries`); entries != cache["entries"].(float64) {
		t.Fatalf("entries disagree: metrics %v, healthz %v", entries, cache["entries"])
	}
	coalesced := metricValue(t, exp, `cleanseld_cache_requests_total{status="coalesced"}`)
	if coalesced != health["coalesced"].(float64) {
		t.Fatalf("coalesced disagree: metrics %v, healthz %v", coalesced, health["coalesced"])
	}
	// requests: healthz counted itself in flight; the scrape then saw it
	// completed. 4 requests preceded the scrape (3 selects + healthz).
	if health["requests"].(float64) != 4 {
		t.Fatalf("healthz requests = %v, want 4", health["requests"])
	}
	total := 0.0
	for _, ep := range []string{"select", "healthz"} {
		total += metricValue(t, exp, fmt.Sprintf(`cleanseld_requests_total{endpoint=%q,code="200"}`, ep))
	}
	if total != 4 {
		t.Fatalf("completed requests at scrape time = %v, want 4", total)
	}
}

// TestRequestIDPropagation covers the X-Request-ID contract: a valid
// client ID is echoed, an invalid or missing one is replaced, and
// error envelopes carry the ID.
func TestRequestIDPropagation(t *testing.T) {
	h := newTestServer(Config{})

	req := httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "client-id-42")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got != "client-id-42" {
		t.Fatalf("valid client ID not propagated: %q", got)
	}

	req = httptest.NewRequest("GET", "/healthz", nil)
	req.Header.Set("X-Request-ID", "bad id\nwith junk")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-ID"); got == "" || strings.Contains(got, " ") {
		t.Fatalf("invalid client ID not replaced: %q", got)
	}

	rec = do(t, h, "GET", "/healthz", "")
	if rec.Header().Get("X-Request-ID") == "" {
		t.Fatal("no generated request ID")
	}

	rec = do(t, h, "POST", "/v1/select", `{"wat": 1}`)
	m := decodeBody(t, rec)
	e := m["error"].(map[string]any)
	if e["request_id"] != rec.Header().Get("X-Request-ID") {
		t.Fatalf("error envelope request_id %v != header %q", e["request_id"], rec.Header().Get("X-Request-ID"))
	}
}

// TestTraceEnvelope asserts ?trace=1 wraps the result with stage
// timings while leaving the cached body — and therefore every
// untraced response — byte-identical.
func TestTraceEnvelope(t *testing.T) {
	h := newTestServer(Config{})
	body := selectBody(inlineObjects)

	plain := do(t, h, "POST", "/v1/select", body)
	if plain.Code != http.StatusOK {
		t.Fatalf("select status %d: %s", plain.Code, plain.Body.String())
	}

	traced := do(t, h, "POST", "/v1/select?trace=1", body)
	if traced.Code != http.StatusOK {
		t.Fatalf("traced select status %d: %s", traced.Code, traced.Body.String())
	}
	if traced.Header().Get("X-Cache") != "hit" {
		t.Fatalf("traced repeat X-Cache = %q, want hit (the trace query must not salt the cache key)", traced.Header().Get("X-Cache"))
	}
	var env struct {
		Result    json.RawMessage `json:"result"`
		RequestID string          `json:"request_id"`
		Cache     string          `json:"cache"`
		Trace     struct {
			Stages []struct {
				Name    string  `json:"name"`
				Count   int64   `json:"count"`
				TotalMS float64 `json:"total_ms"`
			} `json:"stages"`
		} `json:"trace"`
	}
	if err := json.Unmarshal(traced.Body.Bytes(), &env); err != nil {
		t.Fatalf("trace envelope: %v in %s", err, traced.Body.String())
	}
	if env.Cache != "hit" || env.RequestID == "" {
		t.Fatalf("envelope = cache %q, request_id %q", env.Cache, env.RequestID)
	}
	// The wrapped result is the cached body, byte for byte.
	want := strings.TrimSuffix(plain.Body.String(), "\n")
	if string(env.Result) != want {
		t.Fatalf("traced result diverged from cached body:\n%s\nvs\n%s", env.Result, want)
	}

	// An uncached traced solve reports the solve stages.
	fresh := do(t, h, "POST", "/v1/select?trace=1", strings.Replace(body, `"budget": 1`, `"budget": 2`, 1))
	if fresh.Code != http.StatusOK {
		t.Fatalf("fresh traced select status %d: %s", fresh.Code, fresh.Body.String())
	}
	if err := json.Unmarshal(fresh.Body.Bytes(), &env); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, st := range env.Trace.Stages {
		names[st.Name] = true
	}
	if !names["solve"] || !names["compile"] {
		t.Fatalf("fresh trace missing solve stages: %+v", env.Trace.Stages)
	}

	// A plain repeat after tracing still serves the original bytes.
	again := do(t, h, "POST", "/v1/select", body)
	if again.Body.String() != plain.Body.String() {
		t.Fatal("tracing a request changed the bytes later clients are served")
	}
}

// TestEndpointOfBoundsCardinality pins the label set: arbitrary client
// paths must not mint new label values.
func TestEndpointOfBoundsCardinality(t *testing.T) {
	cases := map[string]string{
		"/v1/select":           "select",
		"/v1/rank":             "rank",
		"/v1/assess":           "assess",
		"/v1/datasets":         "datasets",
		"/v1/datasets/ds_abc":  "datasets",
		"/healthz":             "healthz",
		"/metrics":             "metrics",
		"/favicon.ico":         "other",
		"/v1/selectx":          "other",
		"/../../../etc/passwd": "other",
	}
	for path, want := range cases {
		if got := endpointOf(path); got != want {
			t.Errorf("endpointOf(%q) = %q, want %q", path, got, want)
		}
	}
}
