package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"github.com/factcheck/cleansel/internal/claims"
	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/dist"
	"github.com/factcheck/cleansel/internal/expt"
	"github.com/factcheck/cleansel/internal/model"
	"github.com/factcheck/cleansel/internal/server/wire"
)

// encodeWireObjects maps a model database onto the wire object format.
func encodeWireObjects(db *model.DB) []wire.Object {
	objs := make([]wire.Object, db.N())
	for i, o := range db.Objects {
		w := wire.Object{Name: o.Name, Current: o.Current, Cost: o.Cost}
		switch v := o.Value.(type) {
		case *dist.Discrete:
			w.Values = v.Values
			w.Probs = v.Probs
		case *dist.Normal:
			w.Normal = &wire.Normal{Mean: v.Mu, Sigma: v.Sigma}
		default:
			panic("unencodable value model")
		}
		objs[i] = w
	}
	return objs
}

// encodeWireClaim maps an internal claim onto the wire, optionally
// renamed (the arrival's "paraphrase" name).
func encodeWireClaim(c *claims.Claim, name string) wire.Claim {
	if name == "" {
		name = c.Name
	}
	coef := make(map[string]float64, len(c.Coef))
	for _, id := range c.Vars() {
		coef[strconv.Itoa(id)] = c.Coef[id]
	}
	return wire.Claim{Name: name, Const: c.Const, Coef: coef}
}

// encodeTriageClaim maps one stream arrival onto the wire.
func encodeTriageClaim(name string, s *claims.Set) wire.TriageClaim {
	dir := "higher"
	if s.Dir == claims.LowerIsStronger {
		dir = "lower"
	}
	ref := s.Ref
	tc := wire.TriageClaim{
		Claim:     encodeWireClaim(s.Original, name),
		Direction: dir,
		Reference: &ref,
	}
	for _, p := range s.Perturbs {
		tc.Perturbations = append(tc.Perturbations, wire.Perturbation{
			Claim:       encodeWireClaim(p.Claim, ""),
			Sensibility: p.Sensibility,
		})
	}
	return tc
}

// triageFixture returns wire objects and triage claims for a stream
// over one shared synthetic dataset.
func triageFixture(n, arrivals, families int) ([]wire.Object, []wire.TriageClaim) {
	db, stream := expt.ClaimStream(datasets.UR, n, 4, arrivals, families, 3)
	objs := encodeWireObjects(db)
	tcs := make([]wire.TriageClaim, len(stream))
	for i, sc := range stream {
		tcs[i] = encodeTriageClaim(sc.Name, sc.Set)
	}
	return objs, tcs
}

func marshalJSON(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// assessBodyFor builds the /v1/assess request equivalent to one triage
// claim over the same inline objects.
func assessBodyFor(t testing.TB, objs []wire.Object, tc wire.TriageClaim) string {
	t.Helper()
	req := wire.AssessRequest{Problem: wire.Problem{
		Objects:       objs,
		Claim:         tc.Claim,
		Direction:     tc.Direction,
		Reference:     tc.Reference,
		Perturbations: tc.Perturbations,
	}}
	return marshalJSON(t, req)
}

// TestTriageEndpointMatchesAssess is the end-to-end amortization pin:
// every per-claim report served by POST /v1/triage is byte-identical
// (as JSON numbers) to what POST /v1/assess returns for that claim
// alone over the same inline dataset.
func TestTriageEndpointMatchesAssess(t *testing.T) {
	objs, tcs := triageFixture(16, 6, 3)
	h := newTestServer(Config{})

	want := make([]wire.Report, len(tcs))
	for i, tc := range tcs {
		rec := do(t, h, http.MethodPost, "/v1/assess", assessBodyFor(t, objs, tc))
		if rec.Code != http.StatusOK {
			t.Fatalf("assess %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &want[i]); err != nil {
			t.Fatal(err)
		}
	}

	body := marshalJSON(t, wire.TriageRequest{Objects: objs, Measure: "uniqueness", Claims: tcs})
	rec := do(t, h, http.MethodPost, "/v1/triage", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("triage: status %d: %s", rec.Code, rec.Body.String())
	}
	var resp wire.TriageResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Claims) != len(tcs) {
		t.Fatalf("triage returned %d entries for %d claims", len(resp.Claims), len(tcs))
	}
	if resp.Stats.Claims != len(tcs) || resp.Stats.Unique != 3 || resp.Stats.Errors != 0 {
		t.Fatalf("stats = %+v, want {Claims:%d Unique:3 Errors:0}", resp.Stats, len(tcs))
	}
	prevScore := 0.0
	for r, e := range resp.Claims {
		if e.Error != nil {
			t.Fatalf("entry %d errored: %+v", e.Index, e.Error)
		}
		if e.Rank != r+1 {
			t.Fatalf("entry %d has rank %d, want %d", r, e.Rank, r+1)
		}
		if r > 0 && e.Score > prevScore {
			t.Fatalf("ranking not descending at rank %d: %v after %v", e.Rank, e.Score, prevScore)
		}
		prevScore = e.Score
		if e.Report == nil || *e.Report != want[e.Index] {
			t.Fatalf("claim %d: triage report %+v != assess report %+v", e.Index, e.Report, want[e.Index])
		}
		if e.Score != want[e.Index].DupVariance {
			t.Fatalf("claim %d: uniqueness score %v != duplicity variance %v", e.Index, e.Score, want[e.Index].DupVariance)
		}
	}

	// A byte-identical repeat must come from the result cache.
	rec = do(t, h, http.MethodPost, "/v1/triage", body)
	if got := rec.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("repeat triage X-Cache = %q, want hit", got)
	}
}

// TestTriageEmptyClaims pins the empty-batch contract: 400 before any
// solve is attempted.
func TestTriageEmptyClaims(t *testing.T) {
	objs, _ := triageFixture(16, 1, 1)
	h := newTestServer(Config{})
	body := marshalJSON(t, wire.TriageRequest{Objects: objs})
	rec := do(t, h, http.MethodPost, "/v1/triage", body)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("empty claims: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	m := decodeBody(t, rec)
	env, _ := m["error"].(map[string]any)
	if env["code"] != "bad_request" {
		t.Fatalf("empty claims error envelope: %v", m)
	}
}

// TestTriageMalformedClaimIsolated pins per-claim failure isolation on
// the wire: a claim referencing an unknown object gets an error entry
// ranked last; its batchmates are scored normally.
func TestTriageMalformedClaimIsolated(t *testing.T) {
	objs, tcs := triageFixture(16, 3, 3)
	tcs[1].Claim.Coef = map[string]float64{"99": 1}
	h := newTestServer(Config{})
	body := marshalJSON(t, wire.TriageRequest{Objects: objs, Claims: tcs})
	rec := do(t, h, http.MethodPost, "/v1/triage", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp wire.TriageResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Stats.Errors != 1 || resp.Stats.Claims != 3 {
		t.Fatalf("stats = %+v, want 1 error of 3 claims", resp.Stats)
	}
	last := resp.Claims[len(resp.Claims)-1]
	if last.Index != 1 || last.Error == nil || last.Rank != 0 {
		t.Fatalf("malformed claim entry = %+v, want index 1, rank 0, error set", last)
	}
	if !strings.Contains(last.Error.Message, "bad object id") {
		t.Fatalf("error message %q does not name the bad object id", last.Error.Message)
	}
	for _, e := range resp.Claims[:len(resp.Claims)-1] {
		if e.Error != nil || e.Report == nil {
			t.Fatalf("healthy entry %+v poisoned by batchmate", e)
		}
	}
}

// TestTriageTraceEnvelope pins ?trace=1: the result is wrapped in the
// standard envelope and the trace records triage dedup activity.
func TestTriageTraceEnvelope(t *testing.T) {
	objs, tcs := triageFixture(16, 4, 2) // two renamed duplicates
	h := newTestServer(Config{})
	body := marshalJSON(t, wire.TriageRequest{Objects: objs, Claims: tcs})
	rec := do(t, h, http.MethodPost, "/v1/triage?trace=1", body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	m := decodeBody(t, rec)
	if m["result"] == nil || m["request_id"] == "" || m["trace"] == nil {
		t.Fatalf("trace envelope missing fields: %v", m)
	}
	trace := marshalJSON(t, m["trace"])
	if !strings.Contains(trace, "triage_dedup_hits") {
		t.Fatalf("trace has no triage_dedup_hits counter: %s", trace)
	}
}

// TestTriageMetrics pins cleanseld_triage_claims_total: processed
// claims counted by outcome, cache-served repeats not re-counted.
func TestTriageMetrics(t *testing.T) {
	objs, tcs := triageFixture(16, 3, 3)
	tcs[2].Claim.Coef = map[string]float64{"99": 1}
	h := newTestServer(Config{})
	body := marshalJSON(t, wire.TriageRequest{Objects: objs, Claims: tcs})
	for i := 0; i < 2; i++ { // second round is a cache hit
		if rec := do(t, h, http.MethodPost, "/v1/triage", body); rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	rec := do(t, h, http.MethodGet, "/metrics", "")
	metrics := rec.Body.String()
	for _, line := range []string{
		`cleanseld_triage_claims_total{outcome="ok"} 2`,
		`cleanseld_triage_claims_total{outcome="error"} 1`,
	} {
		if !strings.Contains(metrics, line) {
			t.Fatalf("metrics missing %q:\n%s", line, metrics)
		}
	}
}

// triageBenchRun numbers the body-building passes of
// BenchmarkTriageThroughput. Go calls a sub-benchmark's body several
// times (a b.N=1 probe, then the timed run, once per -count
// repetition) against the same server, so a claim name must carry the
// pass number as well as the iteration, or a later pass replays an
// earlier pass's names and times result-cache hits.
var triageBenchRun int

// BenchmarkTriageThroughput compares the amortized bulk path against
// the naive loop a client would otherwise run: N sequential /v1/assess
// calls, each arrival under a fresh paraphrase name (so the result
// cache cannot collapse them — the honest model of a viral claim
// reworded at every repost). Every timed request is a cache miss.
// Parsed by scripts/bench.sh into BENCH_triage.json.
func BenchmarkTriageThroughput(b *testing.B) {
	const n, families, benchW = 40, 5, 6
	for _, batch := range []int{1, 10, 100} {
		db, stream := expt.ClaimStream(datasets.UR, n, benchW, batch, families, 3)
		objs := encodeWireObjects(db)
		h := newTestServer(Config{})

		// Request bodies are built before the timer starts on both paths
		// (renamed per iteration so the result cache never shortcuts a
		// repeat): the measurement is server throughput, not client
		// encoding.
		b.Run(fmt.Sprintf("naive/batch=%d", batch), func(b *testing.B) {
			triageBenchRun++
			bodies := make([][]string, 0, b.N)
			for i := 0; i < b.N; i++ {
				iter := make([]string, len(stream))
				for j, sc := range stream {
					tc := encodeTriageClaim(fmt.Sprintf("run%d-iter%d-%s", triageBenchRun, i, sc.Name), sc.Set)
					iter[j] = assessBodyFor(b, objs, tc)
				}
				bodies = append(bodies, iter)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, body := range bodies[i] {
					rec := do(b, h, http.MethodPost, "/v1/assess", body)
					if rec.Code != http.StatusOK {
						b.Fatalf("assess %d: status %d: %s", j, rec.Code, rec.Body.String())
					}
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
		})
		b.Run(fmt.Sprintf("amortized/batch=%d", batch), func(b *testing.B) {
			triageBenchRun++
			bodies := make([]string, 0, b.N)
			for i := 0; i < b.N; i++ {
				tcs := make([]wire.TriageClaim, len(stream))
				for j, sc := range stream {
					tcs[j] = encodeTriageClaim(fmt.Sprintf("run%d-iter%d-%s", triageBenchRun, i, sc.Name), sc.Set)
				}
				bodies = append(bodies, marshalJSON(b, wire.TriageRequest{Objects: objs, Claims: tcs}))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rec := do(b, h, http.MethodPost, "/v1/triage", bodies[i])
				if rec.Code != http.StatusOK {
					b.Fatalf("triage: status %d: %s", rec.Code, rec.Body.String())
				}
			}
			b.ReportMetric(float64(batch)*float64(b.N)/b.Elapsed().Seconds(), "claims/s")
		})
	}
}
