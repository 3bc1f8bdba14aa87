package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"testing"

	"github.com/factcheck/cleansel/internal/core"
	"github.com/factcheck/cleansel/internal/server/wire"
)

// normalObjects is two normal-valued objects, a and b, inline.
const normalObjects = `"objects": [
  {"name": "a", "current": 10, "cost": 1, "normal": {"mean": 10, "sigma": 2}},
  {"name": "b", "current": 12, "cost": 1, "normal": {"mean": 12, "sigma": 1}}]`

// gapClaim is the claim b − a with two perturbations: a alone, and the
// claim itself.
const gapClaim = `"claim": {"name": "gap", "coef": {"1": 1, "0": -1}},
  "perturbations": [
    {"claim": {"name": "a", "coef": {"0": 1}}, "sensibility": 1},
    {"claim": {"name": "gap", "coef": {"1": 1, "0": -1}}, "sensibility": 1}]`

// TestDiscretizeOutOfRangeIsBadRequest pins the discretize bound on
// every endpoint that reads the field: a point count outside
// [0, core.MaxDiscretize] is a 400 before anything is discretized
// (2^40 points would ask for an 8 TiB slice per normal object), and the
// server goes on answering.
func TestDiscretizeOutOfRangeIsBadRequest(t *testing.T) {
	h := newTestServer(Config{})
	for _, k := range []int{core.MaxDiscretize + 1, -1, 1 << 40} {
		d := fmt.Sprintf(`, "discretize": %d`, k)
		problem := normalObjects + `, ` + gapClaim + d
		for _, c := range []struct{ path, body string }{
			{"/v1/select", `{` + problem + `, "measure": "uniqueness", "budget": 1}`},
			{"/v1/rank", `{` + problem + `, "measure": "uniqueness"}`},
			{"/v1/rank", `{` + problem + `, "measure": "robustness"}`},
			{"/v1/assess", `{` + problem + `}`},
			{"/v1/triage", `{` + normalObjects + d + `, "claims": [{` + gapClaim + `}]}`},
		} {
			t.Run(fmt.Sprintf("%s/discretize=%d", c.path, k), func(t *testing.T) {
				wantError(t, do(t, h, http.MethodPost, c.path, c.body), http.StatusBadRequest, "bad_request")
			})
		}
	}
	if rec := do(t, h, http.MethodGet, "/healthz", ""); rec.Code != http.StatusOK {
		t.Fatalf("healthz after rejected requests: status %d", rec.Code)
	}
}

// TestAssessDiscretizeKeepsExactBias pins the assessment's one discrete
// view: discretize sets the points duplicity and fragility are computed
// on, while the bias variance stays exact over the normal laws, on
// /v1/assess and on a fairness /v1/triage alike, whose report bytes
// agree.
func TestAssessDiscretizeKeepsExactBias(t *testing.T) {
	h := newTestServer(Config{})
	for _, c := range []struct {
		field string // the discretize field, if any
		frag  float64
	}{
		{"", 3.668436202446002},
		{`, "discretize": 6`, 3.668436202446002},
		{`, "discretize": 64`, 7.042100419369989},
	} {
		rec := do(t, h, http.MethodPost, "/v1/assess", `{`+normalObjects+`, `+gapClaim+c.field+`}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("assess%s: status %d: %s", c.field, rec.Code, rec.Body.String())
		}
		assessBody := bytes.TrimSpace(rec.Body.Bytes())
		var rep wire.Report
		if err := json.Unmarshal(assessBody, &rep); err != nil {
			t.Fatal(err)
		}
		if rep.BiasVariance != 0.25 || rep.DupVariance != 0.25 || rep.FragVariance != c.frag {
			t.Fatalf("assess%s: variances bias %v dup %v frag %v, want 0.25, 0.25, %v",
				c.field, rep.BiasVariance, rep.DupVariance, rep.FragVariance, c.frag)
		}

		rec = do(t, h, http.MethodPost, "/v1/triage",
			`{`+normalObjects+`, "measure": "fairness"`+c.field+`, "claims": [{`+gapClaim+`}]}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("triage%s: status %d: %s", c.field, rec.Code, rec.Body.String())
		}
		var resp struct {
			Claims []struct {
				Score  float64         `json:"score"`
				Report json.RawMessage `json:"report"`
			} `json:"claims"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Claims) != 1 || resp.Claims[0].Score != 0.25 {
			t.Fatalf("triage%s: %s, want one claim scored 0.25", c.field, rec.Body.String())
		}
		if !bytes.Equal(resp.Claims[0].Report, assessBody) {
			t.Fatalf("triage%s: report %s, assess report %s", c.field, resp.Claims[0].Report, assessBody)
		}
	}
}

// TestSelectDiscretizeSetsMaxPrView: discretize sets the view a fairness
// select takes of normal objects, here MaxPr over mixed value models
// (a and c normal, b discrete): 2 points answer [a], and absent, 0 or
// 6 points answer [a c].
func TestSelectDiscretizeSetsMaxPrView(t *testing.T) {
	h := newTestServer(Config{})
	const problem = `"objects": [
  {"name": "a", "current": 10, "cost": 1, "normal": {"mean": 10, "sigma": 2}},
  {"name": "b", "current": 12, "cost": 1, "values": [10, 12, 14], "probs": [0.25, 0.5, 0.25]},
  {"name": "c", "current": 9, "cost": 1, "normal": {"mean": 9, "sigma": 3}}],
  "claim": {"name": "gap", "coef": {"1": 1, "0": -1}},
  "perturbations": [
    {"claim": {"name": "a", "coef": {"0": 1}}, "sensibility": 1},
    {"claim": {"name": "p", "coef": {"2": -1, "1": 1}}, "sensibility": 1}],
  "goal": "maxpr", "budget": 2, "tau": 0.5`
	for _, c := range []struct {
		field  string
		chosen []string
		after  float64
	}{
		{`, "discretize": 2`, []string{"a"}, 0.5},
		{"", []string{"a", "c"}, 0.38888888888888884},
		{`, "discretize": 0`, []string{"a", "c"}, 0.38888888888888884},
		{`, "discretize": 6`, []string{"a", "c"}, 0.38888888888888884},
	} {
		rec := do(t, h, http.MethodPost, "/v1/select", `{`+problem+c.field+`}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("select%s: status %d: %s", c.field, rec.Code, rec.Body.String())
		}
		var res wire.Result
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Chosen, c.chosen) || res.After != c.after {
			t.Errorf("select%s: chosen %v, After %v; want %v, %v", c.field, res.Chosen, res.After, c.chosen, c.after)
		}
	}
}
