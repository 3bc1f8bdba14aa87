package server

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/factcheck/cleansel/internal/server/wire"
)

// The pins below were produced by the encoding/json codec this package
// used before the hand-written one, from the same request bodies:
// dataset IDs, cache keys and session specs are persisted (dataset file
// names, CLEANSNP snapshots, session snapshots), so a changed byte
// would strand state an earlier build wrote.

// pinUploadBody is a dataset upload whose canonical encoding exercises
// escaping (HTML characters, U+2028, a lone surrogate, invalid UTF-8),
// float formatting at both exponent cutoffs, -0, and case-insensitive
// keys.
const pinUploadBody = `{"name": "pin <&> dataset",
 "objects": [
  {"name": "a<b>&c", "current": -0, "cost": 1e-7,
   "values": [0.1, 1e21, -2.5e-7, 123456789012345678901, 1e-6], "probs": [1, 2, 3, 4, 5]},
  {"name": "café ` + "  \xff" + ` \ud800", "current": 5e-324, "cost": 1,
   "normal": {"mean": -0, "sigma": 0.000001}},
  {"NAME": "upper", "Current": 3, "cost": 2, "values": [1], "probs": [1], "normal": null}
 ]}`

// pinSelectBody is a select request that need not solve: its cache key
// covers omitempty, -0, the float exponent cutoffs, map key order, nil
// versus empty maps, escapes and a full-width seed.
const pinSelectBody = `{"objects":[{"name":"x<y","current":-0,"cost":1,
  "values":[1e-6,9.999999999999999e-7,1e21,999999999999999900000,-1E-400],"probs":[1,1,1,1,1]}],
 "claim":{"name":"c ` + " " + ` &","const":0,"coef":{"10":1,"2":-0,"0":0.1,"é":2e-7}},
 "direction":"lower","reference":0,
 "perturbations":[{"claim":{"name":"p","coef":{}},"sensibility":-0},
  {"claim":{"name":"q","coef":null},"sensibility":5e-324}],
 "discretize":0,"measure":"fairness","goal":"maxpr","algorithm":"greedy",
 "BUDGET":2,"tau":0.25,"seed":18446744073709551615}`

// pinSolvableSelectBody is a select request that solves; the cache
// snapshot fixture holds its answer.
const pinSolvableSelectBody = `{"objects": [
  {"name": "jan <&>", "current": 100, "cost": 0.5, "values": [95, 100, 105.25], "probs": [1, 1, 1]},
  {"name": "féb ` + " " + `", "current": 120, "cost": 1, "values": [90, 120, 150], "probs": [0.25, 0.5, 0.25]},
  {"name": "mar", "current": 140, "cost": 1, "normal": {"mean": 140, "sigma": 8}}
 ],
 "claim": {"name": "mar-vs-jan", "coef": {"2": 1, "0": -1}},
 "direction": "lower", "reference": 0,
 "perturbations": [
  {"claim": {"name": "feb-vs-jan", "coef": {"1": 1, "0": -1}}, "sensibility": 1},
  {"claim": {"name": "mar-vs-feb", "const": 1e-7, "coef": {"2": 1, "1": -1}}, "sensibility": 0.5}
 ],
 "Measure": "fairness", "goal": "minvar", "BUDGET": 1.5, "seed": 7}`

// pinSessionBody is a session create request; its canonical spec is
// what a session snapshot persists.
const pinSessionBody = `{"objects": [
  {"name": "jan", "current": 100, "cost": 1, "values": [95, 100, 105], "probs": [1, 1, 1]},
  {"name": "féb <>", "current": 120, "cost": 1e-7, "values": [90, 120, 150], "probs": [1, 1, 1]},
  {"name": "mar", "current": -0, "cost": 1, "values": [130, 140, 150], "probs": [1, 1, 1]}
 ],
 "claim": {"name": "mar-vs-jan", "coef": {"2": 1, "0": -1}},
 "reference": 1e21,
 "perturbations": [
  {"claim": {"name": "feb-vs-jan", "coef": {"1": 1, "0": -1}}, "sensibility": 1},
  {"claim": {"name": "mar-vs-feb", "coef": {"2": 1, "1": -1}}, "sensibility": 1}
 ],
 "goal": "maxpr", "tau": 1, "Budget": 3}`

func TestDatasetIDPinned(t *testing.T) {
	ds, err := wire.DecodeDataset(strings.NewReader(pinUploadBody))
	if err != nil {
		t.Fatal(err)
	}
	id, canonical := datasetID(ds.Objects)
	const wantCanonical = "[{\"name\":\"a\\u003cb\\u003e\\u0026c\",\"current\":-0,\"cost\":1e-7,\"values\":[0.1,1e+21,-2.5e-7,123456789012345680000,0.000001],\"probs\":[1,2,3,4,5]},{\"name\":\"caf\u00e9 \\u2028 \ufffd \ufffd\",\"current\":5e-324,\"cost\":1,\"normal\":{\"mean\":-0,\"sigma\":0.000001}},{\"name\":\"upper\",\"current\":3,\"cost\":2,\"values\":[1],\"probs\":[1]}]"
	if string(canonical) != wantCanonical {
		t.Fatalf("canonical objects\n%s\nwant\n%s", canonical, wantCanonical)
	}
	const wantID = "ds_d92512b70f6b27c97342556b89d9788458c389cfb75d6c8a36d24d820ffd4241"
	if id != wantID {
		t.Fatalf("dataset id %s, want %s", id, wantID)
	}
	up := do(t, newTestServer(Config{}), "POST", "/v1/datasets", pinUploadBody)
	if got, _ := decodeBody(t, up)["id"].(string); up.Code != http.StatusOK || got != wantID {
		t.Fatalf("upload answered %d %s, want id %s", up.Code, up.Body.String(), wantID)
	}
}

func TestCacheKeyPinned(t *testing.T) {
	task, err := wire.DecodeTask(strings.NewReader(pinSelectBody))
	if err != nil {
		t.Fatal(err)
	}
	const want = "59240f14022708617a5cb5cc45ea6e8c9ee67d323ad56ab8dcdd06b89c153b39"
	if got := cacheKey("select", &task); got != want {
		t.Fatalf("cache key %s, want %s", got, want)
	}
}

func TestSessionSpecPinned(t *testing.T) {
	req, err := wire.DecodeSession(strings.NewReader(pinSessionBody))
	if err != nil {
		t.Fatal(err)
	}
	const want = "{\"objects\":[{\"name\":\"jan\",\"current\":100,\"cost\":1,\"values\":[95,100,105],\"probs\":[1,1,1]},{\"name\":\"f\u00e9b \\u003c\\u003e\",\"current\":120,\"cost\":1e-7,\"values\":[90,120,150],\"probs\":[1,1,1]},{\"name\":\"mar\",\"current\":-0,\"cost\":1,\"values\":[130,140,150],\"probs\":[1,1,1]}],\"claim\":{\"name\":\"mar-vs-jan\",\"coef\":{\"0\":-1,\"2\":1}},\"reference\":1e+21,\"perturbations\":[{\"claim\":{\"name\":\"feb-vs-jan\",\"coef\":{\"0\":-1,\"1\":1}},\"sensibility\":1},{\"claim\":{\"name\":\"mar-vs-feb\",\"coef\":{\"1\":-1,\"2\":1}},\"sensibility\":1}],\"goal\":\"maxpr\",\"budget\":3,\"tau\":1}"
	if got := req.AppendCanonical(nil); string(got) != want {
		t.Fatalf("session spec\n%s\nwant\n%s", got, want)
	}
}

// TestEarlierSnapshotStillHits restores a CLEANSNP snapshot written by
// the encoding/json codec and asks the two selects it holds again: both must
// be cache hits served with the stored bytes.
func TestEarlierSnapshotStillHits(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "json_codec_cache.snap"))
	if err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(t.TempDir(), "cache.snap")
	if err := os.WriteFile(snap, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	h := mustNew(t, Config{CacheSnapshot: snap, CacheSnapshotEvery: time.Hour}).Handler()
	for _, tc := range []struct{ body, want string }{
		{pinSolvableSelectBody, "{\"chosen\":[\"jan \\u003c\\u0026\\u003e\",\"f\u00e9b \\u2028\"],\"ids\":[0,1],\"cost_spent\":1.5,\"objective_before\":64.89506172839506,\"objective_after\":7.111111111111114}\n"},
		{selectBody(inlineObjects), "{\"chosen\":[\"feb\"],\"ids\":[1],\"cost_spent\":1,\"objective_before\":0.2222222222222222,\"objective_after\":0}\n"},
	} {
		rec := do(t, h, "POST", "/v1/select", tc.body)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "hit" {
			t.Fatalf("status %d, X-Cache %q, want a 200 hit: %s", rec.Code, rec.Header().Get("X-Cache"), rec.Body.String())
		}
		if rec.Body.String() != tc.want {
			t.Fatalf("body %q, want %q", rec.Body.String(), tc.want)
		}
	}
}

// maxprTask decodes a select_maxpr body from the benchmark's generator:
// 100 objects with 6-point supports and 24 perturbations.
func maxprTask(tb testing.TB) wire.Task {
	tb.Helper()
	body, err := os.ReadFile(filepath.Join("wire", "testdata", "select_maxpr.json"))
	if err != nil {
		tb.Fatal(err)
	}
	task, err := wire.DecodeTask(bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	return task
}

// TestCacheKeyAllocs counts work rather than time: re-marshaling the
// request through encoding/json took 230 allocations on this body.
func TestCacheKeyAllocs(t *testing.T) {
	task := maxprTask(t)
	if allocs := testing.AllocsPerRun(20, func() { cacheKey("select", &task) }); allocs > 50 {
		t.Fatalf("cacheKey: %.0f allocs per run, want ≤ 50", allocs)
	}
}

func BenchmarkCacheKey(b *testing.B) {
	task := maxprTask(b)
	b.ReportAllocs()
	for b.Loop() {
		cacheKey("select", &task)
	}
}
