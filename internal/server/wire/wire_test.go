package wire

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	cleansel "github.com/factcheck/cleansel"
)

const sampleTask = `{
  "objects": [
    {"name": "jan", "current": 100, "cost": 1, "values": [95, 100, 105], "probs": [1, 1, 1]},
    {"name": "feb", "current": 120, "cost": 1, "values": [90, 120, 150], "probs": [1, 1, 1]},
    {"name": "mar", "current": 140, "cost": 1, "normal": {"mean": 140, "sigma": 8}}
  ],
  "claim": {"name": "mar-vs-jan", "coef": {"2": 1, "0": -1}},
  "direction": "higher",
  "reference": 40,
  "perturbations": [
    {"claim": {"name": "feb-vs-jan", "coef": {"1": 1, "0": -1}}, "sensibility": 1},
    {"claim": {"name": "mar-vs-feb", "coef": {"2": 1, "1": -1}}, "sensibility": 1}
  ],
  "measure": "uniqueness",
  "goal": "minvar",
  "algorithm": "greedy",
  "budget": 1,
  "tau": 2,
  "seed": 7
}`

func decodeSample(t *testing.T) Task {
	t.Helper()
	task, err := DecodeTask(strings.NewReader(sampleTask))
	if err != nil {
		t.Fatal(err)
	}
	return task
}

func TestTaskRoundTrip(t *testing.T) {
	task := decodeSample(t)
	db, err := BuildDB(task.Objects)
	if err != nil {
		t.Fatal(err)
	}
	if db.N() != 3 {
		t.Fatalf("db has %d objects", db.N())
	}
	ct, err := task.BuildTask(db)
	if err != nil {
		t.Fatal(err)
	}
	if ct.Measure != cleansel.Uniqueness || ct.Goal != cleansel.MinimizeUncertainty || ct.Algorithm != cleansel.AlgoGreedy {
		t.Fatalf("parameters mismapped: %+v", ct)
	}
	if ct.Budget != 1 || ct.Tau != 2 || ct.Seed != 7 {
		t.Fatalf("scalars mismapped: %+v", ct)
	}
	if got := ct.Claims.M(); got != 2 {
		t.Fatalf("%d perturbations, want 2", got)
	}
	res, err := cleansel.Select(ct)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(EncodeResult(res))
	if err != nil {
		t.Fatal(err)
	}
	var decoded Result
	if err := json.Unmarshal(body, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.CostSpent != res.CostSpent || decoded.Before != res.Before || decoded.After != res.After {
		t.Fatalf("result round-trip mismatch: %+v vs %+v", decoded, res)
	}
	for _, want := range []string{`"chosen"`, `"ids"`, `"cost_spent"`, `"objective_before"`, `"objective_after"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("encoded result missing %s: %s", want, body)
		}
	}
}

func TestEncodeResultEmptySelection(t *testing.T) {
	body, err := json.Marshal(EncodeResult(cleansel.Result{}))
	if err != nil {
		t.Fatal(err)
	}
	// Empty selections must encode as [] (stable for clients), not null.
	if !strings.Contains(string(body), `"chosen":[]`) || !strings.Contains(string(body), `"ids":[]`) {
		t.Fatalf("empty selection encoded as null: %s", body)
	}
}

func TestBuildObjectsErrors(t *testing.T) {
	cases := []struct {
		name string
		obj  Object
	}{
		{"no value model", Object{Name: "x", Current: 1, Cost: 1}},
		{"both models", Object{Name: "x", Values: []float64{1}, Probs: []float64{1}, Normal: &Normal{Mean: 0, Sigma: 1}}},
		{"negative prob", Object{Name: "x", Values: []float64{1, 2}, Probs: []float64{0.5, -0.5}}},
		{"prob length mismatch", Object{Name: "x", Values: []float64{1, 2}, Probs: []float64{1}}},
		{"nan value", Object{Name: "x", Values: []float64{math.NaN()}, Probs: []float64{1}}},
		{"zero mass", Object{Name: "x", Values: []float64{1, 2}, Probs: []float64{0, 0}}},
		{"bad sigma", Object{Name: "x", Normal: &Normal{Mean: 0, Sigma: -1}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := BuildObjects([]Object{tc.obj}); err == nil {
				t.Fatal("invalid object accepted")
			}
		})
	}
	if _, err := BuildObjects(nil); err == nil {
		t.Fatal("empty object list accepted")
	}
}

func TestBuildClaimErrors(t *testing.T) {
	if _, err := BuildClaim(Claim{Name: "c", Coef: map[string]float64{"9": 1}}, 3); err == nil {
		t.Fatal("out-of-range object id accepted")
	}
	if _, err := BuildClaim(Claim{Name: "c", Coef: map[string]float64{"x": 1}}, 3); err == nil {
		t.Fatal("non-numeric object id accepted")
	}
	if _, err := BuildClaim(Claim{Name: "c", Coef: map[string]float64{"-1": 1}}, 3); err == nil {
		t.Fatal("negative object id accepted")
	}
}

// An object ID key is its canonical decimal spelling. Other spellings of
// an id would race for its coefficient in map order, so they are
// rejected, and the sorted first bad key names the error every time.
func TestBuildClaimRejectsAliasedIDs(t *testing.T) {
	for _, key := range []string{"01", "+1", "00", "-0", " 1", "1 "} {
		if _, err := BuildClaim(Claim{Name: "c", Coef: map[string]float64{key: 1}}, 3); err == nil {
			t.Errorf("object id key %q accepted", key)
		}
	}
	aliased := Claim{Name: "c", Coef: map[string]float64{"1": 2, "01": 3, "+1": 5}}
	for i := 0; i < 50; i++ {
		_, err := BuildClaim(aliased, 3)
		if err == nil || err.Error() != `claim "c": bad object id "+1"` {
			t.Fatalf("aliased keys: err %v, want the bad id \"+1\"", err)
		}
	}
	cl, err := BuildClaim(Claim{Name: "c", Coef: map[string]float64{"0": 1, "2": 4, "10": 0.5}}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if got := cl.Coef; len(got) != 3 || got[0] != 1 || got[2] != 4 || got[10] != 0.5 {
		t.Fatalf("canonical keys built %v", got)
	}
}

func TestBuildTaskErrors(t *testing.T) {
	base := decodeSample(t)
	db, err := BuildDB(base.Objects)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(*Task)
	}{
		{"unknown measure", func(s *Task) { s.Measure = "vibes" }},
		{"unknown goal", func(s *Task) { s.Goal = "maximin" }},
		{"unknown algorithm", func(s *Task) { s.Algorithm = "quantum" }},
		{"unknown direction", func(s *Task) { s.Direction = "sideways" }},
		{"no perturbations", func(s *Task) { s.Perturbations = nil }},
		{"bad perturbation claim", func(s *Task) { s.Perturbations[0].Claim.Coef = map[string]float64{"nope": 1} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			task := decodeSample(t)
			tc.mutate(&task)
			if _, err := task.BuildTask(db); err == nil {
				t.Fatal("invalid task accepted")
			}
		})
	}
}

func TestBuildSetDefaultsReferenceAndDirection(t *testing.T) {
	task := decodeSample(t)
	task.Reference = nil
	task.Direction = ""
	db, err := BuildDB(task.Objects)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := task.BuildSet(db); err != nil {
		t.Fatal(err)
	}
	task.Direction = "lower"
	if _, err := task.BuildSet(db); err != nil {
		t.Fatal(err)
	}
}

func TestBuildRankAndAssess(t *testing.T) {
	base := decodeSample(t)
	db, err := BuildDB(base.Objects)
	if err != nil {
		t.Fatal(err)
	}
	rank := RankRequest{Problem: base.Problem, Measure: "uniqueness"}
	rt, err := rank.BuildRank(db)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Measure != cleansel.Uniqueness || rt.DB != db {
		t.Fatalf("measure = %v, db rebuilt: %v", rt.Measure, rt.DB != db)
	}
	ranked, err := cleansel.RankContext(context.Background(), rt)
	if err != nil {
		t.Fatal(err)
	}
	benefits := EncodeBenefits(ranked)
	if len(benefits) != db.N() {
		t.Fatalf("%d benefits for %d objects", len(benefits), db.N())
	}
	if _, err := (&RankRequest{Problem: base.Problem, Measure: "vibes"}).BuildRank(db); err == nil {
		t.Fatal("unknown rank measure accepted")
	}

	assess := AssessRequest{Problem: base.Problem}
	set, err := assess.BuildSet(db)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := cleansel.AssessClaim(db, set)
	if err != nil {
		t.Fatal(err)
	}
	enc := EncodeReport(rep)
	if enc.Perturbations != 2 {
		t.Fatalf("report perturbations = %d", enc.Perturbations)
	}
	body, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"bias"`, `"duplicity"`, `"fragility"`, `"bias_variance"`} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("report missing %s: %s", want, body)
		}
	}
}

func TestCustomDiscretization(t *testing.T) {
	task := decodeSample(t)
	task.Discretize = 4
	db, err := BuildDB(task.Objects)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := task.BuildTask(db)
	if err != nil {
		t.Fatal(err)
	}
	// The point count is carried to the facade, which picks the view.
	if ct.Discretize != 4 || ct.DB != db {
		t.Fatalf("Discretize = %d, db rebuilt: %v", ct.Discretize, ct.DB != db)
	}
	if _, err := cleansel.Select(ct); err != nil {
		t.Fatal(err)
	}
}

// TestBuildRejectsDiscretizeOutOfRange: BuildTask and BuildRank carry
// discretize as given, and select and rank reject it
// (core.CheckDiscretize) before anything is discretized.
func TestBuildRejectsDiscretizeOutOfRange(t *testing.T) {
	task := decodeSample(t)
	task.Measure, task.Discretize = "uniqueness", 1<<40
	db, err := BuildDB(task.Objects)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := task.BuildTask(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cleansel.Select(ct); err == nil {
		t.Fatal("Select accepted discretize 2^40")
	}
	rank := RankRequest{Problem: task.Problem, Measure: "robustness"}
	rt, err := rank.BuildRank(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cleansel.RankContext(context.Background(), rt); err == nil {
		t.Fatal("RankContext accepted discretize 2^40")
	}
}
