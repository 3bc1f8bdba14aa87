package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/factcheck/cleansel/internal/server/wire"
)

const sampleSpec = `{
  "objects": [
    {"name": "crimes/2016", "current": 9300, "cost": 2,
     "values": [9200, 9300, 9400], "probs": [0.25, 0.5, 0.25]},
    {"name": "crimes/2017", "current": 9125, "cost": 1,
     "values": [9025, 9125, 9225], "probs": [0.25, 0.5, 0.25]},
    {"name": "crimes/2018", "current": 9430, "cost": 1,
     "normal": {"mean": 9430, "sigma": 80}}
  ],
  "claim": {"name": "orig", "coef": {"2": 1, "1": -1}},
  "direction": "higher",
  "reference": 300,
  "perturbations": [
    {"claim": {"name": "p1", "coef": {"1": 1, "0": -1}}, "sensibility": 1},
    {"claim": {"name": "p2", "coef": {"2": 1, "1": -1}}, "sensibility": 1}
  ],
  "measure": "uniqueness",
  "goal": "minvar",
  "algorithm": "greedy",
  "budget": 3
}`

func parseSpec(t *testing.T, raw string) wire.Task {
	t.Helper()
	spec, err := wire.DecodeTask(strings.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestSolveUniqueness(t *testing.T) {
	out, err := solve(parseSpec(t, sampleSpec))
	if err != nil {
		t.Fatal(err)
	}
	if out.CostSpent > 3 {
		t.Fatalf("over budget: %+v", out)
	}
	if out.Before < out.After {
		t.Fatalf("uncertainty rose: %+v", out)
	}
	if len(out.Chosen) != len(out.IDs) {
		t.Fatalf("names/ids mismatch: %+v", out)
	}
}

func TestSolveMaxPr(t *testing.T) {
	spec := parseSpec(t, sampleSpec)
	spec.Measure = "fairness"
	spec.Goal = "maxpr"
	spec.Tau = 20
	out, err := solve(spec)
	if err != nil {
		t.Fatal(err)
	}
	if out.After < 0 || out.After > 1 {
		t.Fatalf("probability out of range: %+v", out)
	}
}

func TestSolveAlgorithms(t *testing.T) {
	for _, algo := range []string{"greedy", "optimum", "best", "naive", "random", ""} {
		spec := parseSpec(t, sampleSpec)
		spec.Measure = "fairness"
		spec.Algorithm = algo
		if _, err := solve(spec); err != nil {
			t.Fatalf("algorithm %q: %v", algo, err)
		}
	}
}

func TestSolveRejectsBadSpecs(t *testing.T) {
	cases := []func(*wire.Task){
		func(s *wire.Task) { s.Objects[0].Values = nil; s.Objects[0].Probs = nil },
		func(s *wire.Task) { s.Direction = "sideways" },
		func(s *wire.Task) { s.Measure = "vibes" },
		func(s *wire.Task) { s.Goal = "maximin" },
		func(s *wire.Task) { s.Algorithm = "quantum" },
		func(s *wire.Task) { s.Claim.Coef = map[string]float64{"99": 1} },
		func(s *wire.Task) { s.Claim.Coef = map[string]float64{"x": 1} },
		func(s *wire.Task) { s.Perturbations = nil },
		func(s *wire.Task) { s.DatasetID = "ds_deadbeef" },
	}
	for i, mutate := range cases {
		spec := parseSpec(t, sampleSpec)
		mutate(&spec)
		if _, err := solve(spec); err == nil {
			t.Fatalf("case %d: bad spec accepted", i)
		}
	}
}

func TestSolveDefaultReference(t *testing.T) {
	spec := parseSpec(t, sampleSpec)
	spec.Reference = nil // defaults to the claim value at current values
	if _, err := solve(spec); err != nil {
		t.Fatal(err)
	}
}

func TestSolveLowerDirection(t *testing.T) {
	spec := parseSpec(t, sampleSpec)
	spec.Direction = "lower"
	if _, err := solve(spec); err != nil {
		t.Fatal(err)
	}
}

func TestRunSolvesSpecFromStdin(t *testing.T) {
	var out, errs bytes.Buffer
	if code := run(nil, strings.NewReader(sampleSpec), &out, &errs); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errs.String())
	}
	for _, want := range []string{`"chosen"`, `"ids"`, `"cost_spent"`, `"objective_before"`, `"objective_after"`} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("output missing %s:\n%s", want, out.String())
		}
	}
}

func TestRunFlagAndInputHygiene(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		stdin string
		code  int
	}{
		{"unknown flag", []string{"-frobnicate"}, sampleSpec, 2},
		{"positional arg", []string{"spec.json"}, sampleSpec, 2},
		{"malformed json", nil, `{"objects": [`, 2},
		{"unknown field", nil, `{"objects": [], "wat": 1}`, 2},
		{"missing input file", []string{"-in", "/does/not/exist.json"}, "", 1},
		{"invalid problem", nil, `{"objects": [], "claim": {"name": "c", "coef": {}}, "perturbations": [], "budget": 1}`, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errs bytes.Buffer
			code := run(tc.args, strings.NewReader(tc.stdin), &out, &errs)
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr: %s)", code, tc.code, errs.String())
			}
			if out.Len() != 0 {
				t.Fatalf("partial output emitted: %s", out.String())
			}
			if errs.Len() == 0 {
				t.Fatal("no diagnostic on stderr")
			}
		})
	}
}

// mixedMaxPrSpec is a MaxPr spec over mixed value models (a and c
// normal, b discrete), with %s left for an optional discretize field.
const mixedMaxPrSpec = `{
  "objects": [
    {"name": "a", "current": 10, "cost": 1, "normal": {"mean": 10, "sigma": 2}},
    {"name": "b", "current": 12, "cost": 1, "values": [10, 12, 14], "probs": [0.25, 0.5, 0.25]},
    {"name": "c", "current": 9, "cost": 1, "normal": {"mean": 9, "sigma": 3}}
  ],
  "claim": {"name": "gap", "coef": {"1": 1, "0": -1}},
  "perturbations": [
    {"claim": {"name": "a", "coef": {"0": 1}}, "sensibility": 1},
    {"claim": {"name": "p", "coef": {"2": -1, "1": 1}}, "sensibility": 1}
  ],
  "goal": "maxpr", "budget": 2, "tau": 0.5%s
}`

// TestRunDiscretizeSetsMaxPrView: discretize sets the points onto which
// a MaxPr solve over mixed models discretizes the normals; 0 and 6 are
// the default view.
func TestRunDiscretizeSetsMaxPrView(t *testing.T) {
	for _, c := range []struct {
		field  string
		chosen []string
		after  float64
	}{
		{`, "discretize": 2`, []string{"a"}, 0.5},
		{`, "discretize": 0`, []string{"a", "c"}, 0.38888888888888884},
		{`, "discretize": 6`, []string{"a", "c"}, 0.38888888888888884},
	} {
		var out, errs bytes.Buffer
		if code := run(nil, strings.NewReader(fmt.Sprintf(mixedMaxPrSpec, c.field)), &out, &errs); code != 0 {
			t.Fatalf("%s: exit %d, stderr: %s", c.field, code, errs.String())
		}
		var res wire.Result
		if err := json.Unmarshal(out.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Chosen, c.chosen) || res.After != c.after {
			t.Errorf("%s: chosen %v, After %v; want %v, %v", c.field, res.Chosen, res.After, c.chosen, c.after)
		}
	}
}
