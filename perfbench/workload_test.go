package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"slices"
	"testing"

	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/expt"
	"github.com/factcheck/cleansel/internal/server/wire"
)

// buildStream generates a small stream of w for seed, with fixed
// stand-in dataset ids.
func buildStream(t *testing.T, w *workload, seed uint64, units int) *stream {
	t.Helper()
	g, err := w.gen(seed, units, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]string, len(g.uploads))
	for i := range ids {
		ids[i] = "ds_test"
	}
	warm, reqs, err := g.build(ids)
	if err != nil {
		t.Fatal(err)
	}
	return &stream{uploads: g.uploads, warm: warm, reqs: reqs}
}

// TestStreamDeterministic checks that a seed fixes the request stream
// byte for byte, and that another seed changes it.
func TestStreamDeterministic(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			a, b := buildStream(t, w, 7, 3), buildStream(t, w, 7, 3)
			if len(a.reqs) != len(b.reqs) || len(a.uploads) != len(b.uploads) {
				t.Fatalf("equal seeds gave %d and %d requests", len(a.reqs), len(b.reqs))
			}
			for i := range a.reqs {
				if a.reqs[i].path != b.reqs[i].path || !bytes.Equal(a.reqs[i].body, b.reqs[i].body) || a.reqs[i].want != b.reqs[i].want {
					t.Fatalf("request %d differs between equal seeds", i)
				}
			}
			for i := range a.uploads {
				if !bytes.Equal(a.uploads[i].body, b.uploads[i].body) {
					t.Fatalf("upload %d differs between equal seeds", i)
				}
			}
			if hashStream(a) != hashStream(b) {
				t.Fatal("equal streams hash differently")
			}
			if hashStream(a) == hashStream(buildStream(t, w, 8, 3)) {
				t.Fatal("seeds 7 and 8 gave the same stream")
			}
		})
	}
}

// TestRequestsNeverRepeat checks that no two select or triage bodies of
// a stream are equal, so every answer must be a cache miss.
func TestRequestsNeverRepeat(t *testing.T) {
	for _, name := range []string{"select_minvar", "select_maxpr", "triage_stream"} {
		s := buildStream(t, workloads[name], 3, 6)
		seen := map[[32]byte]bool{}
		for _, r := range append(s.warm, s.reqs...) {
			h := sha256.Sum256(r.body)
			if seen[h] {
				t.Fatalf("%s: a request body repeats", name)
			}
			seen[h] = true
		}
	}
}

// TestTriageBatchesAreConsecutiveArrivals checks that the triage
// batches cut expt.ClaimStream's arrivals in order, and that each
// batch's expected stats count its distinct families.
func TestTriageBatchesAreConsecutiveArrivals(t *testing.T) {
	const units = 4
	s := buildStream(t, workloads["triage_stream"], 3, units)
	batches := append(s.warm, s.reqs...)
	_, arrivals := expt.ClaimStream(datasets.UR, triageN, triageW, len(batches)*triageClaims, triageFamilies, 3)
	next := 0
	for i, r := range batches {
		var req wire.TriageRequest
		if err := json.Unmarshal(r.body, &req); err != nil {
			t.Fatal(err)
		}
		if len(req.Claims) != triageClaims || r.claims != triageClaims || r.unique != triageFamilies {
			t.Fatalf("batch %d: %d claims, stats want %d claims / %d unique", i, len(req.Claims), r.claims, r.unique)
		}
		for _, c := range req.Claims {
			if c.Claim.Name != arrivals[next].Name {
				t.Fatalf("batch %d: claim %q, want arrival %q", i, c.Claim.Name, arrivals[next].Name)
			}
			next++
		}
	}
}

func TestUnitsFixedBySeconds(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		w := workloads[name]
		if w.units(1) < minUnits {
			t.Errorf("%s: %d units at 1s, below the minimum %d", name, w.units(1), minUnits)
		}
		if w.units(20) <= w.units(10) {
			t.Errorf("%s: units not increasing with seconds", name)
		}
	}
}

// TestReplayMatchesFacade replays two units of every workload layer by
// layer: the rebuilt answers must equal the facade's, and the digests
// the replay records must equal the ones the timed run computes.
func TestReplayMatchesFacade(t *testing.T) {
	for _, name := range sortedKeys(workloads) {
		t.Run(name, func(t *testing.T) {
			s := buildStream(t, workloads[name], 5, 2)
			ids := make([]string, len(s.uploads))
			for i := range ids {
				ids[i] = "ds_test"
			}
			idx, err := newDatasetIndex(s.uploads, ids)
			if err != nil {
				t.Fatal(err)
			}
			timed := append([]request(nil), s.reqs...)
			if err := idx.expectAll(context.Background(), timed); err != nil {
				t.Fatal(err)
			}
			lay, err := replay(context.Background(), idx, s.reqs)
			if err != nil {
				t.Fatal(err)
			}
			if len(lay.mismatches) > 0 {
				t.Fatalf("replay mismatches: %v", lay.mismatches)
			}
			for i := range timed {
				if timed[i].want != s.reqs[i].want || timed[i].want == ([32]byte{}) {
					t.Fatalf("request %d: replay and facade digests differ", i)
				}
			}
			if len(lay.spans.spans) == 0 {
				t.Fatal("replay recorded no spans")
			}
		})
	}
}

func TestCheckRejectsWrongAnswers(t *testing.T) {
	good := []byte(`{"chosen":[],"ids":[],"cost_spent":0,"objective_before":0,"objective_after":0}` + "\n")
	r := &request{kind: kindSelect, want: sha256.Sum256(good)}
	if _, err := check(r, "miss", good); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	if _, err := check(r, "hit", good); err == nil {
		t.Fatal("cache hit accepted: the stream never repeats")
	}
	bad := bytes.Replace(good, []byte(`"objective_after":0`), []byte(`"objective_after":1`), 1)
	if _, err := check(r, "miss", bad); err == nil {
		t.Fatal("wrong answer accepted")
	}

	tri := []byte(`{"measure":"uniqueness","claims":[],"stats":{"claims":100,"unique":5,"errors":0}}` + "\n")
	tr := &request{kind: kindTriage, claims: 100, unique: 5, want: sha256.Sum256(tri)}
	if _, err := check(tr, "miss", tri); err != nil {
		t.Fatalf("correct triage answer rejected: %v", err)
	}
	tr.unique = 4
	if _, err := check(tr, "miss", tri); err == nil {
		t.Fatal("triage stats mismatch accepted")
	}

	state := []byte(`{"id":"s_0123456789abcdef","goal":"minvar","status":"active"}` + "\n")
	blank := []byte(`{"id":"","goal":"minvar","status":"active"}` + "\n")
	sr := &request{kind: kindCreate, status: "active", want: sha256.Sum256(blank)}
	sid, err := check(sr, "", state)
	if err != nil || sid != "s_0123456789abcdef" {
		t.Fatalf("session answer: id %q, err %v", sid, err)
	}
	sr.status = "exhausted"
	if _, err := check(sr, "", state); err == nil {
		t.Fatal("wrong session status accepted")
	}
}

func TestLegalTransition(t *testing.T) {
	for _, c := range []struct {
		kind       reqKind
		prev, next string
		ok         bool
	}{
		{kindCreate, "", "active", true},
		{kindCreate, "", "exhausted", true},
		{kindClean, "active", "active", true},
		{kindClean, "active", "countered", true},
		{kindClean, "exhausted", "active", false},
		{kindClean, "countered", "exhausted", false},
		{kindDelete, "exhausted", "deleted", true},
		{kindDelete, "active", "deleted", false},
		{kindCreate, "", "deleted", false},
	} {
		if got := legalTransition(c.kind, c.prev, c.next); got != c.ok {
			t.Errorf("kind %d %q -> %q: legal %v, want %v", c.kind, c.prev, c.next, got, c.ok)
		}
	}
}

func TestTraceMask(t *testing.T) {
	a, b := traceMask(3, 1000), traceMask(3, 1000)
	on := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("trace mask not fixed by the seed")
		}
		if a[i] {
			on++
		}
	}
	if on < 400 || on > 600 {
		t.Fatalf("%d of 1000 requests traced, want about half", on)
	}
}

// TestSegmentBounds checks that the timed phase is cut into runs of
// about equal length that tile the stream, and that a cut never falls
// inside a session episode.
func TestSegmentBounds(t *testing.T) {
	sel := make([]request, 10)
	if got := segmentBounds(sel, 4); !slices.Equal(got, []int{0, 2, 5, 7, 10}) {
		t.Errorf("select stream cut at %v", got)
	}
	if got := segmentBounds(sel, 1); !slices.Equal(got, []int{0, 10}) {
		t.Errorf("one segment cut at %v", got)
	}
	// Episodes of create, two cleans, delete.
	var sess []request
	for e := 0; e < 5; e++ {
		sess = append(sess, request{kind: kindCreate}, request{kind: kindClean}, request{kind: kindClean}, request{kind: kindDelete})
	}
	got := segmentBounds(sess, 3)
	if !slices.Equal(got, []int{0, 8, 16, 20}) {
		t.Errorf("session stream cut at %v", got)
	}
	for _, c := range got[1 : len(got)-1] {
		if sess[c].kind != kindCreate {
			t.Errorf("cut at %d falls inside an episode", c)
		}
	}
}
