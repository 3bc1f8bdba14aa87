package session_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/query"
	"github.com/factcheck/cleansel/internal/session"
)

// testRebuild ignores the spec and rebuilds the standard three-object
// minvar stepper; the manager replays the reveal log on top.
func testRebuild(t *testing.T, budget float64) func([]byte) (*session.Stepper, error) {
	return func([]byte) (*session.Stepper, error) {
		f := query.NewAffine(0, map[int]float64{0: 1, 1: 1, 2: 1})
		return session.NewStepper(normalDB(t), f, session.MinVar, 0, budget)
	}
}

// emptySpec is the canonical spec of a test session: testRebuild
// ignores it.
func emptySpec() []byte { return []byte("{}") }

func newTestStepper(t *testing.T, budget float64) *session.Stepper {
	t.Helper()
	f := query.NewAffine(0, map[int]float64{0: 1, 1: 1, 2: 1})
	return mustStepper(t, normalDB(t), f, session.MinVar, 0, budget)
}

func newTestManager(t *testing.T, cfg session.Config) *session.Manager {
	t.Helper()
	m, err := session.NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestManagerTTLExpiry(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	m := newTestManager(t, session.Config{Clock: clock, TTL: time.Minute})
	st, err := m.Create(emptySpec, newTestStepper(t, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(59 * time.Second)
	if _, err := m.Get(st.ID, nil); err != nil {
		t.Fatalf("session expired early: %v", err)
	}
	// The Get refreshed the TTL: a full minute more is fine...
	clock.Advance(60 * time.Second)
	if _, err := m.Get(st.ID, nil); err != nil {
		t.Fatalf("touch did not refresh TTL: %v", err)
	}
	// ...but idling past it expires, and the ID stays distinguishable
	// from one that never existed.
	clock.Advance(61 * time.Second)
	if _, err := m.Get(st.ID, nil); !errors.Is(err, session.ErrExpired) {
		t.Fatalf("got %v, want ErrExpired", err)
	}
	if _, err := m.Get("s_0123456789abcdef", nil); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("got %v, want ErrNotFound", err)
	}
	if s := m.Stats(); s.Expired != 1 || s.Active != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestManagerNegativeTTLNeverExpires(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	m := newTestManager(t, session.Config{Clock: clock, TTL: -1})
	st, err := m.Create(emptySpec, newTestStepper(t, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(1000 * time.Hour)
	if _, err := m.Get(st.ID, nil); err != nil {
		t.Fatalf("negative TTL expired a session: %v", err)
	}
}

func TestManagerLRUEviction(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	m := newTestManager(t, session.Config{Clock: clock, Capacity: 2})
	a, _ := m.Create(emptySpec, newTestStepper(t, 3), nil)
	clock.Advance(time.Second)
	b, _ := m.Create(emptySpec, newTestStepper(t, 3), nil)
	clock.Advance(time.Second)
	// Touch a so b becomes the least recently used.
	if _, err := m.Get(a.ID, nil); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	c, _ := m.Create(emptySpec, newTestStepper(t, 3), nil)
	if _, err := m.Get(b.ID, nil); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("LRU session not evicted: %v", err)
	}
	for _, id := range []string{a.ID, c.ID} {
		if _, err := m.Get(id, nil); err != nil {
			t.Fatalf("session %s gone: %v", id, err)
		}
	}
	if s := m.Stats(); s.Evicted != 1 || s.Active != 2 {
		t.Fatalf("stats %+v", s)
	}
}

func TestManagerStepOrdering(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	m := newTestManager(t, session.Config{Clock: clock})
	st, err := m.Create(emptySpec, newTestStepper(t, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.Steps != 0 || st.Rec == nil {
		t.Fatalf("fresh session state %+v", st)
	}
	// Out-of-order: a report for a step the session has not reached.
	if _, err := m.Clean(st.ID, 1, st.Rec.Object, 9, nil); !errors.Is(err, session.ErrStep) {
		t.Fatalf("out-of-order clean: got %v, want ErrStep", err)
	}
	st2, err := m.Clean(st.ID, 0, st.Rec.Object, 9, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Steps != 1 || len(st2.Cleaned) != 1 || st2.Cleaned[0].Object != st.Rec.Object {
		t.Fatalf("state after clean %+v", st2)
	}
	// Duplicate: re-delivering the step-0 report must not double-apply.
	if _, err := m.Clean(st.ID, 0, st.Rec.Object, 9, nil); !errors.Is(err, session.ErrStep) {
		t.Fatalf("duplicate clean: got %v, want ErrStep", err)
	}
	// A conflicting reveal at the right step surfaces the stepper's error.
	if _, err := m.Clean(st.ID, 1, st.Rec.Object, 9, nil); !errors.Is(err, session.ErrRevealConflict) {
		t.Fatalf("re-clean of cleaned object: got %v, want ErrRevealConflict", err)
	}
}

func TestManagerDelete(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	m := newTestManager(t, session.Config{Clock: clock})
	st, _ := m.Create(emptySpec, newTestStepper(t, 3), nil)
	if err := m.Delete(st.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(st.ID, nil); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("deleted session still resolves: %v", err)
	}
	if err := m.Delete(st.ID); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("double delete: %v", err)
	}
}

func TestManagerRestartRecovery(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "sessions.snap")
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	m := newTestManager(t, session.Config{
		Clock: clock, SnapshotPath: snap, Rebuild: testRebuild(t, 3),
	})
	st, err := m.Create(emptySpec, newTestStepper(t, 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	before, err := m.Clean(st.ID, 0, 0, 7.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2 := newTestManager(t, session.Config{
		Clock: clock, SnapshotPath: snap, Rebuild: testRebuild(t, 3),
	})
	after, err := m2.Get(st.ID, nil)
	if err != nil {
		t.Fatalf("session lost across restart: %v", err)
	}
	// The replayed episode is the same episode: same step counter, same
	// reveal log, bit-identical posterior and recommendation.
	if after.Steps != before.Steps || after.Spent != before.Spent {
		t.Fatalf("replayed %+v, want %+v", after, before)
	}
	if len(after.Cleaned) != 1 || after.Cleaned[0] != before.Cleaned[0] {
		t.Fatalf("cleaned log %+v, want %+v", after.Cleaned, before.Cleaned)
	}
	if after.Estimate != before.Estimate || after.Uncertainty != before.Uncertainty {
		t.Fatalf("posterior drifted across restart: %+v vs %+v", after, before)
	}
	if before.Rec == nil || after.Rec == nil || *after.Rec != *before.Rec {
		t.Fatalf("recommendation drifted: %+v vs %+v", after.Rec, before.Rec)
	}
	if s := m2.Stats(); s.Restored != 1 {
		t.Fatalf("stats %+v", s)
	}
	// The episode continues where it left off.
	if _, err := m2.Clean(st.ID, 1, after.Rec.Object, 10, nil); err != nil {
		t.Fatal(err)
	}
}

func TestManagerExpiredWhileDown(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "sessions.snap")
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	m := newTestManager(t, session.Config{
		Clock: clock, TTL: time.Minute, SnapshotPath: snap, Rebuild: testRebuild(t, 3),
	})
	st, _ := m.Create(emptySpec, newTestStepper(t, 3), nil)
	m.Close()

	clock.Advance(2 * time.Minute)
	m2 := newTestManager(t, session.Config{
		Clock: clock, TTL: time.Minute, SnapshotPath: snap, Rebuild: testRebuild(t, 3),
	})
	if _, err := m2.Get(st.ID, nil); !errors.Is(err, session.ErrExpired) {
		t.Fatalf("session that idled past TTL while down: got %v, want ErrExpired", err)
	}
	if s := m2.Stats(); s.Expired != 1 || s.Restored != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestManagerRestoreSkipsBrokenSessions(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "sessions.snap")
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	m := newTestManager(t, session.Config{
		Clock: clock, SnapshotPath: snap, Rebuild: testRebuild(t, 3),
	})
	st, _ := m.Create(emptySpec, newTestStepper(t, 3), nil)
	m.Close()

	// A rebuild failure (say, the dataset vanished) loses that session
	// but must not prevent startup.
	m2 := newTestManager(t, session.Config{
		Clock: clock, SnapshotPath: snap,
		Rebuild: func([]byte) (*session.Stepper, error) { return nil, errors.New("dataset gone") },
	})
	if _, err := m2.Get(st.ID, nil); !errors.Is(err, session.ErrNotFound) {
		t.Fatalf("broken session resolves: %v", err)
	}
	if s := m2.Stats(); s.LoadErrors != 1 || s.Restored != 0 || s.Active != 0 {
		t.Fatalf("stats %+v", s)
	}
}

// TestManagerAsksForSpecOnlyWhenPersisting checks that only a manager
// that writes snapshots encodes a session's spec, once per create, and
// that the bytes it keeps are the ones a restart rebuilds from.
func TestManagerAsksForSpecOnlyWhenPersisting(t *testing.T) {
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	calls := 0
	spec := func() []byte {
		calls++
		return []byte(`{"spec":1}`)
	}
	m := newTestManager(t, session.Config{Clock: clock})
	if _, err := m.Create(spec, newTestStepper(t, 3), nil); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("in-memory manager encoded the spec %d times, want 0", calls)
	}

	snap := filepath.Join(t.TempDir(), "sessions.snap")
	m = newTestManager(t, session.Config{Clock: clock, SnapshotPath: snap, Rebuild: testRebuild(t, 3)})
	if _, err := m.Create(spec, newTestStepper(t, 3), nil); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("persisting manager encoded the spec %d times, want 1", calls)
	}
	m.Close()
	var rebuilt []string
	newTestManager(t, session.Config{Clock: clock, SnapshotPath: snap,
		Rebuild: func(b []byte) (*session.Stepper, error) {
			rebuilt = append(rebuilt, string(b))
			return testRebuild(t, 3)(b)
		}})
	if len(rebuilt) != 1 || rebuilt[0] != `{"spec":1}` {
		t.Fatalf("restart rebuilt from %q, want one {\"spec\":1}", rebuilt)
	}
}

func TestManagerConfigValidation(t *testing.T) {
	if _, err := session.NewManager(session.Config{}); err == nil {
		t.Fatal("nil clock accepted")
	}
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	if _, err := session.NewManager(session.Config{Clock: clock, SnapshotPath: "x"}); err == nil {
		t.Fatal("snapshot path without rebuild accepted")
	}
}
