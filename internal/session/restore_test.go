package session_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/session"
)

// TestManagerRestoreHonoursCapacity restores a four-session snapshot
// under Capacity 2: the two most recently used come back, and the
// other two count as evicted.
func TestManagerRestoreHonoursCapacity(t *testing.T) {
	snap := filepath.Join(t.TempDir(), "sessions.snap")
	clock := obs.NewFakeClock(time.Unix(1000, 0))
	m := newTestManager(t, session.Config{
		Clock: clock, SnapshotPath: snap, Rebuild: testRebuild(t, 3),
	})
	ids := make([]string, 4)
	for i := range ids {
		st, err := m.Create(emptySpec, newTestStepper(t, 3), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
		clock.Advance(time.Second)
	}
	// Touch the first session: the two most recently used are now the
	// last one created and the first.
	if _, err := m.Get(ids[0], nil); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2 := newTestManager(t, session.Config{
		Clock: clock, Capacity: 2, SnapshotPath: snap, Rebuild: testRebuild(t, 3),
	})
	if s := m2.Stats(); s.Active != 2 || s.Evicted != 2 || s.Restored != 4 {
		t.Fatalf("stats %+v, want 2 active, 2 evicted, 4 restored", s)
	}
	for _, id := range []string{ids[0], ids[3]} {
		if _, err := m2.Get(id, nil); err != nil {
			t.Fatalf("recently used session %s lost: %v", id, err)
		}
	}
	for _, id := range ids[1:3] {
		if _, err := m2.Get(id, nil); !errors.Is(err, session.ErrNotFound) {
			t.Fatalf("least recently used session %s: got %v, want ErrNotFound", id, err)
		}
	}
}
