package persist

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestReopenUnderLoweredByteBudget reopens a directory under a byte
// budget that one file exceeds on its own: that file goes, and the
// older files that fit stay.
func TestReopenUnderLoweredByteBudget(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 0)
	big := `[` + strings.Repeat(`"x",`, 30) + `"x"]`
	ids := make([]string, 3)
	for i, body := range []string{`[1]`, `[2]`, big} {
		id, obj := canonical(t, body)
		ids[i] = id
		if err := d.Put(id, "", obj); err != nil {
			t.Fatal(err)
		}
		// Oldest first, so the oversized file is the most recent.
		old := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, id+".json"), old, old); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Bytes(); got <= 3*26 {
		t.Fatalf("files total %d bytes; the big one must exceed the budget", got)
	}

	d2 := mustOpen(t, dir, 0, 3*26) // fits both 26-byte files, not the big one
	if d2.Len() != 2 || d2.Bytes() != 2*26 || d2.LoadErrors() != 0 {
		t.Fatalf("reopened: Len=%d Bytes=%d LoadErrors=%d, want 2, 52, 0", d2.Len(), d2.Bytes(), d2.LoadErrors())
	}
	for _, id := range ids[:2] {
		if _, _, err := d2.Get(id); err != nil {
			t.Fatalf("dataset %s that fits the budget was lost: %v", id, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, ids[2]+".json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("oversized file still on disk: %v", err)
	}
}
