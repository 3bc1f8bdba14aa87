package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// canonical builds a canonical objects encoding and its dataset id the
// same way the server's store does.
func canonical(t *testing.T, body string) (string, []byte) {
	t.Helper()
	sum := sha256.Sum256([]byte(body))
	return "ds_" + hex.EncodeToString(sum[:]), []byte(body)
}

func mustOpen(t *testing.T, dir string, maxEntries int, maxBytes int64) *DatasetDir {
	t.Helper()
	d, err := OpenDatasets(dir, maxEntries, maxBytes, nil)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDatasetRoundTripAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 0)
	id, obj := canonical(t, `[{"name":"x","current":1}]`)
	if err := d.Put(id, "first", obj); err != nil {
		t.Fatal(err)
	}
	name, got, err := d.Get(id)
	if err != nil || name != "first" || !bytes.Equal(got, obj) {
		t.Fatalf("Get = %q, %q, %v; want bit-identical round trip", name, got, err)
	}

	// Re-upload under a new label: latest name wins, bytes unchanged.
	if err := d.Put(id, "second", obj); err != nil {
		t.Fatal(err)
	}

	// A fresh index over the same directory must serve the same bytes
	// (lazy load: Open does not parse, Get verifies).
	d2 := mustOpen(t, dir, 0, 0)
	if d2.Len() != 1 || d2.LoadErrors() != 0 {
		t.Fatalf("reopened: Len=%d LoadErrors=%d", d2.Len(), d2.LoadErrors())
	}
	name, got, err = d2.Get(id)
	if err != nil || name != "second" || !bytes.Equal(got, obj) {
		t.Fatalf("reopened Get = %q, %q, %v", name, got, err)
	}
}

func TestGetMissingIsNotExist(t *testing.T) {
	d := mustOpen(t, t.TempDir(), 0, 0)
	id, _ := canonical(t, `[1]`)
	if _, _, err := d.Get(id); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing Get err = %v, want fs.ErrNotExist", err)
	}
	if d.LoadErrors() != 0 {
		t.Fatal("a plain miss must not count as a load error")
	}
}

func TestCorruptDatasetFileQuarantined(t *testing.T) {
	// Corruption shapes: truncation (unparseable JSON), a valid file
	// whose content no longer matches its name, raw garbage, and bytes
	// after an otherwise intact file.
	cases := []struct {
		name    string
		corrupt func(path string) error
	}{
		{"truncated", func(path string) error {
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, raw[:len(raw)/2], 0o644)
		}},
		{"hash mismatch", func(path string) error {
			// Valid format, wrong content for the name.
			return os.WriteFile(path, []byte(`{"format":1,"name":"evil","objects":[2]}`), 0o644)
		}},
		{"garbage", func(path string) error {
			return os.WriteFile(path, []byte("\x00\x01not json"), 0o644)
		}},
		// A stray closing delimiter after an intact file: More() reports
		// no further value there, so only an EOF check catches it.
		{"trailing brace", appendBytes("}")},
		{"trailing bracket", appendBytes("\n]")},
		{"trailing value", appendBytes(" {}")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			d := mustOpen(t, dir, 0, 0)
			id, obj := canonical(t, `[{"v":1}]`)
			if err := d.Put(id, "ok", obj); err != nil {
				t.Fatal(err)
			}
			if err := tc.corrupt(filepath.Join(dir, id+".json")); err != nil {
				t.Fatal(err)
			}
			d2 := mustOpen(t, dir, 0, 0) // index sees the file; damage is caught on Get
			if _, _, err := d2.Get(id); !errors.Is(err, fs.ErrNotExist) {
				t.Fatalf("corrupt Get err = %v, want fs.ErrNotExist", err)
			}
			if d2.LoadErrors() != 1 {
				t.Fatalf("LoadErrors = %d, want 1", d2.LoadErrors())
			}
			if d2.Len() != 0 {
				t.Fatalf("quarantined entry still indexed: Len = %d", d2.Len())
			}
			if _, err := os.Stat(filepath.Join(dir, id+".json"+corruptSuffix)); err != nil {
				t.Fatalf("no quarantine file: %v", err)
			}
			// Repeated Gets stay a plain miss, not repeated errors.
			d2.Get(id)
			if d2.LoadErrors() != 1 {
				t.Fatalf("LoadErrors grew on repeat miss: %d", d2.LoadErrors())
			}
			// A reopen skips the quarantined file silently.
			d3 := mustOpen(t, dir, 0, 0)
			if d3.Len() != 0 || d3.LoadErrors() != 0 {
				t.Fatalf("reopen after quarantine: Len=%d LoadErrors=%d", d3.Len(), d3.LoadErrors())
			}
		})
	}
}

// appendBytes returns a corruption that appends tail to the file.
func appendBytes(tail string) func(path string) error {
	return func(path string) error {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(raw, tail...), 0o644)
	}
}

func TestLeftoverTempFileRemovedAndCounted(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, tmpPrefix+"123456")
	if err := os.WriteFile(tmp, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	d := mustOpen(t, dir, 0, 0)
	if d.LoadErrors() != 1 {
		t.Fatalf("LoadErrors = %d, want 1 for the leftover temp file", d.LoadErrors())
	}
	if _, err := os.Stat(tmp); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("temp file not removed: %v", err)
	}
	if d.Len() != 0 {
		t.Fatalf("temp file indexed: Len = %d", d.Len())
	}
}

func TestByteBudgetEvictsOldestFromDisk(t *testing.T) {
	dir := t.TempDir()
	// Budget fits roughly two of the three files.
	idA, objA := canonical(t, `[{"v":"aaaaaaaaaa"}]`)
	idB, objB := canonical(t, `[{"v":"bbbbbbbbbb"}]`)
	idC, objC := canonical(t, `[{"v":"cccccccccc"}]`)
	fileSize := int64(len(objA)) + 40 // wrapper overhead, measured loosely
	d := mustOpen(t, dir, 0, 2*fileSize)
	for _, p := range []struct {
		id  string
		obj []byte
	}{{idA, objA}, {idB, objB}, {idC, objC}} {
		if err := d.Put(p.id, "", p.obj); err != nil {
			t.Fatal(err)
		}
	}
	if d.Len() != 2 {
		t.Fatalf("Len = %d, want 2 after eviction", d.Len())
	}
	if _, _, err := d.Get(idA); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("oldest dataset survived the byte budget")
	}
	if _, err := os.Stat(filepath.Join(dir, idA+".json")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("evicted dataset file still on disk")
	}
	for _, id := range []string{idB, idC} {
		if _, _, err := d.Get(id); err != nil {
			t.Fatalf("recent dataset %s evicted: %v", id, err)
		}
	}
	if d.LoadErrors() != 0 {
		t.Fatalf("evictions counted as load errors: %d", d.LoadErrors())
	}
}

func TestEntryBudgetAppliesOnReopen(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 0)
	ids := make([]string, 3)
	for i, body := range []string{`[1]`, `[2]`, `[3]`} {
		id, obj := canonical(t, body)
		ids[i] = id
		if err := d.Put(id, "", obj); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so the reopen scan has a deterministic order.
		old := time.Now().Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(filepath.Join(dir, id+".json"), old, old); err != nil {
			t.Fatal(err)
		}
	}
	d2 := mustOpen(t, dir, 2, 0)
	if d2.Len() != 2 {
		t.Fatalf("reopened Len = %d, want 2", d2.Len())
	}
	if _, _, err := d2.Get(ids[0]); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("oldest-mtime dataset survived the entry budget on reopen")
	}
}

func TestFileRemovedBehindIndexIsNotALoadError(t *testing.T) {
	dir := t.TempDir()
	d := mustOpen(t, dir, 0, 0)
	id, obj := canonical(t, `[{"v":1}]`)
	if err := d.Put(id, "", obj); err != nil {
		t.Fatal(err)
	}
	// Simulate the eviction race: the file vanishes while the index
	// still lists it (a concurrent budget eviction, not corruption).
	if err := os.Remove(filepath.Join(dir, id+".json")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Get(id); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get err = %v, want fs.ErrNotExist", err)
	}
	if d.LoadErrors() != 0 {
		t.Fatalf("a vanished file counted as a load error: %d", d.LoadErrors())
	}
	if d.Len() != 0 {
		t.Fatalf("stale index entry survived: Len = %d", d.Len())
	}
}

func TestTouchKeepsEntryHotAcrossEviction(t *testing.T) {
	d := mustOpen(t, t.TempDir(), 2, 0)
	idA, objA := canonical(t, `[1]`)
	idB, objB := canonical(t, `[2]`)
	idC, objC := canonical(t, `[3]`)
	if err := d.Put(idA, "", objA); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(idB, "", objB); err != nil {
		t.Fatal(err)
	}
	d.Touch(idA) // an in-memory cache hit refreshes the durable copy too
	if err := d.Put(idC, "", objC); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Get(idA); err != nil {
		t.Fatal("touched dataset was evicted")
	}
	if _, _, err := d.Get(idB); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("untouched oldest dataset survived the entry budget")
	}
}

func TestPutRejectsOversizedDataset(t *testing.T) {
	d := mustOpen(t, t.TempDir(), 0, 16)
	id, obj := canonical(t, `[{"much":"too big for sixteen bytes"}]`)
	if err := d.Put(id, "", obj); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized Put err = %v, want ErrTooLarge", err)
	}
	if d.Len() != 0 || d.Bytes() != 0 {
		t.Fatalf("oversized Put left state: Len=%d Bytes=%d", d.Len(), d.Bytes())
	}
}

// --- Snapshot ---------------------------------------------------------------

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	in := []Entry{
		{Key: "old", Value: []byte(`{"a":1}`)},
		{Key: "empty", Value: nil},
		{Key: "new", Value: []byte{0, 1, 2, 255}},
	}
	if err := WriteSnapshot(path, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("restored %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].Key != in[i].Key || !bytes.Equal(out[i].Value, in[i].Value) {
			t.Fatalf("entry %d = %+v, want %+v (order and bytes must survive)", i, out[i], in[i])
		}
	}

	// Rewriting is atomic-by-rename: the old snapshot is replaced whole.
	if err := WriteSnapshot(path, in[:1]); err != nil {
		t.Fatal(err)
	}
	if out, err = ReadSnapshot(path); err != nil || len(out) != 1 {
		t.Fatalf("rewritten snapshot: %d entries, %v", len(out), err)
	}
}

func TestSnapshotEmpty(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.snap")
	if err := WriteSnapshot(path, nil); err != nil {
		t.Fatal(err)
	}
	out, err := ReadSnapshot(path)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty snapshot: %v entries, %v", out, err)
	}
}

func TestSnapshotMissingIsNotExist(t *testing.T) {
	_, err := ReadSnapshot(filepath.Join(t.TempDir(), "nope.snap"))
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("err = %v, want fs.ErrNotExist", err)
	}
}

func TestSnapshotDamageDetected(t *testing.T) {
	write := func(t *testing.T) (string, []byte) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "cache.snap")
		if err := WriteSnapshot(path, []Entry{{Key: "k", Value: []byte("value bytes")}}); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return path, raw
	}
	cases := []struct {
		name   string
		mangle func(raw []byte) []byte
	}{
		{"truncated mid-entry", func(raw []byte) []byte { return raw[:len(raw)-40] }},
		{"truncated to header", func(raw []byte) []byte { return raw[:10] }},
		{"flipped payload byte", func(raw []byte) []byte { raw[25] ^= 0x40; return raw }},
		{"flipped checksum byte", func(raw []byte) []byte { raw[len(raw)-1] ^= 1; return raw }},
		{"bad magic", func(raw []byte) []byte { raw[0] = 'X'; return raw }},
		{"future version", func(raw []byte) []byte { raw[len(snapshotMagic)+3] = 99; return raw }},
		{"trailing bytes", func(raw []byte) []byte { return append(raw, 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path, raw := write(t)
			if err := os.WriteFile(path, tc.mangle(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := ReadSnapshot(path); err == nil {
				t.Fatalf("damaged snapshot read back %d entries without error", len(got))
			}
		})
	}
}
