// Package persist gives the cleanseld serving layer durable state.
//
// It has two halves, both optional and both off by default (the server
// stays in-memory only unless configured otherwise):
//
//   - DatasetDir: a disk-backed index for the content-addressed dataset
//     store. Each dataset is one file named by its content hash
//     (ds_<sha256>.json), written via a same-directory temp file and
//     atomic rename so a crash can never leave a half-written dataset
//     under a valid name. Files are indexed (not parsed) on open and
//     loaded lazily on first Get; entry and byte budgets are enforced
//     against the on-disk index (an lru.Cache sized in file bytes),
//     evicting least-recently-used files.
//
//   - Snapshot: a versioned, checksummed on-disk format for the LRU
//     result cache, written periodically and on graceful shutdown and
//     restored on startup.
//
// Recovery never crashes and never serves wrong bytes: a truncated or
// corrupt dataset file (bad JSON, wrong format version, content hash
// not matching the file name) is quarantined, logged, and counted; a
// damaged snapshot is detected by its checksum and skipped, starting
// the cache cold.
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"

	"github.com/factcheck/cleansel/internal/lru"
)

const (
	// DatasetFormat is the current dataset file format version.
	DatasetFormat = 1

	tmpPrefix     = ".tmp-"
	corruptSuffix = ".corrupt"
)

// ErrTooLarge rejects a dataset that can never fit the on-disk byte
// budget; callers treat it as the client's fault (413), not a server
// persistence failure.
var ErrTooLarge = errors.New("dataset exceeds the on-disk byte budget")

// datasetFile is the on-disk representation of one uploaded dataset.
// Objects holds the canonical JSON encoding of the upload's objects —
// exactly the bytes whose SHA-256 is the dataset's content-addressed
// ID — so integrity is verified against the file's own name on load
// and a Get round-trips the upload bit-identically.
type datasetFile struct {
	Format  int             `json:"format"`
	Name    string          `json:"name,omitempty"`
	Objects json.RawMessage `json:"objects"`
}

// DatasetDir manages the content-hash-named dataset files under one
// directory. All methods are safe for concurrent use.
type DatasetDir struct {
	dir string
	log *slog.Logger
	// index holds every dataset id on disk, sized by its file's bytes,
	// in recency order; evicting an id deletes its file.
	index *lru.Cache[struct{}]

	loadErrors atomic.Uint64
}

// OpenDatasets opens (creating if needed) a dataset directory bounded
// by maxEntries entries (0 = unbounded) and maxBytes total file bytes
// (0 = unbounded). Existing dataset files are indexed by name and size
// only — parsing and integrity checks happen lazily on Get — with
// recency seeded from file modification times, and the budgets evict
// the oldest files; a file larger than the byte budget on its own is
// deleted without evicting anything else. Leftover temp files from a
// crashed write are removed and counted as load errors (the
// interrupted upload was never acknowledged, but the operator should
// see that it happened).
func OpenDatasets(dir string, maxEntries int, maxBytes int64, log *slog.Logger) (*DatasetDir, error) {
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("creating dataset dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("scanning dataset dir: %w", err)
	}
	d := &DatasetDir{dir: dir, log: log}
	d.index = lru.New(max(maxEntries, 0), maxBytes, nil, nil, d.evicted)
	type found struct {
		id    string
		size  int64
		mtime int64
	}
	var scan []found
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		switch {
		case strings.HasPrefix(name, tmpPrefix):
			// A crash between temp write and rename: the upload was
			// never acknowledged, so nothing is lost, but surface it.
			d.loadErrors.Add(1)
			log.Warn("persist: removing leftover temp file", "file", name)
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				log.Warn("persist: removing temp file", "file", name, "err", err)
			}
			continue
		case strings.HasSuffix(name, corruptSuffix):
			// Quarantined on an earlier run; kept for post-mortem.
			continue
		}
		id, ok := idFromFileName(name)
		if !ok {
			log.Warn("persist: ignoring unrecognized file in dataset dir", "file", name)
			continue
		}
		info, err := e.Info()
		if err != nil {
			d.loadErrors.Add(1)
			log.Warn("persist: stat dataset file", "file", name, "err", err)
			continue
		}
		scan = append(scan, found{id: id, size: info.Size(), mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(scan, func(i, j int) bool { // oldest first; ties by id for determinism
		if scan[i].mtime != scan[j].mtime {
			return scan[i].mtime < scan[j].mtime
		}
		return scan[i].id < scan[j].id
	})
	for _, f := range scan {
		if maxBytes > 0 && f.size > maxBytes {
			d.evicted(f.id, struct{}{}, f.size)
			continue
		}
		d.index.Put(f.id, struct{}{}, f.size)
	}
	return d, nil
}

// idFromFileName recovers a dataset ID from its file name, rejecting
// anything that is not ds_<64 hex digits>.json.
func idFromFileName(name string) (string, bool) {
	id, ok := strings.CutSuffix(name, ".json")
	if !ok {
		return "", false
	}
	hexPart, ok := strings.CutPrefix(id, "ds_")
	if !ok || len(hexPart) != 2*sha256.Size {
		return "", false
	}
	if _, err := hex.DecodeString(hexPart); err != nil {
		return "", false
	}
	return id, true
}

func (d *DatasetDir) path(id string) string { return filepath.Join(d.dir, id+".json") }

// Put durably stores a dataset under its content-addressed id. The
// canonical objects encoding must be the bytes the id hashes; name is
// the display label (latest wins on re-upload). The file reaches its
// final name only through an atomic rename of a fully written temp
// file. Oversized datasets are rejected up front rather than flushing
// every resident file for something that can never fit.
func (d *DatasetDir) Put(id, name string, canonicalObjects []byte) error {
	body, err := json.Marshal(datasetFile{Format: DatasetFormat, Name: name, Objects: canonicalObjects})
	if err != nil {
		return fmt.Errorf("encoding dataset file: %w", err)
	}
	size := int64(len(body))
	if budget := d.index.MaxBytes(); budget > 0 && size > budget {
		return fmt.Errorf("%w: dataset %s file is %d bytes, budget %d", ErrTooLarge, id, size, budget)
	}
	if err := atomicWrite(d.path(id), body); err != nil {
		return fmt.Errorf("writing dataset file: %w", err)
	}
	d.index.Put(id, struct{}{}, size)
	return nil
}

// Get loads a dataset by id, verifying integrity: the file must parse
// as the current format and the SHA-256 of its canonical objects
// encoding must reproduce the content-addressed file name. A missing
// id returns fs.ErrNotExist; a truncated or corrupt file is
// quarantined (counted, logged, moved aside) and reported as missing —
// never a crash, never silently wrong bytes.
func (d *DatasetDir) Get(id string) (name string, canonicalObjects []byte, err error) {
	if _, ok := d.index.Get(id); !ok {
		return "", nil, fs.ErrNotExist
	}
	raw, err := os.ReadFile(d.path(id))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Not corruption: the file was removed under us (most
			// likely a concurrent budget eviction between the index
			// check and the read). Drop the stale index entry silently.
			d.index.Remove(id)
			return "", nil, fs.ErrNotExist
		}
		d.Quarantine(id, err)
		return "", nil, fs.ErrNotExist
	}
	f, err := decodeDatasetFile(raw)
	if err != nil {
		d.Quarantine(id, err)
		return "", nil, fs.ErrNotExist
	}
	if sum := sha256.Sum256(f.Objects); "ds_"+hex.EncodeToString(sum[:]) != id {
		d.Quarantine(id, errors.New("content hash does not match file name"))
		return "", nil, fs.ErrNotExist
	}
	return f.Name, f.Objects, nil
}

// decodeDatasetFile strictly parses a dataset file.
func decodeDatasetFile(raw []byte) (datasetFile, error) {
	var f datasetFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return f, fmt.Errorf("parsing dataset file: %w", err)
	}
	// Only whitespace may follow: More alone would pass a stray '}' or ']'.
	if _, err := dec.Token(); err != io.EOF {
		return f, errors.New("trailing data after dataset file")
	}
	if f.Format != DatasetFormat {
		return f, fmt.Errorf("unsupported dataset format %d", f.Format)
	}
	if len(f.Objects) == 0 {
		return f, errors.New("dataset file has no objects")
	}
	return f, nil
}

// Touch marks id most recently used in the on-disk index, if present.
// The serving layer calls it on in-memory cache hits so that a hot
// dataset's durable copy cannot age out of the disk budget while the
// compiled copy keeps absorbing every request.
func (d *DatasetDir) Touch(id string) { d.index.Get(id) }

// Quarantine drops id from the index and moves its file aside
// (*.corrupt, kept for post-mortem), counting the load error. The
// daemon keeps serving; the caller sees the dataset as missing.
func (d *DatasetDir) Quarantine(id string, cause error) {
	d.loadErrors.Add(1)
	d.log.Warn("persist: dataset unusable, quarantined", "id", id, "err", cause)
	d.index.Remove(id)
	if err := os.Rename(d.path(id), d.path(id)+corruptSuffix); err != nil && !errors.Is(err, fs.ErrNotExist) {
		d.log.Warn("persist: quarantining dataset file", "id", id, "err", err)
	}
}

// evicted deletes the file of a dataset the budgets dropped: the
// index's eviction callback.
func (d *DatasetDir) evicted(id string, _ struct{}, size int64) {
	if err := os.Remove(d.path(id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		d.log.Warn("persist: removing evicted dataset file", "id", id, "err", err)
	} else {
		d.log.Info("persist: evicted dataset beyond budget", "id", id, "bytes", size)
	}
}

// Len returns the number of indexed on-disk datasets.
func (d *DatasetDir) Len() int { return d.index.Len() }

// Bytes returns the total size of the indexed on-disk dataset files.
func (d *DatasetDir) Bytes() int64 { return d.index.Bytes() }

// LoadErrors returns the cumulative count of unusable state detected:
// leftover temp files at open plus files quarantined on load.
func (d *DatasetDir) LoadErrors() uint64 { return d.loadErrors.Load() }

// atomicWrite writes data to path via a same-directory temp file,
// fsync, rename, and a directory fsync, so readers never observe a
// partial file under the final name and an acknowledged write survives
// power loss (the rename's directory entry is on disk before we
// report success).
func atomicWrite(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, tmpPrefix+"*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(data)
	serr := tmp.Sync()
	cerr := tmp.Close()
	if err := errors.Join(werr, serr, cerr); err != nil {
		os.Remove(tmpName)
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory; filesystems and platforms that refuse
// to fsync directories (EINVAL/ENOTSUP, or directories unopenable for
// sync) are reported as success — the rename itself succeeded and
// there is nothing more this process can do.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer df.Close()
	if err := df.Sync(); err != nil &&
		!errors.Is(err, errors.ErrUnsupported) &&
		!errors.Is(err, syscall.EINVAL) && !errors.Is(err, syscall.ENOTSUP) {
		return err
	}
	return nil
}
