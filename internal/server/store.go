package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"

	cleansel "github.com/factcheck/cleansel"
	"github.com/factcheck/cleansel/internal/lru"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/server/persist"
	"github.com/factcheck/cleansel/internal/server/wire"
)

// errDatasetTooLarge rejects uploads that could never be retained
// under the store's byte budget; callers map it to 413.
var errDatasetTooLarge = errors.New("dataset exceeds the store's byte budget")

// errPersist marks a failure to durably store an acknowledged upload;
// callers map it to 500 (the daemon promised durability and could not
// deliver, which is a server-side fault, not a client one).
var errPersist = errors.New("persisting dataset")

// storedDataset is one uploaded dataset: the compiled database plus the
// metadata the API reports back. Bytes is the approximate in-memory
// size, taken from the canonical JSON encoding of the upload — the
// same measure the store's byte budget uses.
type storedDataset struct {
	ID      string
	Name    string
	DB      *cleansel.DB
	Objects int
	Bytes   int64
}

// datasetStore holds uploaded datasets keyed by content-addressed IDs,
// evicting least-recently-used entries beyond its entry or byte
// capacity. Content addressing makes uploads idempotent — re-uploading
// the same objects returns the same ID — and keeps result-cache keys
// valid across evict/re-upload cycles.
//
// With a disk directory attached, the store is durable: every
// acknowledged upload is also an atomically written content-hash-named
// file, budgets are enforced against the on-disk index, and a Get that
// misses the in-memory cache lazily reloads — verifying the content
// hash — from disk. Without one (the default), behavior is exactly the
// historical in-memory semantics.
type datasetStore struct {
	cache *lru.Cache[*storedDataset]
	disk  *persist.DatasetDir // nil = in-memory only
	// reloads counts datasets recompiled from their disk file after an
	// in-memory eviction or restart — each is a full decode + engine
	// compile, so a climbing rate means the memory budget is too small
	// for the working set.
	reloads *obs.Counter
}

// newDatasetStore builds a store whose cache ticks hits and misses and
// whose disk reloads tick reloads; nil counters count nothing.
func newDatasetStore(maxEntries int, maxBytes int64, disk *persist.DatasetDir, hits, misses, reloads *obs.Counter) *datasetStore {
	return &datasetStore{
		cache:   lru.New[*storedDataset](maxEntries, maxBytes, hits, misses, nil),
		disk:    disk,
		reloads: reloads,
	}
}

// datasetID derives the content-addressed ID of an object list and the
// canonical encoding it hashes. The canonical form is exactly
// encoding/json's marshaling (struct fields in declaration order, map
// keys sorted; see wire.AppendObjects), so IDs and dataset file names
// written by earlier builds stay valid. The full 32-byte digest is
// kept: IDs double as result-cache key material, so they must not be
// forgeable by birthday collisions on a truncated hash.
func datasetID(objects []wire.Object) (string, []byte) {
	canonical := wire.AppendObjects(nil, objects)
	sum := sha256.Sum256(canonical)
	return "ds_" + hex.EncodeToString(sum[:]), canonical
}

// ownNames gives the object names a stored dataset keeps their own
// memory: decoded strings share one copy of the whole request body,
// which a long-lived record must not pin beyond its byte budget.
func ownNames(objects []wire.Object) {
	for i := range objects {
		objects[i].Name = strings.Clone(objects[i].Name)
	}
}

// Add compiles and stores a dataset, returning its content-addressed
// record. Re-uploading identical objects is a no-op returning the same
// ID. A dataset too large to ever fit the byte budget is rejected with
// errDatasetTooLarge: answering success for an ID that was silently
// dropped would turn every follow-up select into a 404. In durable
// mode the upload is acknowledged only after the dataset file is
// atomically on disk.
func (s *datasetStore) Add(ds wire.Dataset) (*storedDataset, error) {
	id, canonical := datasetID(ds.Objects)
	size := int64(len(canonical))
	if max := s.cache.MaxBytes(); max > 0 && size > max {
		return nil, fmt.Errorf("%w (%d > %d bytes)", errDatasetTooLarge, size, max)
	}
	rec, ok := s.cache.Get(id)
	fresh := false
	switch {
	case ok && (ds.Name == "" || rec.Name == ds.Name):
		// Identical content and label: nothing to recompute.
	case ok:
		// Same content under a new label: honour the latest name (the
		// compiled database is shared; only the metadata changes).
		rec = &storedDataset{ID: id, Name: strings.Clone(ds.Name), DB: rec.DB, Objects: rec.Objects, Bytes: rec.Bytes}
		fresh = true
	default:
		ownNames(ds.Objects)
		db, err := wire.BuildDB(ds.Objects)
		if err != nil {
			return nil, err
		}
		rec = &storedDataset{ID: id, Name: strings.Clone(ds.Name), DB: db, Objects: db.N(), Bytes: size}
		fresh = true
	}
	if s.disk != nil {
		// Re-uploads rewrite the file too: that refreshes the label,
		// and restores the disk copy if the budget evicted it while the
		// compiled record was still cached in memory.
		if err := s.disk.Put(id, rec.Name, canonical); err != nil {
			if errors.Is(err, persist.ErrTooLarge) {
				// The file envelope pushed a boundary-sized upload past
				// the budget: the client's problem (413), not ours.
				return nil, fmt.Errorf("%w (%v)", errDatasetTooLarge, err)
			}
			return nil, fmt.Errorf("%w: %v", errPersist, err)
		}
	}
	// Publish in memory only after the durable write: a failed persist
	// must leave no acknowledged-looking record behind.
	if fresh {
		s.cache.Put(id, rec, rec.Bytes)
	}
	return rec, nil
}

// Get returns a stored dataset by ID, lazily reloading and recompiling
// it from disk in durable mode when the in-memory cache has evicted it
// (or after a restart).
func (s *datasetStore) Get(id string) (*storedDataset, bool) {
	if rec, ok := s.cache.Get(id); ok {
		if s.disk != nil {
			// Keep the durable copy as hot as the compiled one, or the
			// disk budget would evict the most-used dataset's file
			// while memory keeps absorbing its requests.
			s.disk.Touch(id)
		}
		return rec, true
	}
	if s.disk == nil {
		return nil, false
	}
	name, canonical, err := s.disk.Get(id)
	if err != nil {
		return nil, false
	}
	objects, err := wire.DecodeObjects(bytes.NewReader(canonical))
	if err != nil {
		// Unreachable after the hash check unless the writer was buggy;
		// treat it like any other unusable file.
		s.disk.Quarantine(id, err)
		return nil, false
	}
	ownNames(objects)
	db, err := wire.BuildDB(objects)
	if err != nil {
		s.disk.Quarantine(id, err)
		return nil, false
	}
	rec := &storedDataset{ID: id, Name: name, DB: db, Objects: db.N(), Bytes: int64(len(canonical))}
	s.cache.Put(id, rec, rec.Bytes)
	s.reloads.Inc()
	return rec, true
}

// Len returns the number of stored datasets in memory.
func (s *datasetStore) Len() int { return s.cache.Len() }

// Bytes returns the approximate total size of the in-memory datasets.
func (s *datasetStore) Bytes() int64 { return s.cache.Bytes() }
