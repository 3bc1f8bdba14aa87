// Package server implements the cleanseld HTTP/JSON service: a serving
// layer over cleansel.Select, cleansel.RankObjects, and
// core.TriageContext's AssessBatch, which runs every assessment
// (/v1/assess as a batch of one, /v1/triage as a batch of many).
//
// Endpoints:
//
//	POST /v1/datasets      upload a dataset once, get a content-addressed ID
//	GET  /v1/datasets/{id} dataset metadata
//	POST /v1/select        solve a selection task (inline objects or dataset_id)
//	POST /v1/rank          standalone benefit ranking of every object
//	POST /v1/assess        claim-quality report (bias/duplicity/fragility)
//	POST /v1/triage        bulk assessment: many claims over one dataset, ranked
//	POST /v1/sessions      open an interactive cleaning session (adaptive loop)
//	GET  /v1/sessions/{id} current session state and recommendation
//	POST /v1/sessions/{id}/clean  report one cleaned value, advance the session
//	DELETE /v1/sessions/{id}      end a session early
//	GET  /healthz          liveness, uptime, and cache/store/session statistics
//
// See docs/API.md for the full wire contract of every endpoint.
//
// Successful select/rank/assess/triage responses are cached in an LRU
// keyed on a canonical request hash, so repeated identical requests (the
// common pattern when many checkers inspect one viral claim) are served
// without recomputation; the X-Cache response header reports hit or miss.
// Requests are bounded by a per-request timeout and a maximum body size,
// and every request is access-logged through log/slog with latency and
// cache-status fields.
//
// By default all state is in-memory. Config.DataDir makes the dataset
// store disk-backed (content-hash-named files, atomic writes, lazy
// reload after restart) and Config.CacheSnapshot gives the result
// cache periodic checksummed snapshots restored on startup; see
// internal/server/persist. /healthz then reports a "persist" block
// (datasets_on_disk, snapshot_age_seconds, load_errors).
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/factcheck/cleansel/internal/lru"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/server/persist"
	"github.com/factcheck/cleansel/internal/server/wire"
	"github.com/factcheck/cleansel/internal/session"
)

// Config tunes a Server. The zero value gets sensible defaults.
type Config struct {
	// Logger receives access and error logs; nil discards them.
	Logger *slog.Logger
	// Timeout bounds each request's compute time (default 30s).
	Timeout time.Duration
	// CacheSize is the result-cache capacity in entries (default 1024;
	// negative disables caching).
	CacheSize int
	// CacheBytes bounds the result cache's total encoded-response size
	// in bytes (0 = unbounded by size).
	CacheBytes int64
	// MaxDatasets bounds the dataset store (default 64).
	MaxDatasets int
	// MaxDatasetBytes bounds the dataset store's total approximate size
	// in bytes, measured on the canonical upload encoding (0 =
	// unbounded by size).
	MaxDatasetBytes int64
	// MaxBodyBytes bounds request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxInflight caps concurrently running solver goroutines (default
	// GOMAXPROCS). Timed-out solves are cancelled through their
	// context, and identical in-flight requests coalesce into one
	// solve; the cap keeps a burst of distinct expensive requests from
	// starving the daemon.
	MaxInflight int
	// DataDir, when non-empty, makes the dataset store disk-backed:
	// uploads are atomically written as content-hash-named files under
	// DataDir/datasets, reloaded lazily after a restart, with
	// MaxDatasets/MaxDatasetBytes enforced against the on-disk index.
	// Empty (the default) keeps the store in-memory only.
	DataDir string
	// CacheSnapshot, when non-empty, is the file the result cache is
	// periodically snapshotted to, restored from on startup, and
	// finally flushed to on Close. Empty disables snapshots.
	CacheSnapshot string
	// CacheSnapshotEvery is the period between cache snapshots when
	// CacheSnapshot is set (default 1m).
	CacheSnapshotEvery time.Duration
	// SessionTTL is how long an idle interactive session survives
	// before expiring (default 30m; negative disables expiry).
	SessionTTL time.Duration
	// SessionCap bounds concurrently live sessions; the least recently
	// used is evicted at the cap (default 256).
	SessionCap int
	// SessionSnapshot, when non-empty, is the file live sessions are
	// snapshotted to on every mutation and restored from on startup, so
	// interactive episodes survive a daemon restart. Empty keeps
	// sessions in-memory only.
	SessionSnapshot string
	// Clock supplies wall time for uptime, request latency, snapshot
	// ages, session TTLs, and per-request trace recorders; nil uses the
	// system clock. The serving layer is where wall time enters the
	// system: the engines below never read a clock (the cleansel-lint
	// walltime contract) — they only tick the obs.Recorder this clock
	// feeds.
	Clock obs.Clock
}

func (c Config) withDefaults() Config {
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxDatasets <= 0 {
		c.MaxDatasets = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.CacheSnapshotEvery <= 0 {
		c.CacheSnapshotEvery = time.Minute
	}
	if c.Clock == nil {
		c.Clock = obs.SystemClock
	}
	return c
}

// Server is the cleanseld request handler.
type Server struct {
	cfg     Config
	log     *slog.Logger
	clock   obs.Clock
	store   *datasetStore
	results *lru.Cache[[]byte]
	flights *flightGroup  // coalesces identical in-flight solves
	sem     chan struct{} // counting semaphore over solver goroutines
	start   time.Time
	met     *serverMetrics // the /metrics surface; also feeds /healthz

	// sessions holds the interactive cleaning episodes (the served
	// adaptive loop); see internal/session.
	sessions *session.Manager

	// Durable-state machinery; zero/nil when the server is in-memory
	// only (the default).
	disk           *persist.DatasetDir
	snapPath       string
	snapLoadErrors atomic.Uint64 // unusable snapshots detected at startup
	lastSnap       atomic.Int64  // unix seconds of the newest good snapshot
	lastSnapGen    atomic.Uint64 // results.Gen() captured by the newest snapshot
	stopSnap       chan struct{}
	snapDone       chan struct{}
	closeOnce      sync.Once
}

// New builds a Server from cfg. It fails only when durable state is
// requested and its directory cannot be prepared; damaged state found
// there (corrupt datasets, an unreadable snapshot) is logged, counted,
// and skipped rather than refusing to serve.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	// The registry comes first: every counter is created registered and
	// handed to its owner below.
	met := newServerMetrics()
	s := &Server{
		cfg:     cfg,
		log:     cfg.Logger,
		clock:   cfg.Clock,
		results: lru.New[[]byte](cfg.CacheSize, cfg.CacheBytes, met.cacheHit, met.cacheMiss, nil),
		flights: newFlightGroup(met.coalesced, cfg.Logger),
		sem:     make(chan struct{}, cfg.MaxInflight),
		met:     met,
	}
	s.start = s.clock.Now()
	if cfg.DataDir != "" {
		disk, err := persist.OpenDatasets(filepath.Join(cfg.DataDir, "datasets"),
			cfg.MaxDatasets, cfg.MaxDatasetBytes, cfg.Logger)
		if err != nil {
			return nil, err
		}
		s.disk = disk
	}
	s.store = newDatasetStore(cfg.MaxDatasets, cfg.MaxDatasetBytes, s.disk,
		met.datasetHit, met.datasetMiss, met.diskReloads)
	if cfg.CacheSnapshot != "" {
		s.snapPath = cfg.CacheSnapshot
		s.restoreSnapshot()
		s.stopSnap = make(chan struct{})
		s.snapDone = make(chan struct{})
		go s.snapshotLoop(cfg.CacheSnapshotEvery)
	}
	// Sessions come after the store: their restore path resolves
	// datasets through it.
	sessions, err := session.NewManager(session.Config{
		Clock:        cfg.Clock,
		TTL:          cfg.SessionTTL,
		Capacity:     cfg.SessionCap,
		SnapshotPath: cfg.SessionSnapshot,
		Rebuild:      s.rebuildSession,
		Logger:       cfg.Logger,
		Counters:     met.sessions,
	})
	if err != nil {
		return nil, err
	}
	s.sessions = sessions
	met.registerGauges(s)
	return s, nil
}

// restoreSnapshot refills the result cache from the snapshot file, if
// any. A damaged snapshot is logged and counted, and the cache starts
// cold — a restart must never crash or serve a partial restore.
func (s *Server) restoreSnapshot() {
	entries, err := persist.ReadSnapshot(s.snapPath)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return // first boot: nothing to restore
		}
		s.snapLoadErrors.Add(1)
		s.log.Warn("cache snapshot unusable, starting cold", "path", s.snapPath, "err", err)
		return
	}
	for _, e := range entries {
		s.results.Put(e.Key, e.Value, int64(len(e.Value)))
	}
	if info, err := os.Stat(s.snapPath); err == nil {
		s.lastSnap.Store(info.ModTime().Unix())
	}
	// The on-disk snapshot already matches this state; don't rewrite it
	// until the cache actually changes again.
	s.lastSnapGen.Store(s.results.Gen())
	s.log.Info("restored cache snapshot", "path", s.snapPath, "entries", len(entries))
}

// writeSnapshot dumps the result cache to the snapshot file, skipping
// the write when the cache content is unchanged since the last
// snapshot (an idle daemon must not rewrite a large snapshot forever).
func (s *Server) writeSnapshot() {
	gen := s.results.Gen()
	if gen == s.lastSnapGen.Load() && s.lastSnap.Load() > 0 {
		return
	}
	var entries []persist.Entry
	s.results.Each(func(key string, val []byte, size int64) {
		entries = append(entries, persist.Entry{Key: key, Value: val})
	})
	if err := persist.WriteSnapshot(s.snapPath, entries); err != nil {
		s.log.Error("writing cache snapshot", "path", s.snapPath, "err", err)
		return
	}
	s.lastSnap.Store(s.clock.Now().Unix())
	s.lastSnapGen.Store(gen)
}

// snapshotLoop periodically snapshots the result cache until Close.
func (s *Server) snapshotLoop(every time.Duration) {
	defer close(s.snapDone)
	ticker := time.NewTicker(every)
	defer ticker.Stop()
	for {
		select {
		case <-ticker.C:
			s.writeSnapshot()
		case <-s.stopSnap:
			return
		}
	}
}

// Close stops the snapshot loop and writes final cache and session
// snapshots, so a graceful shutdown preserves the whole warm cache and
// every live episode. It is idempotent and cheap for in-memory-only
// servers.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		if s.stopSnap != nil {
			close(s.stopSnap)
			<-s.snapDone
			s.writeSnapshot()
		}
		s.sessions.Close()
	})
}

// persistLoadErrors counts unusable files detected in the durable
// state: corrupt dataset files plus unreadable cache snapshots. Both
// /healthz and the cleanseld_persist_load_errors gauge read it.
func (s *Server) persistLoadErrors() uint64 {
	n := s.snapLoadErrors.Load()
	if s.disk != nil {
		n += s.disk.LoadErrors()
	}
	return n
}

// snapshotAge returns seconds since the newest good cache snapshot,
// or -1 before the first.
func (s *Server) snapshotAge() int64 {
	t := s.lastSnap.Load()
	if t <= 0 {
		return -1
	}
	return max(0, int64(s.clock.Now().Sub(time.Unix(t, 0)).Seconds()))
}

// persistStats summarizes the durable-state layer for /healthz; nil
// when the server is in-memory only (the default).
func (s *Server) persistStats() map[string]any {
	if s.disk == nil && s.snapPath == "" {
		return nil
	}
	var onDisk int
	var diskBytes int64
	if s.disk != nil {
		onDisk, diskBytes = s.disk.Len(), s.disk.Bytes()
	}
	return map[string]any{
		"datasets_on_disk":     onDisk,
		"dataset_disk_bytes":   diskBytes,
		"snapshot_age_seconds": s.snapshotAge(),
		"load_errors":          s.persistLoadErrors(),
	}
}

// Handler returns the routed, logged HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/datasets", s.handleDatasetUpload)
	mux.HandleFunc("GET /v1/datasets/{id}", s.handleDatasetGet)
	mux.HandleFunc("POST /v1/select", s.handleSelect)
	mux.HandleFunc("POST /v1/rank", s.handleRank)
	mux.HandleFunc("POST /v1/assess", s.handleAssess)
	mux.HandleFunc("POST /v1/triage", s.handleTriage)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("GET /v1/sessions/{id}", s.handleSessionGet)
	mux.HandleFunc("POST /v1/sessions/{id}/clean", s.handleSessionClean)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionDelete)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.Handle("GET /metrics", s.met.registry)
	return s.accessLog(mux)
}

// apiError is a structured, serializable request failure. RequestID is
// stamped by writeError from the response's X-Request-ID header, so a
// client error report can be matched to the daemon's access log line.
type apiError struct {
	Status    int    `json:"-"`
	Code      string `json:"code"`
	Message   string `json:"message"`
	RequestID string `json:"request_id,omitempty"`
}

func (e *apiError) Error() string { return e.Message }

func badRequest(err error) *apiError {
	return &apiError{Status: http.StatusBadRequest, Code: "bad_request", Message: err.Error()}
}

func notFound(msg string) *apiError {
	return &apiError{Status: http.StatusNotFound, Code: "not_found", Message: msg}
}

// writeError encodes err as the structured error JSON, classifying
// non-apiError values on the way: body-limit violations map to 413,
// timeouts to 504, everything else to a 400 (the compute layer only
// fails on invalid problem specifications).
func (s *Server) writeError(w http.ResponseWriter, err error) {
	var ae *apiError
	if !errors.As(err, &ae) {
		switch {
		case isBodyLimit(err):
			ae = &apiError{Status: http.StatusRequestEntityTooLarge, Code: "payload_too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", s.cfg.MaxBodyBytes)}
		case errors.Is(err, context.DeadlineExceeded):
			ae = &apiError{Status: http.StatusGatewayTimeout, Code: "timeout",
				Message: fmt.Sprintf("request exceeded the %s compute budget", s.cfg.Timeout)}
		default:
			ae = badRequest(err)
		}
	}
	// Copy before stamping the request ID: a coalesced solve hands the
	// same error value to every waiter, and each response has its own ID.
	env := *ae
	env.RequestID = w.Header().Get("X-Request-ID")
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(ae.Status)
	if encErr := json.NewEncoder(w).Encode(map[string]*apiError{"error": &env}); encErr != nil {
		s.log.Error("encoding error response", "err", encErr)
	}
}

// isBodyLimit reports whether err came from http.MaxBytesReader (the
// wire decoder wraps it, so unwrap through the chain).
func isBodyLimit(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.log.Error("encoding response", "err", err)
	}
}

// compute runs f on the caller's goroutine under the server's
// per-request timeout and in-flight cap, passing f the bounded context.
// The solvers cooperate with cancellation (cleansel.SelectContext and
// friends): they check the context between units of work, so when the
// deadline fires — or the caller walks away — f returns once the unit
// in hand ends instead of running to completion. A unit is not
// interrupted, and one can be long: a group-engine term walk enumerates
// every joint outcome of its term's values, so a select, rank, assess
// or triage over a wide term can run far past the deadline. The
// semaphore slot is held until f returns, so the MaxInflight bound on
// burning cores is real, and such a walk keeps its slot until it ends.
func (s *Server) compute(ctx context.Context, f func(context.Context) (any, error)) (any, error) {
	ctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout)
	defer cancel()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
	defer func() { <-s.sem }()
	return f(ctx)
}

// canonicalRequest is a decoded request that appends its canonical
// encoding: exactly the bytes json.Marshal produces for it (see
// wire.Task.AppendCanonical), so the keys in a CLEANSNP snapshot
// written by any earlier build still match.
type canonicalRequest interface {
	AppendCanonical(dst []byte) []byte
}

// keyBufs recycles the buffers cache keys are hashed from.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// cacheKey derives the canonical hash of one decoded request. Struct
// fields encode in declaration order and map keys sort, so any two
// requests with equal content share a key; the endpoint name salts the
// hash across handlers, and dataset IDs are content-addressed, so a key
// never aliases different problems.
func cacheKey(endpoint string, req canonicalRequest) string {
	bp := keyBufs.Get().(*[]byte)
	b := append(append((*bp)[:0], endpoint...), 0)
	b = req.AppendCanonical(b)
	sum := sha256.Sum256(b)
	if cap(b) <= wire.MaxPooledBuffer {
		*bp = b
		keyBufs.Put(bp)
	}
	return hex.EncodeToString(sum[:])
}

// statusRecorder captures the response status and size for access logs.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += n
	return n, err
}

// accessLog wraps next with the per-request observability plumbing:
// it assigns or propagates the X-Request-ID, attaches a fresh
// obs.Recorder to the context for the solve stages to tick, records
// the request into the metrics (endpoint/status counters and the
// latency histogram), and emits one structured access-log line with
// request ID, cache status, and the trace's stage/op totals.
func (s *Server) accessLog(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		reqID := r.Header.Get("X-Request-ID")
		if !obs.ValidRequestID(reqID) {
			reqID = obs.NewRequestID()
		}
		w.Header().Set("X-Request-ID", reqID)
		trace := obs.NewRecorder(s.clock)
		ctx := obs.WithRecorder(obs.WithRequestID(r.Context(), reqID), trace)
		r = r.WithContext(ctx)

		s.met.inflight.Add(1)
		rec := &statusRecorder{ResponseWriter: w}
		begin := s.clock.Now()
		next.ServeHTTP(rec, r)
		elapsed := s.clock.Now().Sub(begin)
		status := rec.status
		if status == 0 {
			status = http.StatusOK
		}
		// Count the completed request before dropping in-flight so the
		// requests-seen view (/healthz) never moves backwards.
		s.met.observeRequest(endpointOf(r.URL.Path), strconv.Itoa(status), elapsed)
		s.met.inflight.Add(-1)
		tr := trace.Snapshot()
		s.met.absorb(tr)

		attrs := []any{
			"method", r.Method,
			"path", r.URL.Path,
			"status", status,
			"dur_ms", float64(elapsed.Microseconds()) / 1000,
			"bytes", rec.bytes,
			"remote", r.RemoteAddr,
			"request_id", reqID,
		}
		if cache := rec.Header().Get("X-Cache"); cache != "" {
			attrs = append(attrs, "cache", cache)
		}
		if len(tr.Stages) > 0 {
			attrs = append(attrs, tr.StageAttrs())
		}
		if len(tr.Counters) > 0 {
			attrs = append(attrs, tr.CounterAttrs())
		}
		s.log.Info("request", attrs...)
	})
}
