package session

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"sync"
	"time"

	"github.com/factcheck/cleansel/internal/lru"
	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/server/persist"
)

// Lookup errors. The server maps them onto the session protocol's
// status codes: 404 unknown, 409 conflict, 410 expired.
var (
	// ErrNotFound marks a session ID the manager has never seen, or one
	// whose record was evicted for capacity.
	ErrNotFound = errors.New("session: not found")
	// ErrExpired marks a session that outlived its TTL (or whose
	// snapshot could not be rebuilt after a restart).
	ErrExpired = errors.New("session: expired")
	// ErrStep marks a clean report whose step counter does not match the
	// session's — a duplicate (stale step) or out-of-order (future step)
	// report.
	ErrStep = errors.New("session: step mismatch")
)

// Config tunes a Manager. Clock is required (inject obs.SystemClock at
// the server boundary, a FakeClock in tests); the rest defaults.
type Config struct {
	// Clock drives TTL expiry and the created/last-used stamps.
	Clock obs.Clock
	// TTL is the idle lifetime of a session: one untouched for longer is
	// expired (default 30m; negative disables expiry).
	TTL time.Duration
	// Capacity bounds live sessions; creating or restoring beyond it
	// evicts the least recently used (default 256).
	Capacity int
	// SnapshotPath, when non-empty, makes sessions durable: every
	// mutation rewrites a checksummed snapshot (internal/server/persist
	// format), and a new Manager restores from it. Empty disables.
	SnapshotPath string
	// Rebuild reconstructs a Stepper from a session's stored spec (the
	// canonical create-request bytes) during restore; required when
	// SnapshotPath is set. The reveal log is replayed on the rebuilt
	// stepper, so the restored state is bit-identical to the lost one.
	Rebuild func(spec []byte) (*Stepper, error)
	// Logger receives restore/persist diagnostics; nil discards.
	Logger *slog.Logger
	// Counters are the lifecycle counters the manager ticks, restore
	// included, so a server can register them on /metrics before the
	// manager exists; nil fields get unregistered counters.
	Counters Counters
}

// Counters are a Manager's lifecycle counters, read by Stats.
type Counters struct {
	Created, Expired, Evicted, Restored *obs.Counter
	LoadErrors, PersistErrors           *obs.Counter
}

// DefaultTTL is the idle lifetime applied when Config.TTL is zero.
const DefaultTTL = 30 * time.Minute

// DefaultCapacity is the live-session bound applied when
// Config.Capacity is zero or negative.
const DefaultCapacity = 256

// record is one live session. All access happens under Manager.mu —
// session steps are a few microseconds of arithmetic, so one lock keeps
// the lifecycle (touch, evict, expire, snapshot) trivially consistent.
type record struct {
	id       string
	spec     []byte
	st       *Stepper
	log      []Reveal
	created  time.Time
	lastUsed time.Time
}

// Manager owns the session records of one server: creation, lookup
// with TTL expiry, capacity-bounded LRU eviction, and durable
// snapshots. All methods are safe for concurrent use.
type Manager struct {
	clock   obs.Clock
	ttl     time.Duration
	snap    string
	rebuild func(spec []byte) (*Stepper, error)
	log     *slog.Logger

	// mu makes each lifecycle step (lookup, touch, evict, expire,
	// snapshot) atomic across the table and the tombstones.
	mu    sync.Mutex
	table *lru.Cache[*record] // live sessions, bounded by Capacity

	// tombs remembers recently expired session IDs so a late request
	// gets 410 Gone instead of 404.
	tombs *lru.Cache[struct{}]

	counts Counters
}

// maxTombstones bounds the expired-ID memory.
const maxTombstones = 4096

// NewManager builds a manager and, when snapshots are configured,
// restores the surviving sessions. Restore failures (missing dataset,
// corrupt snapshot) are logged and counted, never fatal: a restarted
// daemon must serve even if some episodes are lost.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Clock == nil {
		return nil, errors.New("session: Config.Clock is required")
	}
	if cfg.TTL == 0 {
		cfg.TTL = DefaultTTL
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.SnapshotPath != "" && cfg.Rebuild == nil {
		return nil, errors.New("session: Config.Rebuild is required with SnapshotPath")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.DiscardHandler)
	}
	c := cfg.Counters
	for _, p := range []**obs.Counter{&c.Created, &c.Expired, &c.Evicted, &c.Restored, &c.LoadErrors, &c.PersistErrors} {
		if *p == nil {
			*p = &obs.Counter{}
		}
	}
	m := &Manager{
		clock:   cfg.Clock,
		ttl:     cfg.TTL,
		snap:    cfg.SnapshotPath,
		rebuild: cfg.Rebuild,
		log:     cfg.Logger,
		table: lru.New(cfg.Capacity, 0, nil, nil,
			func(string, *record, int64) { c.Evicted.Inc() }),
		tombs:  lru.New[struct{}](maxTombstones, 0, nil, nil, nil),
		counts: c,
	}
	if m.snap != "" {
		m.restore()
	}
	return m, nil
}

// State is an immutable snapshot of one session, everything the wire
// layer needs to answer a request.
type State struct {
	ID          string
	Goal        Goal
	Status      Status
	Steps       int
	Tau         float64
	Budget      float64
	Remaining   float64
	Spent       float64
	Baseline    float64
	Current     float64
	Achieved    float64
	Estimate    float64
	Uncertainty float64
	Cleaned     []CleanedValue
	// Rec is nil when the session is terminal.
	Rec *Recommendation
}

// CleanedValue is one entry of the cleaned-object log, labeled for the
// wire.
type CleanedValue struct {
	Object int     `json:"object"`
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
}

// stateOf snapshots r. Callers hold m.mu.
func (m *Manager) stateOf(r *record, rec *obs.Recorder) State {
	st := State{
		ID:          r.id,
		Goal:        r.st.Goal(),
		Status:      r.st.Status(rec),
		Steps:       r.st.Steps(),
		Tau:         r.st.Tau(),
		Budget:      r.st.Budget(),
		Remaining:   r.st.Remaining(),
		Spent:       r.st.Spent(),
		Baseline:    r.st.Baseline(),
		Current:     r.st.Current(),
		Achieved:    r.st.Achieved(),
		Estimate:    r.st.Estimate(),
		Uncertainty: r.st.Uncertainty(),
		Cleaned:     make([]CleanedValue, len(r.log)),
	}
	for i, rv := range r.log {
		st.Cleaned[i] = CleanedValue{Object: rv.Object, Name: r.st.Name(rv.Object), Value: rv.Value}
	}
	if rr, ok := r.st.Recommend(rec); ok {
		cp := rr
		st.Rec = &cp
	}
	return st
}

// Create registers a new session around st and returns its initial
// state. spec returns the canonical create-request encoding, what
// Rebuild consumes after a restart: a manager that writes snapshots
// calls it once and keeps the bytes it returns, one that does not never
// calls it. Creating beyond capacity evicts the least recently used
// session.
func (m *Manager) Create(spec func() []byte, st *Stepper, rec *obs.Recorder) (State, error) {
	var b []byte
	if m.snap != "" {
		b = spec()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sweep()
	now := m.clock.Now()
	r := &record{
		id:      "s_" + obs.NewRequestID(),
		spec:    b,
		st:      st,
		created: now, lastUsed: now,
	}
	m.table.Put(r.id, r, 0)
	m.counts.Created.Inc()
	m.persistLocked()
	return m.stateOf(r, rec), nil
}

// Get returns the session's current state, refreshing its TTL.
func (m *Manager) Get(id string, rec *obs.Recorder) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.lookup(id)
	if err != nil {
		return State{}, err
	}
	m.touch(r)
	return m.stateOf(r, rec), nil
}

// Clean applies one clean report: the client cleaned object and found
// value, in response to the recommendation of step. A step that does
// not match the session's counter is rejected with ErrStep (duplicate
// or out-of-order delivery must not corrupt the episode); a reveal the
// stepper refuses surfaces its error (ErrRevealConflict or a plain
// validation error). On success the returned state carries the next
// recommendation.
func (m *Manager) Clean(id string, step, object int, value float64, rec *obs.Recorder) (State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, err := m.lookup(id)
	if err != nil {
		return State{}, err
	}
	if step != r.st.Steps() {
		kind := "out-of-order"
		if step < r.st.Steps() {
			kind = "duplicate"
		}
		return State{}, fmt.Errorf("%w: %s clean report for step %d (session is at step %d)",
			ErrStep, kind, step, r.st.Steps())
	}
	if err := r.st.Reveal(object, value, rec); err != nil {
		return State{}, err
	}
	r.log = append(r.log, Reveal{Object: object, Value: value})
	m.touch(r)
	m.persistLocked()
	return m.stateOf(r, rec), nil
}

// Delete removes the session.
func (m *Manager) Delete(id string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.lookup(id); err != nil {
		return err
	}
	m.table.Remove(id)
	m.persistLocked()
	return nil
}

// lookup resolves id, expiring it first if its TTL lapsed. Callers hold
// m.mu.
func (m *Manager) lookup(id string) (*record, error) {
	m.sweep()
	if r, ok := m.table.Peek(id); ok {
		return r, nil
	}
	if _, gone := m.tombs.Peek(id); gone {
		return nil, fmt.Errorf("%w: session %q idled past its %s TTL", ErrExpired, id, m.ttl)
	}
	return nil, fmt.Errorf("%w: session %q (unknown, evicted, or deleted)", ErrNotFound, id)
}

// sweep expires every session that idled past the TTL, leaving a
// tombstone so late requests distinguish expired from unknown. Callers
// hold m.mu.
func (m *Manager) sweep() {
	if m.ttl < 0 {
		return
	}
	now := m.clock.Now()
	changed := false
	for {
		id, r, ok := m.table.Oldest()
		if !ok || now.Sub(r.lastUsed) <= m.ttl {
			// The LRU order is also a last-used order: everything
			// more recently used is fresher.
			break
		}
		m.table.Remove(id)
		m.tombs.Put(id, struct{}{}, 0)
		m.counts.Expired.Inc()
		changed = true
	}
	if changed {
		m.persistLocked()
	}
}

// touch refreshes the session's recency. Callers hold m.mu.
func (m *Manager) touch(r *record) {
	r.lastUsed = m.clock.Now()
	m.table.Get(r.id)
}

// Stats is the lifecycle view /healthz reports.
type Stats struct {
	Active                              int
	Created, Expired, Evicted, Restored uint64
	LoadErrors, PersistErrors           uint64
}

// Stats returns the manager's lifecycle counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Stats{
		Active:        m.table.Len(),
		Created:       uint64(m.counts.Created.Value()),
		Expired:       uint64(m.counts.Expired.Value()),
		Evicted:       uint64(m.counts.Evicted.Value()),
		Restored:      uint64(m.counts.Restored.Value()),
		LoadErrors:    uint64(m.counts.LoadErrors.Value()),
		PersistErrors: uint64(m.counts.PersistErrors.Value()),
	}
}

// Active returns the number of live sessions (a gauge for /metrics).
func (m *Manager) Active() int { return m.table.Len() }

// Close flushes a final snapshot so a graceful shutdown loses nothing.
func (m *Manager) Close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.persistLocked()
}

// snapRecord is the durable encoding of one session.
type snapRecord struct {
	Spec        json.RawMessage `json:"spec"`
	Log         []Reveal        `json:"log,omitempty"`
	CreatedUnix int64           `json:"created_unix"`
	LastUnix    int64           `json:"last_unix"`
}

// persistLocked rewrites the snapshot (least recently used first, so
// restoring in order reproduces the LRU order). Callers hold m.mu. A
// write failure is logged and counted; the daemon keeps serving from
// memory.
func (m *Manager) persistLocked() {
	if m.snap == "" {
		return
	}
	entries := make([]persist.Entry, 0, m.table.Len())
	m.table.Each(func(id string, r *record, _ int64) {
		val, err := json.Marshal(snapRecord{
			Spec:        json.RawMessage(r.spec),
			Log:         r.log,
			CreatedUnix: r.created.Unix(),
			LastUnix:    r.lastUsed.Unix(),
		})
		if err != nil {
			m.log.Error("encoding session snapshot entry", "session", id, "err", err)
			m.counts.PersistErrors.Inc()
			return
		}
		entries = append(entries, persist.Entry{Key: id, Value: val})
	})
	if err := persist.WriteSnapshot(m.snap, entries); err != nil {
		m.log.Error("writing session snapshot", "path", m.snap, "err", err)
		m.counts.PersistErrors.Inc()
	}
}

// restore refills the manager from the snapshot: rebuild each stepper
// from its stored spec, replay its reveal log, drop what expired while
// the daemon was down, evict beyond Capacity as Create does, and count
// what could not be brought back (for example a session whose dataset
// file vanished).
func (m *Manager) restore() {
	entries, err := persist.ReadSnapshot(m.snap)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return // first boot
		}
		m.counts.LoadErrors.Inc()
		m.log.Warn("session snapshot unusable, starting empty", "path", m.snap, "err", err)
		return
	}
	now := m.clock.Now()
	for _, e := range entries {
		var sr snapRecord
		if err := json.Unmarshal(e.Value, &sr); err != nil {
			m.counts.LoadErrors.Inc()
			m.log.Warn("skipping undecodable session", "session", e.Key, "err", err)
			continue
		}
		last := time.Unix(sr.LastUnix, 0)
		if m.ttl >= 0 && now.Sub(last) > m.ttl {
			m.tombs.Put(e.Key, struct{}{}, 0)
			m.counts.Expired.Inc()
			continue
		}
		st, err := m.rebuild([]byte(sr.Spec))
		if err != nil {
			m.counts.LoadErrors.Inc()
			m.log.Warn("skipping unrebuildable session", "session", e.Key, "err", err)
			continue
		}
		replayOK := true
		for _, rv := range sr.Log {
			if err := st.Reveal(rv.Object, rv.Value, nil); err != nil {
				m.counts.LoadErrors.Inc()
				m.log.Warn("skipping session with unreplayable log", "session", e.Key, "err", err)
				replayOK = false
				break
			}
		}
		if !replayOK {
			continue
		}
		r := &record{
			id:      e.Key,
			spec:    append([]byte(nil), sr.Spec...),
			st:      st,
			log:     append([]Reveal(nil), sr.Log...),
			created: time.Unix(sr.CreatedUnix, 0), lastUsed: last,
		}
		// Entries arrive least recently used first; putting each in turn
		// reproduces the snapshot's recency order.
		m.table.Put(r.id, r, 0)
		m.counts.Restored.Inc()
	}
	m.log.Info("restored session snapshot", "path", m.snap,
		"sessions", m.table.Len(), "entries", len(entries))
}
