package server

import (
	"strings"
	"sync/atomic"
	"time"

	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/session"
)

// serverMetrics is cleanseld's metric surface, all registered on one
// obs.Registry served at GET /metrics. Its counters are created
// registered and handed to their owners at construction (result cache,
// flight group, dataset store, session manager), so /healthz — which
// reads the same objects — can never disagree with a scrape.
type serverMetrics struct {
	registry *obs.Registry

	// requests by endpoint and status code (counted on completion);
	// latency by endpoint; inflight tracks requests currently being
	// handled.
	requests *obs.CounterVec
	latency  *obs.HistogramVec
	inflight atomic.Int64

	// Result-cache outcomes: hit, miss, coalesced.
	cacheHit, cacheMiss, coalesced *obs.Counter

	// Dataset-store traffic.
	datasetHit, datasetMiss, diskReloads *obs.Counter

	// Durable-state failures observed while serving.
	persistErrors *obs.Counter

	// Interactive-session lifecycle events.
	sessions session.Counters

	// Per-stage solve time and engine operation counts, aggregated
	// across requests from each request's Recorder.
	stageSeconds *obs.CounterVec
	engineOps    *obs.CounterVec

	// Claims processed by the bulk triage solve, by outcome (ok or
	// error). Cache-served batches don't re-count: this measures
	// assessment work, not traffic.
	triageClaims *obs.CounterVec
}

// newServerMetrics registers the counters; registerGauges adds the
// gauges once the state they read exists.
func newServerMetrics() *serverMetrics {
	reg := obs.NewRegistry()
	m := &serverMetrics{
		registry: reg,
		requests: reg.CounterVec("cleanseld_requests_total",
			"HTTP requests served, by endpoint and status code.", "endpoint", "code"),
		latency: reg.HistogramVec("cleanseld_request_seconds",
			"End-to-end request latency in seconds, by endpoint.",
			obs.DefLatencyBuckets, "endpoint"),
		diskReloads: reg.Counter("cleanseld_dataset_disk_reloads_total",
			"Datasets recompiled from disk after in-memory eviction or restart."),
		persistErrors: reg.Counter("cleanseld_persist_errors_total",
			"Dataset uploads refused because the durable write failed."),
		stageSeconds: reg.CounterVec("cleanseld_solve_stage_seconds_total",
			"Cumulative solve time by stage, aggregated from per-request traces.", "stage"),
		engineOps: reg.CounterVec("cleanseld_engine_ops_total",
			"Cumulative engine operation counts (convolutions, EV cache traffic, pool items), aggregated from per-request traces.", "op"),
		triageClaims: reg.CounterVec("cleanseld_triage_claims_total",
			"Claims processed by bulk triage solves, by outcome.", "outcome"),
	}
	cacheOps := reg.CounterVec("cleanseld_cache_requests_total",
		"Result-cache outcomes for select/rank/assess requests.", "status")
	m.cacheHit = cacheOps.With("hit")
	m.cacheMiss = cacheOps.With("miss")
	m.coalesced = cacheOps.With("coalesced")
	datasetOps := reg.CounterVec("cleanseld_dataset_cache_requests_total",
		"In-memory dataset store lookups.", "status")
	m.datasetHit = datasetOps.With("hit")
	m.datasetMiss = datasetOps.With("miss")
	sessionEvents := reg.CounterVec("cleanseld_sessions_total",
		"Interactive-session lifecycle events.", "event")
	m.sessions = session.Counters{
		Created:       sessionEvents.With("created"),
		Expired:       sessionEvents.With("expired"),
		Evicted:       sessionEvents.With("evicted"),
		Restored:      sessionEvents.With("restored"),
		LoadErrors:    sessionEvents.With("load_error"),
		PersistErrors: sessionEvents.With("persist_error"),
	}
	return m
}

// registerGauges registers the gauges, which read s live at scrape
// time; s must be fully constructed.
func (m *serverMetrics) registerGauges(s *Server) {
	reg := m.registry
	reg.GaugeFunc("cleanseld_requests_in_flight",
		"Requests currently being handled.", func() float64 { return float64(m.inflight.Load()) })
	reg.GaugeFunc("cleanseld_cache_entries",
		"Entries resident in the result cache.", func() float64 { return float64(s.results.Len()) })
	reg.GaugeFunc("cleanseld_cache_bytes",
		"Approximate bytes resident in the result cache.", func() float64 { return float64(s.results.Bytes()) })
	reg.GaugeFunc("cleanseld_datasets",
		"Datasets resident in memory.", func() float64 { return float64(s.store.Len()) })
	reg.GaugeFunc("cleanseld_dataset_bytes",
		"Approximate bytes of datasets resident in memory.", func() float64 { return float64(s.store.Bytes()) })
	reg.GaugeFunc("cleanseld_sessions_active",
		"Interactive sessions currently live.", func() float64 { return float64(s.sessions.Active()) })
	reg.GaugeFunc("cleanseld_pool_inflight",
		"Solver goroutines currently running (pool occupancy).", func() float64 { return float64(len(s.sem)) })
	reg.GaugeFunc("cleanseld_pool_capacity",
		"Solver goroutine cap (Config.MaxInflight).", func() float64 { return float64(cap(s.sem)) })
	reg.GaugeFunc("cleanseld_uptime_seconds",
		"Seconds since the server started.", func() float64 { return s.clock.Now().Sub(s.start).Seconds() })
	if s.disk != nil || s.snapPath != "" {
		reg.GaugeFunc("cleanseld_persist_load_errors",
			"Unusable files detected in the durable state (corrupt datasets, bad snapshots).",
			func() float64 { return float64(s.persistLoadErrors()) })
		reg.GaugeFunc("cleanseld_snapshot_age_seconds",
			"Seconds since the newest good cache snapshot (-1 before the first).",
			func() float64 { return float64(s.snapshotAge()) })
	}
	if s.disk != nil {
		reg.GaugeFunc("cleanseld_datasets_on_disk",
			"Dataset files resident in the durable store.", func() float64 { return float64(s.disk.Len()) })
		reg.GaugeFunc("cleanseld_dataset_disk_bytes",
			"Bytes resident in the durable dataset store.", func() float64 { return float64(s.disk.Bytes()) })
	}
}

// absorb folds one request's trace into the process-wide stage/op
// totals, the fleet-level view of where solve time goes.
func (m *serverMetrics) absorb(tr obs.Trace) {
	for _, st := range tr.Stages {
		m.stageSeconds.With(st.Name).Add(st.TotalMS / 1000)
	}
	for _, c := range tr.Counters {
		m.engineOps.With(c.Name).Add(float64(c.Value))
	}
}

// observeRequest records one completed request.
func (m *serverMetrics) observeRequest(endpoint, code string, elapsed time.Duration) {
	m.requests.With(endpoint, code).Inc()
	m.latency.With(endpoint).Observe(elapsed.Seconds())
}

// requestsSeen is the /healthz request counter: requests completed
// plus requests in flight — which includes the /healthz request that
// is reading it, matching the historical counted-on-arrival semantics.
func (m *serverMetrics) requestsSeen() uint64 {
	return uint64(m.requests.Total()) + uint64(max(0, m.inflight.Load()))
}

// endpointOf maps a request path to its metrics label: a closed, low-
// cardinality set no matter what clients throw at the router.
func endpointOf(path string) string {
	switch {
	case path == "/v1/select":
		return "select"
	case path == "/v1/rank":
		return "rank"
	case path == "/v1/assess":
		return "assess"
	case path == "/v1/triage":
		return "triage"
	case path == "/v1/datasets" || strings.HasPrefix(path, "/v1/datasets/"):
		return "datasets"
	case path == "/v1/sessions" || strings.HasPrefix(path, "/v1/sessions/"):
		return "sessions"
	case path == "/healthz":
		return "healthz"
	case path == "/metrics":
		return "metrics"
	default:
		return "other"
	}
}
