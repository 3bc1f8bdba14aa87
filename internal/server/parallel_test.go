package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/factcheck/cleansel/internal/obs"
	"github.com/factcheck/cleansel/internal/parallel"
	"github.com/factcheck/cleansel/internal/server/wire"
)

// --- flightGroup unit tests -------------------------------------------------

// TestFlightGroupRecoversPanic panics inside a call two callers wait
// on: the process survives, both get errPanicked, the panic is logged
// with its stack, and the key is free for the next call.
func TestFlightGroupRecoversPanic(t *testing.T) {
	var logs bytes.Buffer
	g := newFlightGroup(&obs.Counter{}, slog.New(slog.NewTextHandler(&logs, nil)))
	release := make(chan struct{})
	fn := func(context.Context) ([]byte, error) {
		<-release
		panic("solver bug")
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, _, err := g.Do(context.Background(), "k", fn)
			errs <- err
		}()
	}
	deadline := time.After(5 * time.Second)
	for g.Coalesced() < 1 {
		select {
		case <-deadline:
			t.Fatal("callers never coalesced")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, errPanicked) {
			t.Fatalf("waiter %d got %v, want errPanicked", i, err)
		}
	}
	// Every waiter returned after the log line was written.
	if out := logs.String(); !strings.Contains(out, "solver bug") || !strings.Contains(out, "TestFlightGroupRecoversPanic") {
		t.Fatalf("panic not logged with its stack:\n%s", out)
	}
	body, _, err := g.Do(context.Background(), "k", func(context.Context) ([]byte, error) { return []byte("ok"), nil })
	if err != nil || string(body) != "ok" {
		t.Fatalf("next call on the key: %q, %v", body, err)
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup(&obs.Counter{}, slog.New(slog.DiscardHandler))
	release := make(chan struct{})
	var computes int
	var mu sync.Mutex
	fn := func(ctx context.Context) ([]byte, error) {
		mu.Lock()
		computes++
		mu.Unlock()
		<-release
		return []byte("result"), nil
	}
	type out struct {
		body   []byte
		shared bool
		err    error
	}
	results := make(chan out, 3)
	for i := 0; i < 3; i++ {
		go func() {
			body, shared, err := g.Do(context.Background(), "k", fn)
			results <- out{body, shared, err}
		}()
	}
	deadline := time.After(5 * time.Second)
	for g.Coalesced() < 2 {
		select {
		case <-deadline:
			t.Fatal("callers never coalesced")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	close(release)
	var sharedCount int
	for i := 0; i < 3; i++ {
		o := <-results
		if o.err != nil {
			t.Fatalf("Do: %v", o.err)
		}
		if string(o.body) != "result" {
			t.Fatalf("body = %q", o.body)
		}
		if o.shared {
			sharedCount++
		}
	}
	if sharedCount != 2 {
		t.Fatalf("%d shared callers, want 2", sharedCount)
	}
	if computes != 1 {
		t.Fatalf("fn ran %d times, want 1", computes)
	}
	// The key is free again: a later call recomputes.
	release = make(chan struct{})
	close(release)
	if _, shared, err := g.Do(context.Background(), "k", fn); err != nil || shared {
		t.Fatalf("post-completion Do: shared=%v err=%v", shared, err)
	}
	if computes != 2 {
		t.Fatalf("fn ran %d times after second Do, want 2", computes)
	}
}

// TestFlightGroupCancelsWhenAllWaitersLeave pins the cancellation
// semantics: the computation's context stays live while any waiter
// remains and is cancelled once the last one gives up.
func TestFlightGroupCancelsWhenAllWaitersLeave(t *testing.T) {
	g := newFlightGroup(&obs.Counter{}, slog.New(slog.DiscardHandler))
	computeCancelled := make(chan struct{})
	started := make(chan struct{})
	fn := func(ctx context.Context) ([]byte, error) {
		close(started)
		<-ctx.Done()
		close(computeCancelled)
		return nil, ctx.Err()
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	errs := make(chan error, 2)
	go func() {
		_, _, err := g.Do(ctx1, "k", fn)
		errs <- err
	}()
	<-started
	go func() {
		_, _, err := g.Do(ctx2, "k", fn)
		errs <- err
	}()
	for g.Coalesced() < 1 {
		time.Sleep(time.Millisecond)
	}
	// First waiter leaves; the second still wants the result, so the
	// computation must keep running.
	cancel1()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter: %v", err)
	}
	select {
	case <-computeCancelled:
		t.Fatal("computation cancelled while a waiter remained")
	case <-time.After(50 * time.Millisecond):
	}
	// Last waiter leaves: now the computation must be cancelled.
	cancel2()
	if err := <-errs; !errors.Is(err, context.Canceled) {
		t.Fatalf("second waiter: %v", err)
	}
	select {
	case <-computeCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("computation not cancelled after last waiter left")
	}
}

// TestFlightGroupReplacesAbandonedCall pins the fix for the
// abandon-then-join window: a caller arriving while a cancelled call
// is still winding down must get a fresh computation, not the doomed
// call's context.Canceled.
func TestFlightGroupReplacesAbandonedCall(t *testing.T) {
	g := newFlightGroup(&obs.Counter{}, slog.New(slog.DiscardHandler))
	firstStarted := make(chan struct{})
	firstMayExit := make(chan struct{})
	first := func(ctx context.Context) ([]byte, error) {
		close(firstStarted)
		<-ctx.Done()   // cancelled when its only waiter leaves…
		<-firstMayExit // …but the goroutine lingers before returning
		return nil, ctx.Err()
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	firstErr := make(chan error, 1)
	go func() {
		_, _, err := g.Do(ctx1, "k", first)
		firstErr <- err
	}()
	<-firstStarted
	cancel1()
	if err := <-firstErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("first waiter: %v", err)
	}
	// The abandoned call is still registered (goroutine blocked on
	// firstMayExit). A new caller must start fresh and succeed.
	if g.InFlight() != 0 {
		t.Fatalf("InFlight = %d counting an abandoned call", g.InFlight())
	}
	body, shared, err := g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
		return []byte("fresh"), nil
	})
	if err != nil || shared || string(body) != "fresh" {
		t.Fatalf("post-abandon Do = %q shared=%v err=%v, want fresh computation", body, shared, err)
	}
	// Let the stale goroutine finish; it must not clobber the map for
	// future calls under the same key.
	close(firstMayExit)
	time.Sleep(10 * time.Millisecond)
	if _, shared, err := g.Do(context.Background(), "k", func(ctx context.Context) ([]byte, error) {
		return []byte("later"), nil
	}); err != nil || shared {
		t.Fatalf("call after stale wind-down: shared=%v err=%v", shared, err)
	}
}

// TestFlightGroupRetriesAfterLeaderDeadline pins the late-joiner rule:
// a waiter whose joined call dies of the *leader's* deadline, while
// its own context is still live, retries as a starter instead of
// inheriting someone else's timeout.
func TestFlightGroupRetriesAfterLeaderDeadline(t *testing.T) {
	g := newFlightGroup(&obs.Counter{}, slog.New(slog.DiscardHandler))
	firstStarted := make(chan struct{})
	calls := 0
	var mu sync.Mutex
	fn := func(ctx context.Context) ([]byte, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			close(firstStarted)
			// Simulate the leader's compute budget expiring.
			return nil, context.DeadlineExceeded
		}
		return []byte("second try"), nil
	}
	// Hold the first call open until the follower has joined, so the
	// join-then-fail order is deterministic.
	gate := make(chan struct{})
	gated := func(ctx context.Context) ([]byte, error) {
		b, err := fn(ctx)
		mu.Lock()
		n := calls
		mu.Unlock()
		if n == 1 {
			<-gate
		}
		return b, err
	}
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := g.Do(context.Background(), "k", gated)
		leaderDone <- err
	}()
	<-firstStarted
	followerDone := make(chan struct {
		body []byte
		err  error
	}, 1)
	go func() {
		b, _, err := g.Do(context.Background(), "k", gated)
		followerDone <- struct {
			body []byte
			err  error
		}{b, err}
	}()
	for g.Coalesced() < 1 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	if err := <-leaderDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader: %v", err)
	}
	got := <-followerDone
	if got.err != nil || string(got.body) != "second try" {
		t.Fatalf("follower = %q, %v — want a fresh successful computation", got.body, got.err)
	}
}

// --- end-to-end handler tests ----------------------------------------------

// slowSelectBody builds a deliberately expensive uniqueness select:
// 6-point supports under width-w windows cost 6^w enumerations per
// claim term, so n/w terms keep a single-threaded solve busy for tens
// of seconds while one term — the cancellation granularity — stays
// under a second.
func slowSelectBody(t *testing.T, n, w int) string {
	t.Helper()
	objs := make([]wire.Object, n)
	for i := range objs {
		vals := make([]float64, 6)
		probs := make([]float64, 6)
		for j := range vals {
			vals[j] = float64(10*i + j)
			probs[j] = 1
		}
		objs[i] = wire.Object{Name: fmt.Sprintf("o%d", i), Current: vals[3], Cost: 1, Values: vals, Probs: probs}
	}
	window := func(name string, start int) wire.Claim {
		coef := map[string]float64{}
		for j := 0; j < w; j++ {
			coef[fmt.Sprintf("%d", start+j)] = 1
		}
		return wire.Claim{Name: name, Coef: coef}
	}
	var perturbs []wire.Perturbation
	for s := 0; s+w <= n; s += w {
		perturbs = append(perturbs, wire.Perturbation{Claim: window(fmt.Sprintf("w%d", s), s), Sensibility: 1})
	}
	ref := 100.0
	task := wire.Task{
		Problem: wire.Problem{
			Objects:       objs,
			Claim:         window("orig", n-w),
			Direction:     "lower",
			Reference:     &ref,
			Perturbations: perturbs,
		},
		Measure: "uniqueness",
		Budget:  float64(n) / 4,
	}
	body, err := json.Marshal(task)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// TestSelectTimeoutStopsSolver is the acceptance test for end-to-end
// cancellation: when a /v1/select request times out, the solver
// goroutine must stop (drain its semaphore slot) promptly instead of
// running a multi-ten-second solve to completion.
func TestSelectTimeoutStopsSolver(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "1") // make the solve reliably slow
	s := mustNew(t, Config{Timeout: 100 * time.Millisecond, MaxInflight: 1})
	h := s.Handler()
	body := slowSelectBody(t, 800, 8)

	start := time.Now()
	rec := do(t, h, "POST", "/v1/select", body)
	wantError(t, rec, http.StatusGatewayTimeout, "timeout")

	// The solver must vacate its slot within the per-work-item
	// granularity; an uncancellable solve would hold it for the full
	// multi-ten-second run.
	deadline := time.After(5 * time.Second)
	for len(s.sem) != 0 {
		select {
		case <-deadline:
			t.Fatalf("solver still holds its slot %v after the timeout response", time.Since(start))
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// TestSelectCoalescesIdenticalInflight asserts the thundering-herd
// behaviour: an identical request arriving while the first is solving
// joins that solve instead of starting its own.
func TestSelectCoalescesIdenticalInflight(t *testing.T) {
	t.Setenv(parallel.EnvWorkers, "1")
	s := mustNew(t, Config{Timeout: 500 * time.Millisecond, MaxInflight: 2})
	h := s.Handler()
	body := slowSelectBody(t, 800, 8)

	leaderDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { leaderDone <- do(t, h, "POST", "/v1/select", body) }()
	deadline := time.After(5 * time.Second)
	for s.flights.InFlight() == 0 {
		select {
		case <-deadline:
			t.Fatal("leader request never went in flight")
		default:
			time.Sleep(time.Millisecond)
		}
	}
	follower := do(t, h, "POST", "/v1/select", body)
	leader := <-leaderDone

	// The solve is far slower than every budget, so both callers get
	// the structured timeout — what matters here is that the follower
	// joined the leader's solve rather than starting a second one
	// while it was live. (After the leader's budget kills the shared
	// solve, the follower retries as a starter under its own still-live
	// context, so its final X-Cache may legitimately read miss.)
	wantError(t, leader, http.StatusGatewayTimeout, "timeout")
	wantError(t, follower, http.StatusGatewayTimeout, "timeout")
	if got := leader.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("leader X-Cache = %q, want miss", got)
	}
	if got := s.flights.Coalesced(); got < 1 {
		t.Fatalf("Coalesced() = %d, want >= 1", got)
	}
}

// TestCoalescedSuccessSharesOneComputation exercises the success path
// with a fast request: concurrent identical requests produce one
// computation and byte-identical bodies.
func TestCoalescedSuccessSharesOneComputation(t *testing.T) {
	s := mustNew(t, Config{})
	h := s.Handler()
	body := selectBody(inlineObjects)

	const clients = 4
	recs := make(chan *httptest.ResponseRecorder, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recs <- do(t, h, "POST", "/v1/select", body)
		}()
	}
	wg.Wait()
	close(recs)
	var first string
	for rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		if first == "" {
			first = rec.Body.String()
		} else if rec.Body.String() != first {
			t.Fatal("coalesced/cached responses differ")
		}
		switch rec.Header().Get("X-Cache") {
		case "hit", "miss", "coalesced":
		default:
			t.Fatalf("unexpected X-Cache %q", rec.Header().Get("X-Cache"))
		}
	}
}

// --- byte accounting --------------------------------------------------------

func TestDatasetStoreByteEviction(t *testing.T) {
	mkDS := func(name string, current float64) wire.Dataset {
		return wire.Dataset{Name: name, Objects: []wire.Object{{
			Name: name, Current: current, Cost: 1, Values: []float64{1, 2}, Probs: []float64{1, 1},
		}}}
	}
	// Measure one upload's accounted size, then budget for two.
	probe, err := newDatasetStore(0, 0, nil, nil, nil, nil).Add(mkDS("aaaa", 1))
	if err != nil {
		t.Fatal(err)
	}
	if probe.Bytes <= 0 {
		t.Fatalf("dataset size not accounted: %d", probe.Bytes)
	}
	budget := 2*probe.Bytes + probe.Bytes/2
	st := newDatasetStore(0, budget, nil, nil, nil, nil) // byte-bounded only
	recA, err := st.Add(mkDS("aaaa", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(mkDS("bbbb", 2)); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Add(mkDS("cccc", 3)); err != nil {
		t.Fatal(err)
	}
	if got := st.Bytes(); got > budget {
		t.Fatalf("store bytes %d exceed the %d-byte budget", got, budget)
	}
	if _, ok := st.Get(recA.ID); ok {
		t.Fatal("oldest dataset survived byte-budget eviction")
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d datasets, want 2", st.Len())
	}
}

// TestOversizedDatasetUploadRejected pins the 413 path: an upload that
// can never fit the byte budget must fail loudly instead of returning
// an ID for a dataset that was silently dropped (flushing the resident
// datasets on the way out).
func TestOversizedDatasetUploadRejected(t *testing.T) {
	srv := mustNew(t, Config{MaxDatasetBytes: 400})
	h := srv.Handler()
	if rec := do(t, h, "POST", "/v1/datasets", datasetBody); rec.Code != http.StatusOK {
		t.Fatalf("small upload: %d %s", rec.Code, rec.Body.String())
	}
	var big struct {
		Name    string        `json:"name"`
		Objects []wire.Object `json:"objects"`
	}
	big.Name = "big"
	for i := 0; i < 50; i++ {
		big.Objects = append(big.Objects, wire.Object{
			Name: fmt.Sprintf("o%d", i), Current: 1, Cost: 1,
			Values: []float64{1, 2}, Probs: []float64{1, 1},
		})
	}
	bigBody, err := json.Marshal(big)
	if err != nil {
		t.Fatal(err)
	}
	rec := do(t, h, "POST", "/v1/datasets", string(bigBody))
	wantError(t, rec, http.StatusRequestEntityTooLarge, "payload_too_large")
	// The resident dataset must have survived the rejected upload.
	if srv.store.Len() != 1 {
		t.Fatalf("store holds %d datasets after rejected upload, want 1", srv.store.Len())
	}
}

func TestHealthzReportsBytesAndCoalesced(t *testing.T) {
	h := newTestServer(Config{})
	if rec := do(t, h, "POST", "/v1/datasets", datasetBody); rec.Code != http.StatusOK {
		t.Fatalf("upload: %d %s", rec.Code, rec.Body.String())
	}
	rec := do(t, h, "GET", "/healthz", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	m := decodeBody(t, rec)
	if v, ok := m["dataset_bytes"].(float64); !ok || v <= 0 {
		t.Fatalf("dataset_bytes = %v", m["dataset_bytes"])
	}
	if _, ok := m["coalesced"].(float64); !ok {
		t.Fatalf("coalesced missing: %v", m["coalesced"])
	}
	cache, ok := m["cache"].(map[string]any)
	if !ok {
		t.Fatalf("cache stats missing: %v", m["cache"])
	}
	if _, ok := cache["bytes"].(float64); !ok {
		t.Fatalf("cache.bytes missing: %v", cache["bytes"])
	}
}

// TestResultCacheByteFlag pins the -cache-bytes semantics end to end:
// with a tiny byte budget the encoded result cannot be retained, so a
// repeated request is a miss instead of a hit.
func TestResultCacheByteFlag(t *testing.T) {
	h := newTestServer(Config{CacheBytes: 10})
	body := selectBody(inlineObjects)
	if rec := do(t, h, "POST", "/v1/select", body); rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first request X-Cache = %q", rec.Header().Get("X-Cache"))
	}
	if rec := do(t, h, "POST", "/v1/select", body); rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("oversized result was cached: X-Cache = %q", rec.Header().Get("X-Cache"))
	}
	// And with room, the repeat is a hit (unchanged behaviour).
	h = newTestServer(Config{})
	if rec := do(t, h, "POST", "/v1/select", body); rec.Code != http.StatusOK {
		t.Fatal("warmup failed")
	}
	if rec := do(t, h, "POST", "/v1/select", body); rec.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat X-Cache = %q, want hit", rec.Header().Get("X-Cache"))
	}
}
