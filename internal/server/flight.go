package server

import (
	"context"
	"errors"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync"

	"github.com/factcheck/cleansel/internal/obs"
)

// flightGroup coalesces concurrent identical computations: while a
// result for a key is being computed, later callers with the same key
// wait for that in-flight call instead of starting their own — the
// thundering-herd pattern when many checkers fire the same viral-claim
// request at once computes exactly once.
//
// The computation runs on its own goroutine under a context detached
// from any single request: it is cancelled only when every waiter has
// abandoned (each waiter leaves when its own request context is done),
// so one impatient client cannot kill a solve that others still want —
// and a solve nobody wants any more stops instead of burning a core.
// A panic on that goroutine is recovered and logged with its stack, and
// every waiter gets errPanicked, so one bad request cannot take the
// daemon down.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
	// coalesced counts callers served by joining an in-flight call. It
	// is an obs.Counter so the server can register the same object on
	// /metrics — one source for both the scrape and /healthz.
	coalesced *obs.Counter
	log       *slog.Logger
}

// errPanicked is what every waiter of a call whose function panicked
// gets: a 500 with code "internal".
var errPanicked = &apiError{Status: http.StatusInternalServerError, Code: "internal",
	Message: "internal error: the computation failed; the daemon logged its stack"}

type flightCall struct {
	cancel  context.CancelFunc
	done    chan struct{}
	waiters int
	// abandoned marks a call whose last waiter left: its context is
	// cancelled but its goroutine may not have returned yet. New
	// callers must not join it — they would inherit a doomed
	// context.Canceled — so Do replaces it with a fresh call.
	abandoned bool
	body      []byte
	err       error
}

// newFlightGroup builds a group ticking coalesced joins into the given
// (typically metrics-registered) counter and logging recovered panics
// to log.
func newFlightGroup(coalesced *obs.Counter, log *slog.Logger) *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall), coalesced: coalesced, log: log}
}

// Coalesced returns how many callers have been served by joining an
// already in-flight computation.
func (g *flightGroup) Coalesced() uint64 {
	return uint64(g.coalesced.Value())
}

// InFlight returns the number of joinable computations currently
// running (abandoned calls winding down are not counted).
func (g *flightGroup) InFlight() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	n := 0
	for _, c := range g.calls {
		if !c.abandoned {
			n++
		}
	}
	return n
}

// Do returns fn's result for key, starting fn only if no call for key
// is in flight; otherwise it waits on the existing call. shared
// reports whether this caller joined rather than started the call.
// When ctx is done before the call finishes, Do returns the context's
// cause and the caller stops waiting; the computation itself keeps
// running until its last waiter is gone.
func (g *flightGroup) Do(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) (body []byte, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.calls[key]; ok && !c.abandoned {
		c.waiters++
		g.coalesced.Inc()
		g.mu.Unlock()
		body, shared, err = g.wait(ctx, c, true)
		// A joined call that died of the *leader's* budget (its context
		// expired or was cancelled) says nothing about this caller,
		// whose own context is still live — e.g. a request joining at
		// t=29.9s of the leader's 30s timeout. Retry as a starter
		// instead of propagating someone else's deadline.
		if err != nil && ctx.Err() == nil &&
			(errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			return g.Do(ctx, key, fn)
		}
		return body, shared, err
	}
	// No live call (none, or only an abandoned one still winding
	// down): start fresh. Inherit request values but not cancellation —
	// the call may outlive this request if other waiters join.
	callCtx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	c := &flightCall{cancel: cancel, done: make(chan struct{}), waiters: 1}
	g.calls[key] = c
	g.mu.Unlock()
	go func() {
		body, err := g.run(callCtx, key, fn)
		g.mu.Lock()
		c.body, c.err = body, err
		// A replaced abandoned call must not delete its successor.
		if g.calls[key] == c {
			delete(g.calls, key)
		}
		g.mu.Unlock()
		close(c.done)
		cancel()
	}()
	return g.wait(ctx, c, false)
}

// run calls fn, turning a panic into errPanicked after logging it with
// its stack.
func (g *flightGroup) run(ctx context.Context, key string, fn func(context.Context) ([]byte, error)) (body []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			g.log.ErrorContext(ctx, "computation panicked", "key", key, "panic", p, "stack", string(debug.Stack()))
			body, err = nil, errPanicked
		}
	}()
	return fn(ctx)
}

func (g *flightGroup) wait(ctx context.Context, c *flightCall, shared bool) ([]byte, bool, error) {
	select {
	case <-c.done:
		return c.body, shared, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.waiters--
		abandon := c.waiters == 0
		if abandon {
			c.abandoned = true
		}
		g.mu.Unlock()
		if abandon {
			c.cancel()
		}
		return nil, shared, context.Cause(ctx)
	}
}
