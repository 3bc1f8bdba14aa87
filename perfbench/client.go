package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// newClient returns the closed-loop client: one caller, one keep-alive
// loopback connection reused for every request.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			IdleConnTimeout:     5 * time.Minute,
		},
	}
}

// sample is what the loop records for one timed request.
type sample struct {
	ms        float64       // client-side latency: send to last body byte
	done      time.Duration // when the answer was in, from the start of the loop
	kind      reqKind
	ops       int
	traced    bool
	reqBytes  int
	respBytes int // the response body (the result, for a traced envelope)
	cache     string
}

// loopResult is the outcome of sending a stream.
type loopResult struct {
	samples   []sample
	attempted int // ops
	failed    int // ops
	errs      []string
	wall      time.Duration
}

// add appends part, the next stretch of the timed phase, served by
// another daemon. It shifts the part's completion times by the wall
// time so far, so the parts tile one phase without the gaps between
// them.
func (lr *loopResult) add(part *loopResult) {
	for _, s := range part.samples {
		s.done += lr.wall
		lr.samples = append(lr.samples, s)
	}
	lr.attempted += part.attempted
	lr.failed += part.failed
	for _, e := range part.errs {
		if len(lr.errs) < maxErrs {
			lr.errs = append(lr.errs, e)
		}
	}
	lr.wall += part.wall
}

// maxErrs bounds the failure messages a run keeps.
const maxErrs = 5

func (lr *loopResult) fail(ops int, format string, args ...any) {
	lr.failed += ops
	if len(lr.errs) < maxErrs {
		lr.errs = append(lr.errs, fmt.Sprintf(format, args...))
	}
}

// envelope is the part of a ?trace=1 response the check needs: the
// answer it wraps.
type envelope struct {
	Result json.RawMessage `json:"result"`
}

// loop sends reqs in order, one at a time, waiting for each answer, and
// checks every answer. traced[i] adds ?trace=1 to request i (nil: none).
// Each request carries the X-Request-ID idPrefix-i so the daemon's
// access log can be joined to it. After a failed session request the
// rest of its episode is skipped and counted failed.
func loop(client *http.Client, base string, reqs []request, traced []bool, idPrefix string, deadline time.Time) *loopResult {
	lr := &loopResult{samples: make([]sample, 0, len(reqs))}
	sid, status := "", ""
	skipEpisode := false
	begin := time.Now()
	for i := range reqs {
		r := &reqs[i]
		lr.attempted += r.ops
		if r.kind == kindCreate {
			sid, skipEpisode = "", false
		}
		if skipEpisode {
			lr.fail(r.ops, "request %d: skipped after an earlier failure in its episode", i)
			continue
		}
		if time.Now().After(deadline) {
			lr.fail(r.ops, "request %d: run deadline passed", i)
			skipEpisode = true
			continue
		}
		// DELETE answers plainly; it has no ?trace=1 envelope.
		tr := traced != nil && traced[i] && r.kind != kindDelete
		s, newSID, err := send(client, base, r, sid, tr, idPrefix+strconv.Itoa(i))
		if err != nil {
			lr.fail(r.ops, "request %d (%s %s): %v", i, r.method, r.path, err)
			skipEpisode = r.kind >= kindCreate
			continue
		}
		s.done = time.Since(begin)
		if r.kind == kindCreate {
			sid = newSID
		}
		if r.kind >= kindCreate {
			if !legalTransition(r.kind, status, r.status) {
				lr.fail(r.ops, "request %d: illegal session transition %q -> %q", i, status, r.status)
				skipEpisode = true
				continue
			}
			status = r.status
		}
		lr.samples = append(lr.samples, s)
	}
	lr.wall = time.Since(begin)
	return lr
}

// legalTransition reports whether a session request of kind may move
// a session from status prev to next: a create opens a session in any
// state, a clean applies only to an active session, and a delete ends
// a terminal one.
func legalTransition(kind reqKind, prev, next string) bool {
	live := next == "active" || next == "countered" || next == "exhausted"
	switch kind {
	case kindCreate:
		return live
	case kindClean:
		return prev == "active" && live
	case kindDelete:
		return (prev == "countered" || prev == "exhausted") && next == "deleted"
	}
	return false
}

// send issues one request and checks its answer.
func send(client *http.Client, base string, r *request, sid string, traced bool, reqID string) (sample, string, error) {
	path := strings.Replace(r.path, sessionSlot, sid, 1)
	if traced {
		path += "?trace=1"
	}
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	hreq, err := http.NewRequest(r.method, base+path, body)
	if err != nil {
		return sample{}, "", err
	}
	hreq.Header.Set("X-Request-ID", reqID)
	if r.body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := client.Do(hreq)
	if err != nil {
		return sample{}, "", err
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return sample{}, "", err
	}
	if resp.StatusCode != http.StatusOK {
		return sample{}, "", fmt.Errorf("status %d: %.200s", resp.StatusCode, got)
	}
	s := sample{ms: ms, kind: r.kind, ops: r.ops, traced: traced, reqBytes: len(r.body), cache: resp.Header.Get("X-Cache")}
	if traced {
		var env envelope
		if err := json.Unmarshal(got, &env); err != nil {
			return sample{}, "", fmt.Errorf("decoding trace envelope: %w", err)
		}
		got = append(env.Result, '\n')
	}
	s.respBytes = len(got)
	newSID, err := check(r, s.cache, got)
	return s, newSID, err
}

// check compares one answer with the correct one and returns the
// session id a session answer carries.
func check(r *request, cache string, body []byte) (string, error) {
	sid := ""
	switch r.kind {
	case kindSelect, kindTriage:
		if cache != "miss" {
			return "", fmt.Errorf("X-Cache %q, want miss: the stream never repeats a request", cache)
		}
		if r.kind == kindTriage {
			stats := fmt.Sprintf(`"stats":{"claims":%d,"unique":%d,"errors":0}}`+"\n", r.claims, r.unique)
			if !bytes.HasSuffix(body, []byte(stats)) {
				return "", fmt.Errorf("triage stats do not match the batch (want %s)", strings.TrimSpace(stats))
			}
		}
	default:
		var err error
		if sid, body, err = blankID(body); err != nil {
			return "", err
		}
		if r.kind != kindDelete && !bytes.Contains(body, []byte(`"status":"`+r.status+`"`)) {
			return "", fmt.Errorf("session status is not %q", r.status)
		}
	}
	if sha256.Sum256(body) != r.want {
		return "", errors.New("response body differs from the in-process answer")
	}
	return sid, nil
}

// blankID cuts the session id out of a session answer, whose first
// member is the id ({"id":"s_…",…} or {"deleted":"s_…"}), so the rest
// can be compared byte for byte with an answer computed without one.
func blankID(body []byte) (string, []byte, error) {
	k := bytes.Index(body, []byte(`":"`))
	if k < 0 || body[0] != '{' {
		return "", nil, fmt.Errorf("no session id in %.100s", body)
	}
	start := k + 3
	end := bytes.IndexByte(body[start:], '"')
	if end <= 0 {
		return "", nil, fmt.Errorf("no session id in %.100s", body)
	}
	id := string(body[start : start+end])
	out := make([]byte, 0, len(body)-end)
	out = append(out, body[:start]...)
	out = append(out, body[start+end:]...)
	return id, out, nil
}
