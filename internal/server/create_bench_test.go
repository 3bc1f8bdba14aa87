package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"github.com/factcheck/cleansel/internal/datasets"
	"github.com/factcheck/cleansel/internal/server/wire"
)

// sessionCreateServer stores a 200-object SyntheticK dataset with
// 6-point supports, the session_episodes shape, and returns the handler
// with wire/testdata/session_create.json pointed at it: a MaxPr episode
// over a 4-wide window claim with 49 perturbations.
func sessionCreateServer(tb testing.TB) (http.Handler, []byte) {
	tb.Helper()
	body, err := os.ReadFile(filepath.Join("wire", "testdata", "session_create.json"))
	if err != nil {
		tb.Fatal(err)
	}
	db := datasets.SyntheticK(datasets.UR, 200, datasets.MaxSupport, 7)
	up, err := json.Marshal(wire.Dataset{Name: "sessions", Objects: encodeWireObjects(db)})
	if err != nil {
		tb.Fatal(err)
	}
	h := newTestServer(Config{})
	rec := do(tb, h, "POST", "/v1/datasets", string(up))
	if rec.Code != http.StatusOK {
		tb.Fatalf("upload: status %d: %s", rec.Code, rec.Body.String())
	}
	var ds struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ds); err != nil {
		tb.Fatal(err)
	}
	req, err := wire.DecodeSession(bytes.NewReader(body))
	if err != nil {
		tb.Fatal(err)
	}
	body = bytes.Replace(body, []byte(req.DatasetID), []byte(ds.ID), 1)
	return h, body
}

// BenchmarkSessionCreate times one POST /v1/sessions through Handler:
// decode, compile the claim's bias over the stored dataset, build the
// stepper, register the session and encode its first state.
func BenchmarkSessionCreate(b *testing.B) {
	h, body := sessionCreateServer(b)
	if rec := do(b, h, "POST", "/v1/sessions", string(body)); rec.Code != http.StatusOK {
		b.Fatalf("create: status %d: %s", rec.Code, rec.Body.String())
	}
	b.ReportAllocs()
	for b.Loop() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/sessions", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("create: status %d: %s", rec.Code, rec.Body.String())
		}
	}
}
