package api

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
)

// FuzzIngestBody posts arbitrary bytes as a POST /api/ingest body through
// the whole HTTP surface of one in-memory platform. The handler must never
// panic and must answer 2xx, 400, 413 or 429. Every event it reports as
// accepted must be one the pipeline enqueued, and once the pipeline is
// flushed every accepted event must have ended committed or dead-lettered:
// none lost, none counted twice. Seeds live in
// testdata/fuzz/FuzzIngestBody/.
func FuzzIngestBody(f *testing.F) {
	p, err := core.NewPlatform(core.Config{
		Clock: func() time.Time { return synth.WindowStart.AddDate(0, 0, 10) },
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = p.Close() })
	srv := NewServer(p)

	f.Fuzz(func(t *testing.T, body []byte) {
		before := p.StreamStats()
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/ingest", bytes.NewReader(body)))
		enqueued := p.StreamStats().Enqueued - before.Enqueued

		accepted := 0
		switch code := rec.Code; {
		case code >= 200 && code < 300, code == http.StatusTooManyRequests:
			var resp ingestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("status %d with an undecodable body %q: %v", code, rec.Body.Bytes(), err)
			}
			accepted = resp.Accepted
		case code == http.StatusBadRequest, code == http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d (%s)", code, rec.Body.Bytes())
		}
		if enqueued != uint64(accepted) {
			t.Fatalf("status %d reports %d accepted, the pipeline enqueued %d", rec.Code, accepted, enqueued)
		}

		p.Pipeline.Flush()
		after := p.StreamStats()
		done := after.Committed - before.Committed + after.DeadLettered - before.DeadLettered
		if done != uint64(accepted) {
			t.Fatalf("%d accepted, %d committed + %d dead-lettered after flush", accepted,
				after.Committed-before.Committed, after.DeadLettered-before.DeadLettered)
		}
	})
}
