package api

// ReplService exposes the primary side of the replication link: followers
// bootstrap from GET /api/repl/manifest + /api/repl/generation (the
// snapshot generation chain) and then tail GET /api/repl/wal — a long-
// lived frame stream of WAL records interleaved with live-feed bus events
// and lag heartbeats (internal/repl). The routes are mounted on every
// deployment; on a platform without a data directory the handlers answer
// 409 (nothing durable to replicate).

import (
	"net/http"

	"repro/internal/core"
	"repro/internal/repl"
)

// ReplService serves the replication endpoints for a primary platform.
type ReplService struct {
	src *repl.Source
	mux *http.ServeMux
}

// NewReplService builds the replication endpoint over the platform's
// store and live-feed bus.
func NewReplService(p *core.Platform) *ReplService {
	s := &ReplService{src: repl.NewSource(p.DB, p.Bus, p.Metrics), mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /api/repl/manifest", s.src.ServeManifest)
	s.mux.HandleFunc("GET /api/repl/generation", s.src.ServeGeneration)
	s.mux.HandleFunc("GET /api/repl/wal", s.src.ServeWAL)
	return s
}

// ServeHTTP implements http.Handler.
func (s *ReplService) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}
