package api

// The streaming ingestion subsystem over HTTP: bulk event ingestion with
// caller-selectable backpressure, dead-letter replay, the live assessment
// feed (SSE) and the per-stage pipeline counters.

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/synth"
)

// ingestRequest is the POST /api/ingest body: a bulk batch of firehose
// events plus the backpressure mode. mode "block" (the default) parks the
// request while pipeline shards are full; mode "shed" stops at the first
// full shard and answers 429 with the accepted/dropped split, so
// well-behaved producers can retry the remainder.
type ingestRequest struct {
	Events []synth.Event `json:"events"`
	Mode   string        `json:"mode"`
}

// ingestResponse reports a bulk ingest. Dropped is non-zero only on a 429
// (shed-mode full shard, or a throttled source); Throttled marks the 429s
// caused by per-source admission rather than full queues.
type ingestResponse struct {
	Accepted  int  `json:"accepted"`
	Dropped   int  `json:"dropped"`
	Throttled bool `json:"throttled,omitempty"`
}

// retryAfterSeconds renders a backoff hint as a Retry-After header value:
// whole seconds, rounded up, at least 1 (RFC 9110 allows 0, but "retry
// immediately" defeats the point of shedding).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	req, ok := decodeBody(w, r, maxAssessBody, decodeIngestRequest)
	if !ok {
		return
	}
	if len(req.Events) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("events field required"))
		return
	}
	block := true
	switch req.Mode {
	case "", "block":
	case "shed":
		block = false
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("unknown mode %q (want block or shed)", req.Mode))
		return
	}
	for _, ev := range req.Events {
		if ev.ArticleURL == "" {
			writeError(w, http.StatusBadRequest, errors.New("every event needs an article_url (the shard key)"))
			return
		}
		if len(ev.ArticleURL) > maxURLBytes {
			writeError(w, http.StatusBadRequest, fmt.Errorf("article_url exceeds %d bytes", maxURLBytes))
			return
		}
	}
	accepted := 0
	for i := range req.Events {
		var err error
		if block {
			// Context-aware blocking: a client that gives up mid-backpressure
			// releases this handler instead of parking it on the full shard.
			err = s.platform.StreamEventCtx(r.Context(), &req.Events[i])
		} else {
			err = s.platform.StreamEvent(&req.Events[i], false)
		}
		switch {
		case err == nil:
			accepted++
		case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			// The client is gone; nothing useful can be written.
			return
		case errors.Is(err, stream.ErrFull):
			// Shed: report the split with a Retry-After derived from the
			// pipeline's current drain rate, so a well-behaved producer
			// retries when the backlog has plausibly cleared.
			w.Header().Set("Retry-After", retryAfterSeconds(s.platform.Pipeline.RetryAfter()))
			writeJSON(w, http.StatusTooManyRequests, ingestResponse{
				Accepted: accepted,
				Dropped:  len(req.Events) - accepted,
			})
			return
		case errors.Is(err, stream.ErrThrottled):
			// Per-source admission rejection: the throttle error knows when
			// the source's token buckets refill.
			var te *stream.ThrottleError
			retry := s.platform.Pipeline.RetryAfter()
			if errors.As(err, &te) {
				retry = te.RetryAfter
			}
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			writeJSON(w, http.StatusTooManyRequests, ingestResponse{
				Accepted:  accepted,
				Dropped:   len(req.Events) - accepted,
				Throttled: true,
			})
			return
		case errors.Is(err, stream.ErrClosed), errors.Is(err, core.ErrDegraded),
			errors.Is(err, core.ErrFollower):
			// Closed pipeline, degraded read-only storage or a follower
			// replica (whose error names the primary to write to): the
			// writer role is unavailable, not the request malformed.
			writeError(w, http.StatusServiceUnavailable, err)
			return
		default:
			writeError(w, http.StatusInternalServerError, err)
			return
		}
	}
	writeJSON(w, http.StatusAccepted, ingestResponse{Accepted: accepted})
}

// replayRequest is the optional POST /api/ingest/replay body.
type replayRequest struct {
	// Wait blocks the response until the replayed events have been fully
	// re-processed (committed or re-dead-lettered).
	Wait bool `json:"wait"`
}

func (s *Server) handleReplay(w http.ResponseWriter, r *http.Request) {
	var req replayRequest
	if !decodeJSONAllowEmpty(w, r, maxControlBody, &req) {
		return
	}
	n, err := s.platform.ReplayDeadLetters(req.Wait)
	if err != nil {
		if errors.Is(err, core.ErrDegraded) || errors.Is(err, core.ErrFollower) {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"replayed": n})
}

// handleStream serves the live assessment feed as Server-Sent Events: one
// `assessment` event per committed posting, the moment it lands in the
// store. The optional ?limit=N query parameter ends the stream after N
// events (handy for scripted consumers); otherwise the stream runs until
// the client disconnects or the platform closes.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	limit, err := queryInt(r, "limit", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("streaming unsupported by this connection"))
		return
	}
	sub := s.platform.Bus.Subscribe(256)
	defer sub.Cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	// An immediate comment line lets clients observe the subscription
	// before the first assessment lands.
	fmt.Fprint(w, ": subscribed\n\n")
	flusher.Flush()

	sent := 0
	for {
		select {
		case <-r.Context().Done():
			return
		case payload, open := <-sub.C:
			if !open {
				return // platform closed the bus
			}
			fmt.Fprintf(w, "event: assessment\ndata: %s\n\n", payload)
			flusher.Flush()
			sent++
			if limit > 0 && sent >= limit {
				return
			}
		}
	}
}

// handleStats serves the platform ingestion counters plus the streaming
// subsystem's per-stage counters and the storage engine's state
// (partitions, WAL volume, checkpoint/recovery history, dead-letter
// evictions).
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	stats := s.platform.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"postings":         stats.Postings,
		"reactions":        stats.Reactions,
		"parse_failures":   stats.ParseFailures,
		"orphan_reactions": stats.OrphanReactions,
		"pipeline":         s.platform.StreamStats(),
		"feed_subscribers": s.platform.Bus.SubscriberStats(),
		"storage":          s.platform.StorageStats(),
		"storage_health":   s.platform.StorageHealth(),
	})
}
