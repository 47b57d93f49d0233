package repl

import (
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rdbms"
	"repro/internal/stream"
)

// Source is the primary side of a replication link: it serves the
// manifest and snapshot generations for a follower's initial sync and
// then streams live WAL records — with feed events from the stream.Bus
// fanned out over the same connection — while holding the checkpoint
// prune off everything a connected follower still needs.
type Source struct {
	db  *rdbms.DB
	bus *stream.Bus
	m   *metrics

	// poll is the tail-poll cadence while a follower is caught up;
	// heartbeatEvery bounds how stale a caught-up follower's view of the
	// primary position may go.
	poll           time.Duration
	heartbeatEvery time.Duration

	// sessions fences concurrent streams for the same follower id (a
	// reconnect racing its half-dead predecessor): only the latest stream
	// owns — and on exit releases — the id's prune holds.
	mu       sync.Mutex
	sessions map[string]int
}

// NewSource serves replication for db, fanning bus events to followers.
// bus may be nil (no feed fan-out); so may reg (a private registry).
func NewSource(db *rdbms.DB, bus *stream.Bus, reg *obs.Registry) *Source {
	return &Source{
		db:             db,
		bus:            bus,
		m:              newMetrics(reg),
		poll:           5 * time.Millisecond,
		heartbeatEvery: 250 * time.Millisecond,
		sessions:       make(map[string]int),
	}
}

// enter registers a new stream for id and returns its session token.
func (s *Source) enter(id string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sessions[id]++
	return s.sessions[id]
}

// exit releases id's holds if sess is still the latest stream for it.
func (s *Source) exit(id string, sess int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sessions[id] == sess {
		delete(s.sessions, id)
		s.db.ReleaseReplHold(id)
	}
}

// ServeManifest answers GET /api/repl/manifest: the generation chain to
// bootstrap from and the WAL position to stream after it. With ?id= the
// chain is pinned against compaction until the follower's WAL stream for
// the same id begins (or its holds are released on stream exit).
func (s *Source) ServeManifest(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	m, err := s.db.ReplManifest(id)
	if err != nil {
		if errors.Is(err, rdbms.ErrNoDir) {
			http.Error(w, "primary is not durable: nothing to replicate", http.StatusConflict)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(m)
}

// ServeGeneration answers GET /api/repl/generation?gen=N with the raw
// generation byte stream (snap-NNNNNN/tables.dat).
func (s *Source) ServeGeneration(w http.ResponseWriter, r *http.Request) {
	gen, err := strconv.Atoi(r.URL.Query().Get("gen"))
	if err != nil || gen <= 0 {
		http.Error(w, "gen must be a positive integer", http.StatusBadRequest)
		return
	}
	rc, err := s.db.OpenGeneration(gen)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			// Pruned since the manifest was served: the follower restarts
			// its sync from a fresh manifest.
			http.Error(w, "generation pruned", http.StatusGone)
			return
		}
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer func() { _ = rc.Close() }()
	w.Header().Set("Content-Type", "application/octet-stream")
	if n, err := io.Copy(w, rc); err == nil {
		s.m.bytesSent.Add(uint64(n))
	}
}

// ServeWAL answers GET /api/repl/wal: an unbounded framed stream of WAL
// records from the follower's cursor, interleaved with feed events and
// heartbeats. Query parameters:
//
//	id   follower identity (required; owns the prune hold)
//	seg  WAL segment to resume from
//	off  byte offset within the segment
//	n    length of the cursor's tail window (0 on a fresh cursor)
//	sum  FNV-1a hash of the n bytes before off, as decimal
//
// 409 means the cursor's history diverged from this primary (it lost an
// unsynced tail and regrew differently); 410 means the segment is gone.
// Both demand a full resync.
func (s *Source) ServeWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	id := q.Get("id")
	seg, _ := strconv.Atoi(q.Get("seg"))
	off, _ := strconv.ParseInt(q.Get("off"), 10, 64)
	tn, _ := strconv.Atoi(q.Get("n"))
	sum, _ := strconv.ParseUint(q.Get("sum"), 10, 64)
	if id == "" || seg <= 0 || off < 0 || tn < 0 {
		http.Error(w, "id, seg required; off, n, sum describe the cursor", http.StatusBadRequest)
		return
	}
	tail, err := s.openTail(seg, off, tn, sum)
	if err != nil {
		switch {
		case errors.Is(err, fs.ErrNotExist):
			http.Error(w, "segment pruned: full resync required", http.StatusGone)
		case errors.Is(err, rdbms.ErrReplDiverged):
			http.Error(w, "cursor diverged: full resync required", http.StatusConflict)
		case errors.Is(err, rdbms.ErrNoDir):
			http.Error(w, "primary is not durable: nothing to replicate", http.StatusConflict)
		default:
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
		return
	}
	// One read handle on the segment being shipped, held for the stream's
	// life and moved forward at each rotation.
	defer func() { _ = tail.Close() }()

	// From here the stream owns the follower's prune hold.
	s.db.HoldWAL(id, seg)
	sess := s.enter(id)
	defer s.exit(id, sess)
	s.m.streams.Add(1)
	defer s.m.streams.Add(-1)

	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	fw := newFrameWriter(w)

	var sub *stream.Subscription
	var busC <-chan []byte
	if s.bus != nil {
		sub = s.bus.Subscribe(1024)
		defer sub.Cancel()
		busC = sub.C
	}

	ship := func(rec []byte) error {
		s.m.bytesSent.Add(uint64(len(rec)))
		return fw.write(frameRecord, rec)
	}
	ctx := r.Context()
	lastBeat := time.Time{}
	for {
		if ctx.Err() != nil {
			return
		}
		// Read before the poll: a poll that finds nothing after the
		// sequence moved on has seen the whole of the rotated segment.
		cur := s.db.CurrentWALSegment()
		shipped, err := tail.Poll(ship)
		if err != nil {
			return // write error (follower gone) or segment unreadable
		}
		progressed := shipped > 0

		if !progressed && cur > seg {
			// The segment rotated away and is fully drained: hand the
			// follower the next one. Consecutive rotation seqs mean seg+1
			// always exists once cur > seg.
			if fw.writeUvarints(frameEndSegment, uint64(seg+1)) != nil {
				return
			}
			if tail.Next() != nil {
				return
			}
			seg++
			s.db.HoldWAL(id, seg)
			continue
		}

		if !s.forwardBusEvents(busC, fw) {
			return
		}

		if progressed || time.Since(lastBeat) >= s.heartbeatEvery {
			size, serr := s.db.WALSegmentSize(cur)
			if serr != nil {
				size = 0
			}
			if fw.writeUvarints(frameHeartbeat, uint64(cur), uint64(size)) != nil {
				return
			}
			lastBeat = time.Now()
		}
		if fw.flush() != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
		if progressed {
			continue
		}
		// Caught up: sleep until new WAL bytes are due, waking early for
		// feed events so the follower's SSE lag stays at one poll tick.
		timer := time.NewTimer(s.poll)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case p, ok := <-busC:
			timer.Stop()
			if !ok {
				busC = nil
				continue
			}
			if fw.write(frameBusEvent, p) != nil {
				return
			}
		case <-timer.C:
		}
	}
}

// openTail verifies a follower cursor against the WAL and opens the tail
// reader the stream ships from.
func (s *Source) openTail(seg int, off int64, n int, sum uint64) (*rdbms.WALTail, error) {
	if err := s.db.VerifyWALTail(seg, off, n, sum); err != nil {
		return nil, err
	}
	return s.db.OpenWALTail(seg, off)
}

// forwardBusEvents drains pending feed events without blocking. False
// means the connection is dead.
func (s *Source) forwardBusEvents(busC <-chan []byte, fw *frameWriter) bool {
	for {
		select {
		case p, ok := <-busC:
			if !ok {
				return true
			}
			if fw.write(frameBusEvent, p) != nil {
				return false
			}
		default:
			return true
		}
	}
}

// Routes mounts the source's handlers onto mux under /api/repl/. Used by
// the -repl-addr dedicated listener; the main API server registers the
// same handlers through its own mux for docs and middleware parity.
func (s *Source) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /api/repl/manifest", s.ServeManifest)
	mux.HandleFunc("GET /api/repl/generation", s.ServeGeneration)
	mux.HandleFunc("GET /api/repl/wal", s.ServeWAL)
}
