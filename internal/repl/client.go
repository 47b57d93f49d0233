package repl

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/rdbms"
	"repro/internal/stream"
)

// CursorTable is the follower-local table holding the replication
// cursor. It exists only on followers and is excluded from primary/
// follower divergence comparisons.
const CursorTable = "repl_cursor"

// errResync marks a stream rejection (409/410) that demands discarding
// local state and bootstrapping again from the primary's manifest.
var errResync = errors.New("repl: primary demands a full resync")

// cursorFlushEvery bounds how many applied records may ride ahead of the
// persisted cursor. Loose apply is idempotent, so a stale cursor only
// costs re-application after a crash, never correctness.
const cursorFlushEvery = 64

// ClientConfig configures a follower's replication client.
type ClientConfig struct {
	// Primary is the primary's base URL (e.g. http://primary:8080).
	Primary string
	// DB is the follower's own store the stream replays into.
	DB *rdbms.DB
	// HTTPClient overrides http.DefaultClient (tests inject the
	// httptest transport or a fault-wrapping RoundTripper).
	HTTPClient *http.Client
	// ID is the follower's stable identity; it owns the primary-side
	// prune holds. Defaults to "follower".
	ID string
	// ReconnectMin/Max bound the reconnect backoff (defaults 50ms / 2s).
	ReconnectMin, ReconnectMax time.Duration
	// Metrics is the registry the link's families live on (nil: a private
	// one).
	Metrics *obs.Registry
}

// Status is a snapshot of the replication link, surfaced under
// storage_health.replication on /api/stats and /api/health.
type Status struct {
	Primary        string `json:"primary"`
	Connected      bool   `json:"connected"`
	Segment        int    `json:"segment"`
	Offset         int64  `json:"offset"`
	PrimarySegment int    `json:"primary_segment"`
	PrimaryOffset  int64  `json:"primary_offset"`
	// LagBytes is exact while lag_segments is 0, otherwise a lower
	// bound (the primary's progress into its current segment).
	LagBytes       int64  `json:"lag_bytes"`
	LagSegments    int    `json:"lag_segments"`
	RecordsApplied uint64 `json:"records_applied"`
	BytesReceived  uint64 `json:"bytes_received"`
	Reconnects     uint64 `json:"reconnects"`
	FullResyncs    uint64 `json:"full_resyncs"`
	LastError      string `json:"last_error,omitempty"`
}

// replTailWindow mirrors the rdbms tail-hash window.
const replTailWindow = 64

// cursor is the follower's replication position: the next WAL byte to
// request plus the raw tail bytes before it, which the primary hashes to
// prove the histories still agree. The window lives in a fixed array, so a
// cursor is a plain value: copying one snapshots it.
type cursor struct {
	seg     int
	off     int64
	tail    [replTailWindow]byte
	tailLen int
}

// window returns the tail bytes the cursor holds.
func (c *cursor) window() []byte { return c.tail[:c.tailLen] }

// push slides rec into the tail window, keeping the last replTailWindow
// bytes of everything applied in this segment.
func (c *cursor) push(rec []byte) {
	if len(rec) >= replTailWindow {
		c.tailLen = copy(c.tail[:], rec[len(rec)-replTailWindow:])
		return
	}
	keep := min(c.tailLen, replTailWindow-len(rec))
	copy(c.tail[:], c.tail[c.tailLen-keep:c.tailLen])
	c.tailLen = keep + copy(c.tail[keep:], rec)
}

// Client replays a primary's replication stream into the follower's DB.
// EnsureSynced runs once during platform assembly (before schemas are
// ensured, so generation-defined partition counts win); Start then tails
// the WAL until Close.
type Client struct {
	primary    string
	db         *rdbms.DB
	hc         *http.Client
	id         string
	minBack    time.Duration
	maxBack    time.Duration
	bus        *stream.Bus
	onFault    func(error)
	cursorsTbl *rdbms.Table
	m          *metrics

	// st holds the link state; its four counters live in m and are filled
	// in by Status.
	mu  sync.Mutex
	cur cursor
	st  Status

	cancel context.CancelFunc
	done   chan struct{}
}

// NewClient builds a replication client; it performs no I/O yet.
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Primary == "" {
		return nil, errors.New("repl: primary URL required")
	}
	if cfg.DB == nil {
		return nil, errors.New("repl: follower DB required")
	}
	hc := cfg.HTTPClient
	if hc == nil {
		hc = http.DefaultClient
	}
	id := cfg.ID
	if id == "" {
		id = "follower"
	}
	minBack, maxBack := cfg.ReconnectMin, cfg.ReconnectMax
	if minBack <= 0 {
		minBack = 50 * time.Millisecond
	}
	if maxBack <= 0 {
		maxBack = 2 * time.Second
	}
	return &Client{
		primary: strings.TrimRight(cfg.Primary, "/"),
		db:      cfg.DB,
		hc:      hc,
		id:      id,
		minBack: minBack,
		maxBack: maxBack,
		m:       newMetrics(cfg.Metrics),
		st:      Status{Primary: strings.TrimRight(cfg.Primary, "/")},
	}, nil
}

// Status returns a snapshot of the link state.
func (c *Client) Status() Status {
	c.mu.Lock()
	st := c.st
	c.mu.Unlock()
	st.RecordsApplied = c.m.recordsApplied.Value()
	st.BytesReceived = c.m.bytesReceived.Value()
	st.Reconnects = c.m.reconnects.Value()
	st.FullResyncs = c.m.fullResyncs.Value()
	return st
}

// EnsureSynced brings the follower to a replayable position: a recovered
// cursor means the local store already holds everything up to it, and a
// missing cursor (fresh directory, or a crash before the first durable
// checkpoint) triggers a full snapshot sync. Must run before the
// platform ensures its own schemas, so the primary's partition layout
// wins over local defaults.
func (c *Client) EnsureSynced(ctx context.Context) error {
	if err := c.ensureCursorTable(); err != nil {
		return err
	}
	row, err := c.cursorsTbl.Get(rdbms.String("cursor"))
	if err == nil {
		cur, derr := decodeCursor(row)
		if derr != nil {
			return derr
		}
		c.mu.Lock()
		c.cur = cur
		c.st.Segment, c.st.Offset = cur.seg, cur.off
		c.mu.Unlock()
		return nil
	}
	if !errors.Is(err, rdbms.ErrNotFound) {
		return err
	}
	return c.fullResync(ctx)
}

// Start launches the continuous replay loop, republishing feed events
// onto bus (may be nil) and reporting storage faults through onFault
// (may be nil).
func (c *Client) Start(bus *stream.Bus, onFault func(error)) {
	c.bus = bus
	c.onFault = onFault
	ctx, cancel := context.WithCancel(context.Background())
	c.cancel = cancel
	c.done = make(chan struct{})
	go c.run(ctx)
}

// Close stops the replay loop. The cursor is already durable-ordered
// behind its data, so there is nothing else to flush.
func (c *Client) Close() {
	if c.cancel == nil {
		return
	}
	c.cancel()
	<-c.done
	c.cancel = nil
}

// run is the reconnect loop: stream until the link drops, resync when
// the primary demands it, back off exponentially while the primary is
// unreachable, and reset the backoff whenever a connection made
// progress.
func (c *Client) run(ctx context.Context) {
	defer close(c.done)
	defer c.m.connected.Set(0)
	backoff := c.minBack
	for ctx.Err() == nil {
		before := c.m.bytesReceived.Value()
		err := c.streamOnce(ctx)
		c.setConnected(false, err)
		if ctx.Err() != nil {
			return
		}
		if errors.Is(err, errResync) {
			if rerr := c.fullResync(ctx); rerr != nil {
				c.noteError(rerr)
			} else {
				backoff = c.minBack
				continue
			}
		}
		c.m.reconnects.Inc()
		if c.m.bytesReceived.Value() > before {
			backoff = c.minBack
		}
		timer := time.NewTimer(backoff)
		select {
		case <-ctx.Done():
			timer.Stop()
			return
		case <-timer.C:
		}
		if backoff *= 2; backoff > c.maxBack {
			backoff = c.maxBack
		}
	}
}

// streamOnce opens one WAL stream from the persisted cursor and consumes
// it until the connection drops or a frame fails to apply. A frame is
// acted on only once fully read, so a torn stream can never half-apply a
// record; the cursor advances only past fully applied records.
func (c *Client) streamOnce(ctx context.Context) error {
	cur := c.cursorSnapshot()
	h := fnv.New64a()
	_, _ = h.Write(cur.window())
	u := fmt.Sprintf("%s/api/repl/wal?id=%s&seg=%d&off=%d&n=%d&sum=%d",
		c.primary, url.QueryEscape(c.id), cur.seg, cur.off, cur.tailLen, h.Sum64())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusConflict, http.StatusGone:
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return fmt.Errorf("%w (%s)", errResync, resp.Status)
	default:
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		return fmt.Errorf("repl: wal stream: %s", resp.Status)
	}
	c.setConnected(true, nil)

	fr := newFrameReader(resp.Body)
	pending := 0
	flush := func() error {
		if pending == 0 {
			return nil
		}
		if err := c.saveCursor(); err != nil {
			c.fault(err)
			return err
		}
		pending = 0
		return nil
	}
	for {
		// payload aliases fr's buffer: whatever outlives this iteration
		// must copy it.
		typ, payload, err := fr.next()
		if err != nil {
			_ = flush()
			return err
		}
		switch typ {
		case frameRecord:
			if err := c.db.ApplyReplRecord(payload); err != nil {
				// Local storage refused the record (broken WAL, schema
				// drift). The cursor stays put: after the supervisor
				// heals, re-application resumes exactly here.
				c.fault(err)
				return err
			}
			c.advance(payload)
			if pending++; pending >= cursorFlushEvery {
				if err := flush(); err != nil {
					return err
				}
			}
		case frameEndSegment:
			vals, verr := unpackUvarints(payload, 1)
			if verr != nil {
				return verr
			}
			c.mu.Lock()
			c.cur = cursor{seg: int(vals[0])}
			c.st.Segment, c.st.Offset = c.cur.seg, 0
			c.mu.Unlock()
			pending++
			if err := flush(); err != nil {
				return err
			}
		case frameBusEvent:
			if c.bus != nil {
				c.bus.Publish(append([]byte(nil), payload...))
			}
		case frameHeartbeat:
			vals, verr := unpackUvarints(payload, 2)
			if verr != nil {
				return verr
			}
			c.notePrimary(int(vals[0]), int64(vals[1]))
			if err := flush(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("repl: unknown frame type %q", typ)
		}
	}
}

// fullResync discards local table state and bootstraps from the
// primary's snapshot chain. Ordering is the crash-safety contract: the
// synced tables are checkpointed durable BEFORE the cursor row is
// written, so a cursor can never survive a crash its data did not. The
// sequence is idempotent — a crash anywhere inside it leaves either the
// old cursor (a later stream is refused with 409/410 and resyncs again)
// or no cursor (EnsureSynced resyncs from scratch).
func (c *Client) fullResync(ctx context.Context) error {
	c.m.fullResyncs.Inc()

	var m rdbms.ReplManifest
	if err := c.getJSON(ctx, "/api/repl/manifest?id="+url.QueryEscape(c.id), &m); err != nil {
		return err
	}
	c.db.ResetTables()
	for _, gen := range m.Chain() {
		if err := c.applyGeneration(ctx, gen); err != nil {
			return err
		}
	}
	if _, err := c.db.Checkpoint(); err != nil && !errors.Is(err, rdbms.ErrNoDir) {
		return err
	}
	c.mu.Lock()
	c.cur = cursor{seg: m.StartSegment()}
	c.st.Segment, c.st.Offset = c.cur.seg, 0
	c.mu.Unlock()
	return c.saveCursor()
}

func (c *Client) getJSON(ctx context.Context, path string, into any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.primary+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(into)
}

func (c *Client) applyGeneration(ctx context.Context, gen int) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		fmt.Sprintf("%s/api/repl/generation?gen=%d", c.primary, gen), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("repl: generation %d: %s", gen, resp.Status)
	}
	n := &countingReader{r: resp.Body}
	if err := c.db.ApplyGenerationStream(n); err != nil {
		return fmt.Errorf("repl: apply generation %d: %w", gen, err)
	}
	c.m.bytesReceived.Add(uint64(n.n))
	return nil
}

// ensureCursorTable creates the follower-local cursor table if missing.
func (c *Client) ensureCursorTable() error {
	tbl, err := c.db.Table(CursorTable)
	if errors.Is(err, rdbms.ErrNotFound) {
		schema, serr := rdbms.NewSchema([]rdbms.Column{
			{Name: "k", Type: rdbms.TString},
			{Name: "seg", Type: rdbms.TInt},
			{Name: "off", Type: rdbms.TInt},
			{Name: "tail", Type: rdbms.TString},
		}, "k")
		if serr != nil {
			return serr
		}
		tbl, err = c.db.CreateTablePartitioned(CursorTable, schema, 1)
		if errors.Is(err, rdbms.ErrExists) {
			tbl, err = c.db.Table(CursorTable)
		}
	}
	if err != nil {
		return err
	}
	c.cursorsTbl = tbl
	return nil
}

// saveCursor persists the in-memory cursor through the follower's own
// WAL. Because the WAL is ordered, the persisted cursor always trails or
// equals the persisted data — a power cut can lose applied records past
// the cursor (they re-apply idempotently on reconnect) but can never
// leave a cursor pointing past data that was lost.
func (c *Client) saveCursor() error {
	return c.cursorsTbl.Upsert(cursorRow(c.cursorSnapshot()))
}

// cursorRow is the cursor table's row for cur; decodeCursor reads it back.
func cursorRow(cur cursor) rdbms.Row {
	return rdbms.Row{
		rdbms.String("cursor"),
		rdbms.Int(int64(cur.seg)),
		rdbms.Int(cur.off),
		rdbms.String(hex.EncodeToString(cur.window())),
	}
}

// decodeCursor reads a cursor row back. A row no follower could have
// written — a negative segment or offset, a tail that is not hex or is
// longer than the window — is an error, not a position to resume from.
func decodeCursor(row rdbms.Row) (cursor, error) {
	if len(row) != 4 {
		return cursor{}, fmt.Errorf("repl: malformed cursor row (%d columns)", len(row))
	}
	seg, off := row[1].Int(), row[2].Int()
	if seg < 0 || off < 0 {
		return cursor{}, fmt.Errorf("repl: malformed cursor position (segment %d, offset %d)", seg, off)
	}
	tail, err := hex.DecodeString(row[3].Str())
	if err != nil {
		return cursor{}, fmt.Errorf("repl: malformed cursor tail: %w", err)
	}
	if len(tail) > replTailWindow {
		return cursor{}, fmt.Errorf("repl: malformed cursor tail: %d bytes", len(tail))
	}
	cur := cursor{seg: int(seg), off: off}
	cur.push(tail)
	return cur, nil
}

func (c *Client) cursorSnapshot() cursor {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cur
}

// advance moves the in-memory cursor past one applied record, keeping
// the rolling tail window the primary verifies on reconnect.
func (c *Client) advance(rec []byte) {
	c.mu.Lock()
	c.cur.off += int64(len(rec))
	c.cur.push(rec)
	c.st.Segment, c.st.Offset = c.cur.seg, c.cur.off
	c.mu.Unlock()
	c.m.recordsApplied.Inc()
	c.m.bytesReceived.Add(uint64(len(rec)))
}

func (c *Client) notePrimary(seg int, size int64) {
	c.mu.Lock()
	c.st.PrimarySegment, c.st.PrimaryOffset = seg, size
	c.st.LagSegments = seg - c.st.Segment
	if c.st.LagSegments < 0 {
		c.st.LagSegments = 0
	}
	if c.st.LagSegments == 0 {
		c.st.LagBytes = size - c.st.Offset
		if c.st.LagBytes < 0 {
			c.st.LagBytes = 0
		}
	} else {
		c.st.LagBytes = size
	}
	lagB, lagS := c.st.LagBytes, c.st.LagSegments
	c.mu.Unlock()
	c.m.lagBytes.Set(lagB)
	c.m.lagSegments.Set(int64(lagS))
}

func (c *Client) setConnected(up bool, err error) {
	c.mu.Lock()
	c.st.Connected = up
	if err != nil && !errors.Is(err, io.EOF) && !errors.Is(err, context.Canceled) {
		c.st.LastError = err.Error()
	}
	c.mu.Unlock()
	if up {
		c.m.connected.Set(1)
	} else {
		c.m.connected.Set(0)
	}
}

func (c *Client) noteError(err error) {
	c.mu.Lock()
	c.st.LastError = err.Error()
	c.mu.Unlock()
}

func (c *Client) fault(err error) {
	if c.onFault != nil {
		c.onFault(err)
	}
}

// countingReader mirrors the rdbms helper for sizing streamed payloads.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}
