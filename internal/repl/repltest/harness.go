// Package repltest is the reusable multi-node replication harness: a
// primary and a follower run in one process, linked over net/http/
// httptest through a chaos proxy, with vfs fault injection on both
// sides. Tests drive ingest, checkpoints, link cuts, disk faults and
// power cuts, then pin convergence — every table row for row
// rdbms.Row.Identical at quiesce.
//
// Two node weights are provided. Platform nodes (NewPair) assemble the
// full core.Platform on each side — adaptive pipeline, API surface, SSE
// bus — and talk through the real api.Server routes. Lite nodes
// (NewLitePrimary / NewLiteFollower) are a bare rdbms.DB plus the repl
// Source/Client, for dense crash matrices where platform assembly would
// drown the signal.
package repltest

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/rdbms"
	"repro/internal/rdbms/vfs"
	"repro/internal/repl"
	"repro/internal/stream"
	"repro/internal/synth"
)

// Proxy fronts the primary with a stable URL that survives primary
// restarts (SetBackend swaps the handler in place) and injects link
// faults: refuse connections, cut a WAL stream after a byte budget
// (tearing a frame mid-record), or throttle WAL writes to keep a
// follower durably behind.
type Proxy struct {
	srv *httptest.Server

	mu      sync.Mutex
	backend http.Handler

	genFetches atomic.Int64
	walCut     atomic.Int64 // one-shot byte budget for the next WAL stream
	walDelay   atomic.Int64 // ns of sleep per WAL write, applied at stream start
	down       atomic.Bool
}

// NewProxy starts the proxy over backend. Callers own Close.
func NewProxy(backend http.Handler) *Proxy {
	px := &Proxy{backend: backend}
	px.srv = httptest.NewServer(px)
	return px
}

// URL is the stable primary base URL followers connect to.
func (px *Proxy) URL() string { return px.srv.URL }

// Close shuts the listener down.
func (px *Proxy) Close() { px.srv.Close() }

// SetBackend swaps the primary handler — a primary "restart" keeps the
// URL while the platform behind it is rebuilt.
func (px *Proxy) SetBackend(h http.Handler) {
	px.mu.Lock()
	defer px.mu.Unlock()
	px.backend = h
}

// GenFetches counts /api/repl/generation requests — a full resync
// detector: a follower that reconnects from its cursor never fetches a
// generation.
func (px *Proxy) GenFetches() int64 { return px.genFetches.Load() }

// SetDown makes every request fail with 502 until lifted.
func (px *Proxy) SetDown(v bool) { px.down.Store(v) }

// CutWALAfter arms a one-shot link fault: the live WAL stream (or the
// next one to write) is aborted mid-connection once n more payload bytes
// have passed — usually mid-frame, leaving the follower a torn record to
// cope with.
func (px *Proxy) CutWALAfter(n int64) { px.walCut.Store(n) }

// SetWALDelay throttles every write on WAL streams (applied dynamically,
// live streams included), keeping the follower durably behind a fast
// primary. Zero lifts the throttle.
func (px *Proxy) SetWALDelay(d time.Duration) { px.walDelay.Store(int64(d)) }

// ServeHTTP implements the chaos routing.
func (px *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if px.down.Load() {
		http.Error(w, "repltest: link down", http.StatusBadGateway)
		return
	}
	if strings.HasPrefix(r.URL.Path, "/api/repl/generation") {
		px.genFetches.Add(1)
	}
	if strings.HasPrefix(r.URL.Path, "/api/repl/wal") {
		w = &walWriter{rw: w, px: px}
	}
	px.mu.Lock()
	h := px.backend
	px.mu.Unlock()
	h.ServeHTTP(w, r)
}

// walWriter applies the proxy's live chaos knobs to one WAL response.
// An armed cut budget counts down across writes; crossing zero flushes
// the partial bytes (so the tear lands at a deterministic byte) and
// aborts the connection without a terminal chunk — the follower sees a
// mid-frame EOF, not a clean end.
type walWriter struct {
	rw http.ResponseWriter
	px *Proxy
}

func (w *walWriter) Header() http.Header { return w.rw.Header() }

func (w *walWriter) WriteHeader(code int) { w.rw.WriteHeader(code) }

func (w *walWriter) Write(p []byte) (int, error) {
	if d := time.Duration(w.px.walDelay.Load()); d > 0 {
		time.Sleep(d)
	}
	budget := w.px.walCut.Load()
	if budget <= 0 {
		return w.rw.Write(p)
	}
	if int64(len(p)) < budget {
		w.px.walCut.Store(budget - int64(len(p)))
		return w.rw.Write(p)
	}
	w.px.walCut.Store(0)
	_, _ = w.rw.Write(p[:budget])
	w.Flush()
	panic(http.ErrAbortHandler)
}

func (w *walWriter) Flush() {
	if f, ok := w.rw.(http.Flusher); ok {
		f.Flush()
	}
}

// Node is one platform-weight participant: a full core.Platform over a
// fault-injected in-memory filesystem.
type Node struct {
	TB       testing.TB
	Mem      *vfs.Mem
	Fault    *vfs.Fault
	Platform *core.Platform

	closed bool
}

// Close shuts the platform down once; safe after a simulated crash
// (Abandon + PowerCut) because it becomes a no-op then.
func (n *Node) Close() {
	if n.closed {
		return
	}
	n.closed = true
	_ = n.Platform.Close()
}

// Crash simulates a power cut: the platform is abandoned without any
// final flush and every byte not yet fsynced is discarded.
func (n *Node) Crash() {
	if n.closed {
		return
	}
	n.closed = true
	n.Platform.DB.Abandon()
	n.Mem.PowerCut()
}

// fixedClock pins platform time to the end of the synthetic window so
// ingest-time review weighting and analytics are reproducible.
func fixedClock(days int) func() time.Time {
	end := synth.WindowStart.AddDate(0, 0, days)
	return func() time.Time { return end }
}

// NewPrimaryNode assembles a durable primary platform on a fresh
// fault-injected filesystem. mutate may adjust the config (nil ok).
func NewPrimaryNode(tb testing.TB, mutate func(*core.Config)) *Node {
	tb.Helper()
	mem := vfs.NewMem()
	fault := vfs.NewFault(mem)
	cfg := core.Config{
		DataDir:   "data",
		StorageFS: fault,
		Clock:     fixedClock(30),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := core.NewPlatform(cfg)
	if err != nil {
		tb.Fatalf("primary platform: %v", err)
	}
	n := &Node{TB: tb, Mem: mem, Fault: fault, Platform: p}
	tb.Cleanup(n.Close)
	return n
}

// NewFollowerNode assembles a follower platform replicating from
// primaryURL; its initial sync runs inside core.NewPlatform. The
// follower fsyncs every commit so crash matrices get boundary density.
func NewFollowerNode(tb testing.TB, primaryURL string, mutate func(*core.Config)) *Node {
	tb.Helper()
	mem := vfs.NewMem()
	fault := vfs.NewFault(mem)
	cfg := core.Config{
		DataDir:        "data",
		StorageFS:      fault,
		Clock:          fixedClock(30),
		ReplicaOf:      primaryURL,
		WALFsyncPolicy: "always",
	}
	if mutate != nil {
		mutate(&cfg)
	}
	p, err := core.NewPlatform(cfg)
	if err != nil {
		tb.Fatalf("follower platform: %v", err)
	}
	n := &Node{TB: tb, Mem: mem, Fault: fault, Platform: p}
	tb.Cleanup(n.Close)
	return n
}

// Pair is the assembled two-node topology: primary behind the chaos
// proxy, follower replicating through it.
type Pair struct {
	Primary  *Node
	Proxy    *Proxy
	Follower *Node
}

// NewPair wires primary → proxy → follower. The primary serves its full
// API (replication routes included) through the proxy.
func NewPair(tb testing.TB, mutatePrimary, mutateFollower func(*core.Config)) *Pair {
	tb.Helper()
	primary := NewPrimaryNode(tb, mutatePrimary)
	proxy := NewProxy(api.NewServer(primary.Platform))
	tb.Cleanup(proxy.Close)
	follower := NewFollowerNode(tb, proxy.URL(), mutateFollower)
	return &Pair{Primary: primary, Proxy: proxy, Follower: follower}
}

// WaitConverged blocks until the follower's applied position equals the
// quiesced primary's current WAL position — every shipped record is
// applied. It fails the test only after the follower's (Segment, Offset)
// has not advanced for stall, however slow a loaded machine makes it.
// The primary must not be writing concurrently with the final check.
func WaitConverged(tb testing.TB, primaryDB *rdbms.DB, status func() *repl.Status, stall time.Duration) {
	tb.Helper()
	var last *repl.Status
	seg, off := -1, int64(-1)
	for moved := time.Now(); time.Since(moved) < stall; time.Sleep(10 * time.Millisecond) {
		pseg := primaryDB.CurrentWALSegment()
		psize, err := primaryDB.WALSegmentSize(pseg)
		if err != nil {
			continue
		}
		last = status()
		if last != nil && last.Connected && last.Segment == pseg && last.Offset == psize {
			return
		}
		if last != nil && (last.Segment > seg || last.Segment == seg && last.Offset > off) {
			moved, seg, off = time.Now(), last.Segment, last.Offset
		}
	}
	tb.Fatalf("repltest: follower did not converge, no progress for %v (primary seg=%d, last status=%+v)",
		stall, primaryDB.CurrentWALSegment(), last)
}

// WaitConvergedPair is WaitConverged for a platform Pair.
func WaitConvergedPair(tb testing.TB, pair *Pair, stall time.Duration) {
	tb.Helper()
	WaitConverged(tb, pair.Primary.Platform.DB, pair.Follower.Platform.ReplicationStatus, stall)
}

// TablesEqual pins divergence: both stores must hold the same tables
// (the follower-local cursor table excepted) with the same partition
// layout and, sorted by primary key, rdbms.Row.Identical rows.
func TablesEqual(tb testing.TB, primary, follower *rdbms.DB) {
	tb.Helper()
	pn := replicatedTables(primary)
	fn := replicatedTables(follower)
	if !reflect.DeepEqual(pn, fn) {
		tb.Fatalf("table sets diverged:\n  primary:  %v\n  follower: %v", pn, fn)
	}
	for _, name := range pn {
		pt, err := primary.Table(name)
		if err != nil {
			tb.Fatalf("primary table %q: %v", name, err)
		}
		ft, err := follower.Table(name)
		if err != nil {
			tb.Fatalf("follower table %q: %v", name, err)
		}
		if pt.Partitions() != ft.Partitions() {
			tb.Fatalf("table %q partition layout diverged: primary %d, follower %d",
				name, pt.Partitions(), ft.Partitions())
		}
		pr := sortedRows(pt)
		fr := sortedRows(ft)
		if i := firstDiff(pr, fr); i < len(pr) || i < len(fr) {
			tb.Fatalf("table %q diverged: primary %d rows, follower %d rows (first diff at %d)",
				name, len(pr), len(fr), i)
		}
	}
}

func replicatedTables(db *rdbms.DB) []string {
	names := db.TableNames()
	out := names[:0]
	for _, n := range names {
		if n != repl.CursorTable {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func sortedRows(t *rdbms.Table) []rdbms.Row {
	rows := make([]rdbms.Row, 0, t.Len())
	t.Scan(func(r rdbms.Row) bool {
		rows = append(rows, r)
		return true
	})
	pk := t.Schema().PK
	sort.Slice(rows, func(i, j int) bool {
		c, _ := rows[i][pk].Compare(rows[j][pk])
		return c < 0
	})
	return rows
}

func firstDiff(a, b []rdbms.Row) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if !a[i].Identical(b[i]) {
			return i
		}
	}
	return n
}

// LiteNode is one rdbms-weight participant: a durable store without the
// platform around it. The primary flavour carries the Source and its
// feed bus; the follower flavour carries the Client.
type LiteNode struct {
	TB     testing.TB
	Mem    *vfs.Mem
	Fault  *vfs.Fault
	DB     *rdbms.DB
	Bus    *stream.Bus
	Source *repl.Source
	Client *repl.Client
}

// openLiteDB opens a durable store at "data" on a fresh fault wrapper
// over mem. fsync names the WAL policy ("" = checkpoint-only).
func openLiteDB(tb testing.TB, mem *vfs.Mem, fsync rdbms.FsyncPolicy) (*rdbms.DB, *vfs.Fault) {
	tb.Helper()
	fault := vfs.NewFault(mem)
	db, err := rdbms.OpenWithOptions("data", rdbms.Options{FS: fault, Fsync: fsync})
	if err != nil {
		tb.Fatalf("open lite store: %v", err)
	}
	return db, fault
}

// NewLitePrimary opens a durable store with one 2-partition "articles"
// table (id TInt pk, body TString) and serves replication for it behind
// a fresh proxy.
func NewLitePrimary(tb testing.TB) (*LiteNode, *Proxy) {
	tb.Helper()
	mem := vfs.NewMem()
	db, fault := openLiteDB(tb, mem, rdbms.FsyncCheckpoint)
	tb.Cleanup(func() { _ = db.Close() })
	schema, err := rdbms.NewSchema([]rdbms.Column{
		{Name: "id", Type: rdbms.TInt},
		{Name: "body", Type: rdbms.TString},
	}, "id")
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := db.CreateTablePartitioned("articles", schema, 2); err != nil {
		tb.Fatal(err)
	}
	n := &LiteNode{TB: tb, Mem: mem, Fault: fault, DB: db, Bus: stream.NewBus(nil)}
	n.Source = repl.NewSource(db, n.Bus, nil)
	mux := http.NewServeMux()
	n.Source.Routes(mux)
	proxy := NewProxy(mux)
	tb.Cleanup(proxy.Close)
	return n, proxy
}

// SourceMux returns a fresh mux serving this node's replication routes —
// for swapping a different primary behind an existing proxy.
func (n *LiteNode) SourceMux() *http.ServeMux {
	mux := http.NewServeMux()
	n.Source.Routes(mux)
	return mux
}

// Reopen rebuilds the primary's store and Source from the same
// filesystem (a primary process restart) and swaps it into the proxy.
func (n *LiteNode) Reopen(proxy *Proxy) {
	n.TB.Helper()
	db, fault := openLiteDB(n.TB, n.Mem, rdbms.FsyncCheckpoint)
	n.TB.Cleanup(func() { _ = db.Close() })
	n.DB, n.Fault = db, fault
	n.Source = repl.NewSource(db, n.Bus, nil)
	mux := http.NewServeMux()
	n.Source.Routes(mux)
	proxy.SetBackend(mux)
}

// InsertN inserts rows [lo, hi) into the primary's articles table.
func (n *LiteNode) InsertN(lo, hi int64) {
	n.TB.Helper()
	tbl, err := n.DB.Table("articles")
	if err != nil {
		n.TB.Fatal(err)
	}
	for i := lo; i < hi; i++ {
		if _, err := tbl.Insert(rdbms.Row{rdbms.Int(i), rdbms.String(fmt.Sprintf("row-%d", i))}); err != nil {
			n.TB.Fatal(err)
		}
	}
}

// NewLiteFollower opens a follower store (fsync=always for boundary
// density), syncs it from the proxy and starts continuous replay.
// onFault may be nil.
func NewLiteFollower(tb testing.TB, proxy *Proxy, id string, onFault func(error)) *LiteNode {
	tb.Helper()
	mem := vfs.NewMem()
	n := ReopenLiteFollower(tb, mem, proxy, id, onFault)
	return n
}

// ReopenLiteFollower (re)opens a follower on an existing filesystem —
// the restart half of a power-cut cycle. Recovery replays the local WAL,
// EnsureSynced finds (or rebuilds) the cursor, Start resumes replay.
func ReopenLiteFollower(tb testing.TB, mem *vfs.Mem, proxy *Proxy, id string, onFault func(error)) *LiteNode {
	tb.Helper()
	db, fault := openLiteDB(tb, mem, rdbms.FsyncAlways)
	client, err := repl.NewClient(repl.ClientConfig{
		Primary: proxy.URL(),
		DB:      db,
		ID:      id,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := client.EnsureSynced(ctx); err != nil {
		tb.Fatalf("follower sync: %v", err)
	}
	client.Start(nil, onFault)
	tb.Cleanup(func() {
		client.Close()
		_ = db.Close()
	})
	return &LiteNode{TB: tb, Mem: mem, Fault: fault, DB: db, Client: client}
}

// Crash power-cuts a lite follower: replay stops, the store is abandoned
// with no final flush, unsynced bytes are gone.
func (n *LiteNode) Crash() {
	n.Client.Close()
	n.DB.Abandon()
	n.Mem.PowerCut()
}

// WaitCaughtUp blocks until the lite follower has applied everything the
// (quiesced) primary holds; it fails after stall without progress.
func WaitCaughtUp(tb testing.TB, primary, follower *LiteNode, stall time.Duration) {
	tb.Helper()
	WaitConverged(tb, primary.DB, func() *repl.Status {
		st := follower.Client.Status()
		return &st
	}, stall)
}
