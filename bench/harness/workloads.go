package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"time"

	scilens "repro"
	"repro/bench/gen"
	"repro/bench/layers"
	"repro/internal/indicators"
	"repro/internal/synth"
)

const (
	// ladderInputs is how many sampled inputs the ladder replays.
	ladderInputs = 2000
	// firehoseEvents is firehose_durable's fixed input, which lasts about
	// 20 s on the box this was written on (the first tenth is warm-up). The
	// input, not the clock, is fixed, so the store's final state — hence
	// live heap and bytes written — is the same on every commit.
	firehoseEvents = 500_000
	// replicaWriteRate is replica_mixed's open-loop write rate, events/s:
	// about a fifteenth of what the primary can take, so the writer is
	// never the bottleneck and the reads beside it are what is measured.
	replicaWriteRate = 2000
	// checkedPostings and checkedArticles are the sample sizes of the
	// after-the-run output checks.
	checkedPostings = 1000
	checkedArticles = 200
)

// sameJSON compares two JSON documents field for field.
func sameJSON(a, b []byte) bool {
	var x, y any
	if json.Unmarshal(a, &x) != nil || json.Unmarshal(b, &y) != nil {
		return false
	}
	return reflect.DeepEqual(x, y)
}

// launchOne is the set-up of a single-server workload.
func launchOne(ctx context.Context, e *Env, sp Spec) (*cluster, error) {
	s, err := e.Launch(ctx, sp)
	if err != nil {
		return nil, err
	}
	return &cluster{servers: []*Server{s}, setupSeconds: s.SetupSeconds}, nil
}

// bootPlatform builds the in-process reference: the platform a launched
// server holds.
func bootPlatform(cfg scilens.Config) (*scilens.Platform, error) {
	bc := gen.BootConfig()
	bc.Platform = cfg
	p, _, err := scilens.Bootstrap(bc)
	return p, err
}

// ---- read_stored ----------------------------------------------------------

// readStored is the reader path: C connections loop GET /api/assess?url=
// uniformly over every bootstrapped article of an in-memory server.
type readStored struct {
	urls  []string
	reads [][]byte
}

func (w *readStored) route() string { return "GET /api/assess" }

// storedReads renders the stored-assessment read of every bootstrapped
// article.
func storedReads() (urls []string, reads [][]byte) {
	urls = gen.ArticleURLs(gen.BootWorld())
	return urls, gen.Reads(urls)
}

func (w *readStored) prepare(Options) error {
	w.urls, w.reads = storedReads()
	return nil
}

func (w *readStored) setUp(ctx context.Context, e *Env, o Options) (*cluster, error) {
	return launchOne(ctx, e, Spec{})
}

func readLoops(addr string, seed int64, reads [][]byte, firstConn, n int) []loop {
	loops := make([]loop, n)
	for i := range loops {
		conn := firstConn + i
		loops[i] = closedLoop(addr, conn, func(_ []byte, k int) []byte {
			return reads[gen.Pick(seed, conn, k, len(reads))]
		})
	}
	return loops
}

func (w *readStored) drive(ctx context.Context, cl *cluster, o Options) (*driven, error) {
	return driveTimed(ctx, cl, o, readLoops(cl.target().Addr, o.Seed, w.reads, 0, o.Clients), -1, nil, nil)
}

// checkReads compares every kept reply with what the reference platform
// answers for the same URL.
func checkReads(p *scilens.Platform, seed int64, urls []string, ks []kept) (problems []string) {
	for _, kp := range ks {
		u := urls[gen.Pick(seed, kp.conn, kp.k, len(urls))]
		want, err := p.AssessURL(u)
		if err != nil {
			problems = append(problems, fmt.Sprintf("reference has no assessment for %s: %v", u, err))
			continue
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			problems = append(problems, err.Error())
			continue
		}
		if !sameJSON(kp.body, wantJSON) {
			problems = append(problems, fmt.Sprintf("GET assess %s: got %s, reference %s", u, bytes.TrimSpace(kp.body), wantJSON))
		}
	}
	return problems
}

func (w *readStored) verify(_ context.Context, _ *Env, _ *cluster, o Options, d *driven, _ map[string]float64) ([]string, error) {
	p, err := bootPlatform(scilens.Config{})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	return checkReads(p, o.Seed, w.urls, d.kept), nil
}

func sampleURLs(seed int64, urls []string, n int) []string {
	out := make([]string, n)
	for k := range out {
		out[k] = urls[gen.Pick(seed, 0, k, len(urls))]
	}
	return out
}

func (w *readStored) ladder(_ *Env, o Options) (*layers.Trace, error) {
	p, err := bootPlatform(scilens.Config{})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	tr := layers.NewTrace(o.Workload)
	return tr, tr.Reads(p, scilens.NewHTTPServer(p), sampleURLs(o.Seed, w.urls, ladderInputs))
}

// ---- assess_cold ----------------------------------------------------------

// assessCold is the evaluate-an-arbitrary-article path: C connections loop
// POST /api/assess with documents the server has never seen.
type assessCold struct {
	cold *gen.Cold
}

func (w *assessCold) route() string { return "POST /api/assess" }

func (w *assessCold) prepare(o Options) error {
	var err error
	w.cold, err = gen.NewCold(o.Seed, gen.LoadArticles(o.Seed, 2000))
	return err
}

func (w *assessCold) setUp(ctx context.Context, e *Env, o Options) (*cluster, error) {
	return launchOne(ctx, e, Spec{})
}

func (w *assessCold) drive(ctx context.Context, cl *cluster, o Options) (*driven, error) {
	loops := make([]loop, o.Clients)
	for conn := range loops {
		loops[conn] = closedLoop(cl.target().Addr, conn, func(buf []byte, k int) []byte {
			return w.cold.AppendRequest(buf, conn, k)
		})
	}
	return driveTimed(ctx, cl, o, loops, -1, nil, nil)
}

// coldAnswer mirrors the POST /api/assess reply.
type coldAnswer struct {
	Title           string      `json:"title"`
	Byline          string      `json:"byline,omitempty"`
	Clickbait       float64     `json:"clickbait"`
	Subjectivity    float64     `json:"subjectivity"`
	ReadingGrade    float64     `json:"reading_grade"`
	HasByline       bool        `json:"has_byline"`
	InternalRefs    int         `json:"internal_refs"`
	ExternalRefs    int         `json:"external_refs"`
	ScientificRefs  int         `json:"scientific_refs"`
	ScientificRatio float64     `json:"scientific_ratio"`
	SourceStrength  float64     `json:"source_strength"`
	Composite       float64     `json:"composite"`
	Topics          []coldTopic `json:"topics,omitempty"`
}

type coldTopic struct {
	Topic string  `json:"topic"`
	Prob  float64 `json:"prob"`
}

func (w *assessCold) verify(_ context.Context, _ *Env, cl *cluster, _ Options, d *driven, _ map[string]float64) ([]string, error) {
	// A platform without a corpus: its engine is configured as the
	// server's is, and an evaluation depends on nothing else.
	p, err := scilens.New(scilens.Config{})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	var problems []string
	for _, kp := range d.kept {
		url, html := w.cold.Doc(kp.conn, kp.k)
		rep, err := p.Engine.Evaluate(html, url, nil)
		if err != nil {
			problems = append(problems, fmt.Sprintf("reference cannot evaluate %s: %v", url, err))
			continue
		}
		want := coldAnswer{
			Title: rep.Article.Title, Byline: rep.Article.Byline,
			Clickbait: rep.Content.Clickbait, Subjectivity: rep.Content.Subjectivity,
			ReadingGrade: rep.Content.ReadingGrade, HasByline: rep.Content.HasByline,
			InternalRefs: rep.Context.InternalCount, ExternalRefs: rep.Context.ExternalCount,
			ScientificRefs: rep.Context.ScientificCount, ScientificRatio: rep.Context.ScientificRatio,
			SourceStrength: rep.Context.SourceStrength, Composite: rep.Composite,
		}
		for _, t := range rep.Topics {
			want.Topics = append(want.Topics, coldTopic{t.Topic, t.Prob})
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			return nil, err
		}
		if !sameJSON(kp.body, wantJSON) {
			problems = append(problems, fmt.Sprintf("POST assess %s: got %s, reference %s", url, bytes.TrimSpace(kp.body), wantJSON))
		}
	}
	// Every document was new, so the report cache must never have hit.
	ms, err := cl.target().Metrics()
	if err != nil {
		return nil, err
	}
	if hits := ms.Sum("scilens_engine_cache_hits_total") + ms.Sum("scilens_engine_cache_joins_total"); hits != 0 {
		problems = append(problems, fmt.Sprintf("report cache served %v evaluations of documents it cannot have seen", hits))
	}
	return problems, nil
}

func (w *assessCold) ladder(_ *Env, o Options) (*layers.Trace, error) {
	p, err := scilens.New(scilens.Config{})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	docs := make([]layers.Doc, ladderInputs)
	for k := range docs {
		docs[k].URL, docs[k].HTML = w.cold.Doc(0, k)
	}
	tr := layers.NewTrace(o.Workload)
	engine := indicators.NewEngine(indicators.Config{Registry: p.Registry})
	return tr, tr.Evaluations(p, scilens.NewHTTPServer(p), engine, docs)
}

// ---- firehose_durable -----------------------------------------------------

// firehoseDurable is the operator's firehose: a fixed input of load-world
// events, in 64-event block-mode batches, into a WAL-backed server.
type firehoseDurable struct {
	events   []synth.Event
	lanes    [][]gen.Batch
	postings []string // article URLs of the postings sent, in send order
	dataDir  string
}

func (w *firehoseDurable) route() string { return "POST /api/ingest" }

func (w *firehoseDurable) prepare(o Options) error {
	w.events = gen.LoadEvents(o.Seed, firehoseEvents)
	for i := range w.events {
		if w.events[i].Type == synth.EventTypePosting {
			w.postings = append(w.postings, w.events[i].ArticleURL)
		}
	}
	for _, lane := range gen.Lanes(w.events, o.Clients) {
		bs, err := gen.Batches(lane)
		if err != nil {
			return err
		}
		w.lanes = append(w.lanes, bs)
	}
	// The ladder replays a sample; the rest is only needed encoded.
	w.events = gen.CascadeSample(w.events, ladderInputs)
	return nil
}

func (w *firehoseDurable) setUp(ctx context.Context, e *Env, o Options) (*cluster, error) {
	dir, err := e.TempDir("firehose-")
	if err != nil {
		return nil, err
	}
	w.dataDir = dir
	return launchOne(ctx, e, Spec{DataDir: dir})
}

func (w *firehoseDurable) drive(ctx context.Context, cl *cluster, o Options) (*driven, error) {
	var pr *prober
	if o.Trace {
		pr = startProber(cl.primary().Addr)
	}
	return driveFixed(ctx, cl, o, w.lanes, pr)
}

func (w *firehoseDurable) verify(ctx context.Context, e *Env, cl *cluster, o Options, d *driven, m map[string]float64) ([]string, error) {
	var problems []string
	srv := cl.primary()
	h, err := srv.Health()
	if err != nil {
		return nil, err
	}
	var sent int
	for _, lane := range w.lanes {
		for _, b := range lane {
			sent += b.Events
		}
	}
	if got := h.Postings + h.Reactions - d.healthBefore.Postings - d.healthBefore.Reactions; got != sent {
		problems = append(problems, fmt.Sprintf("sent %d events, server committed %d", sent, got))
	}
	if h.DeadLetters != 0 {
		problems = append(problems, fmt.Sprintf("%d dead letters", h.DeadLetters))
	}
	disk, err := dirBytes(w.dataDir)
	if err != nil {
		return nil, err
	}
	// Durability: a clean shutdown, a start on the same directory, and
	// every sampled acknowledged posting must still be readable.
	if err := srv.Terminate(); err != nil {
		return nil, err
	}
	again, err := e.Launch(ctx, Spec{DataDir: w.dataDir})
	if err != nil {
		return nil, fmt.Errorf("restart on %s: %w", w.dataDir, err)
	}
	defer again.Kill()
	st, err := again.Stats()
	if err != nil {
		return nil, err
	}
	if o.Trace {
		m["rdbms.disk_bytes_per_event"] = float64(disk) / float64(sent)
		m["rdbms.recovery_s"] = again.SetupSeconds
		m["rdbms.recovered_records"] = float64(st.Storage.RecoveredRecords)
	}
	c := NewConn(again.Addr)
	defer c.Close()
	n := min(checkedPostings, len(w.postings))
	lost := 0
	for i := 0; i < n; i++ {
		u := w.postings[gen.Pick(o.Seed, 0, i, len(w.postings))]
		status, _, err := c.Do(gen.Get(gen.AssessURLPath(u)))
		if err != nil {
			return nil, err
		}
		if status != 200 {
			lost++
		}
	}
	if lost > 0 {
		problems = append(problems, fmt.Sprintf("%d of %d acknowledged postings unreadable after restart", lost, n))
	}
	return problems, nil
}

// durablePlatform is the ladder's store for the write paths: same
// bootstrap, same fsync policy as the launched servers.
func durablePlatform(e *Env) (*scilens.Platform, error) {
	dir, err := e.TempDir("ladder-")
	if err != nil {
		return nil, err
	}
	return bootPlatform(scilens.Config{DataDir: dir, WALFsyncPolicy: "interval"})
}

func (w *firehoseDurable) ladder(e *Env, o Options) (*layers.Trace, error) {
	p, err := durablePlatform(e)
	if err != nil {
		return nil, err
	}
	tr := layers.NewTrace(o.Workload)
	if err := tr.Ingest(p, w.events); err != nil {
		_ = p.Close() // the ladder's error is the one to report
		return nil, err
	}
	return tr, p.Close()
}

// ---- replica_mixed --------------------------------------------------------

// replicaMixed is reads beside replicated writes: a durable primary takes
// load-world batches at a fixed rate on one connection while the other
// connections loop stored reads on its follower.
type replicaMixed struct {
	urls    []string
	reads   [][]byte
	events  []synth.Event
	batches []gen.Batch
}

func (w *replicaMixed) route() string { return "GET /api/assess" }

// writeInterval is the open-loop period: one batch per this long.
const writeInterval = time.Second * gen.BatchEvents / replicaWriteRate

func (w *replicaMixed) prepare(o Options) error {
	w.urls, w.reads = storedReads()
	// Enough batches for the warm-up and every section, and a few spare.
	need := int((warmUp+time.Duration(o.seconds+2)*time.Second)/writeInterval) * gen.BatchEvents
	w.events = gen.LoadEvents(o.Seed, need)
	var err error
	w.batches, err = gen.Batches(w.events)
	return err
}

// synced reports whether the follower has replayed all the primary holds:
// no replication lag and the same row count, the follower's one extra row
// being its own replication cursor.
func synced(primary, follower *Server) (bool, error) {
	ms, err := follower.Metrics()
	if err != nil {
		return false, err
	}
	if ms.Sum("scilens_repl_lag_bytes") != 0 || ms.Sum("scilens_repl_connected") != 1 {
		return false, nil
	}
	hp, err := primary.Health()
	if err != nil {
		return false, err
	}
	hf, err := follower.Health()
	if err != nil {
		return false, err
	}
	return hf.Storage.Rows == hp.Storage.Rows+1, nil
}

func waitSynced(ctx context.Context, primary, follower *Server) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		ok, err := synced(primary, follower)
		if err != nil || ok {
			return err
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("follower not in sync with primary after 60s")
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (w *replicaMixed) setUp(ctx context.Context, e *Env, o Options) (*cluster, error) {
	pdir, err := e.TempDir("primary-")
	if err != nil {
		return nil, err
	}
	fdir, err := e.TempDir("follower-")
	if err != nil {
		return nil, err
	}
	primary, err := e.Launch(ctx, Spec{DataDir: pdir})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	follower, err := e.Launch(ctx, Spec{DataDir: fdir, ReplicaOf: primary.URL()})
	if err != nil {
		return nil, err
	}
	if err := waitSynced(ctx, primary, follower); err != nil {
		return nil, err
	}
	fs := time.Since(start).Seconds()
	return &cluster{
		servers:         []*Server{primary, follower},
		setupSeconds:    primary.SetupSeconds + fs,
		followerSeconds: fs,
	}, nil
}

func (w *replicaMixed) drive(ctx context.Context, cl *cluster, o Options) (*driven, error) {
	primary, follower := cl.servers[0], cl.servers[1]
	var pr *prober
	var lagMax float64
	var every func()
	if o.Trace {
		pr = startProber(follower.Addr)
		every = func() {
			if ms, err := follower.Metrics(); err == nil {
				lagMax = max(lagMax, ms.Sum("scilens_repl_lag_bytes"))
			}
		}
	}
	readers := max(1, o.Clients-1)
	loops := readLoops(follower.Addr, o.Seed, w.reads, 0, readers)
	loops = append(loops, openLoopWriter(primary.Addr, w.batches, writeInterval, pr))
	d, err := driveTimed(ctx, cl, o, loops, readers, pr, every)
	if d != nil {
		d.lagBytesMax = lagMax
	}
	return d, err
}

func (w *replicaMixed) verify(ctx context.Context, _ *Env, cl *cluster, o Options, d *driven, _ map[string]float64) ([]string, error) {
	primary, follower := cl.servers[0], cl.servers[1]
	if _, err := primary.WaitDrained(60 * time.Second); err != nil {
		return nil, err
	}
	var problems []string
	if err := waitSynced(ctx, primary, follower); err != nil {
		if ctx.Err() != nil {
			return nil, err
		}
		problems = append(problems, err.Error())
	}
	// The loop was an open one only if the writer held its rate. Batches are
	// due at absolute times, so a late one (loadgen.late_p99_ms) is caught
	// up; a shortfall means the primary could not take what was offered, and
	// the reads were measured beside a different load.
	from, to := d.sections[0].start, d.sections[len(d.sections)-1].end
	if rate := float64(d.sideOps(from, to)) / (float64(to-from) / 1e9); math.Abs(rate-replicaWriteRate) > 0.02*replicaWriteRate {
		problems = append(problems, fmt.Sprintf("writer held %.0f events/s, not %d", rate, replicaWriteRate))
	}
	// The reads are checked against the reference like read_stored's: the
	// writes never touch a bootstrapped article.
	p, err := bootPlatform(scilens.Config{})
	if err != nil {
		return nil, err
	}
	defer p.Close()
	problems = append(problems, checkReads(p, o.Seed, w.urls, d.kept)...)

	// At quiesce both nodes must answer alike, byte for byte, for stored
	// articles and for what the writer just added.
	var written []string
	sent := int(d.sideOps(0, int64(time.Since(d.t0))))
	for i := range w.events[:min(sent, len(w.events))] {
		if w.events[i].Type == synth.EventTypePosting {
			written = append(written, w.events[i].ArticleURL)
		}
	}
	pc, fc := NewConn(primary.Addr), NewConn(follower.Addr)
	defer pc.Close()
	defer fc.Close()
	for i := 0; i < checkedArticles; i++ {
		pool := w.urls
		if i%2 == 1 && len(written) > 0 {
			pool = written
		}
		req := gen.Get(gen.AssessURLPath(pool[gen.Pick(o.Seed, 1, i, len(pool))]))
		ps, pb, err := pc.Do(req)
		if err != nil {
			return nil, err
		}
		pb = append([]byte(nil), pb...)
		fs, fb, err := fc.Do(req)
		if err != nil {
			return nil, err
		}
		if ps != 200 || fs != 200 || !bytes.Equal(pb, fb) {
			problems = append(problems, fmt.Sprintf("nodes disagree on %s: primary %d %s, follower %d %s",
				req[:bytes.IndexByte(req, '\r')], ps, bytes.TrimSpace(pb), fs, bytes.TrimSpace(fb)))
		}
	}
	return problems, nil
}

func (w *replicaMixed) ladder(e *Env, o Options) (*layers.Trace, error) {
	p, err := durablePlatform(e)
	if err != nil {
		return nil, err
	}
	tr := layers.NewTrace(o.Workload)
	// Half the inputs are the follower's reads, half the primary's writes.
	err = tr.Reads(p, scilens.NewHTTPServer(p), sampleURLs(o.Seed, w.urls, ladderInputs/2))
	if err == nil {
		err = tr.Ingest(p, gen.CascadeSample(w.events, ladderInputs/2))
	}
	if err != nil {
		_ = p.Close() // the ladder's error is the one to report
		return nil, err
	}
	return tr, p.Close()
}
