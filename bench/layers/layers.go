// Package layers is the layer ladder of the traced run: it replays a sample
// of a workload's generated inputs, on one goroutine, through each layer's
// public functions on an in-process platform built from the same seed, with
// a span around every call. Layers are called bottom-up — the storage read
// first, then the core call that makes that read, then the HTTP handler
// that makes that core call — so a layer's self time is its span minus the
// spans of the calls it makes. The spans are recorded here, around the
// calls into each layer; spans inside the program are a later change.
package layers

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"time"

	"repro/bench/gen"
	"repro/internal/contentind"
	"repro/internal/core"
	"repro/internal/extract"
	"repro/internal/indicators"
	"repro/internal/rdbms"
	"repro/internal/readability"
	"repro/internal/refind"
	"repro/internal/synth"
	"repro/internal/textutil"
	"repro/internal/topics"
)

// Span is one timed call into a layer.
type Span struct {
	// Name is layer.call, e.g. "rdbms.view_eq".
	Name string `json:"name"`
	// Start and End are nanoseconds since the trace began.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
	// Parent is the index of the span whose layer makes this call, -1 for a
	// span nothing above it was measured for.
	Parent int `json:"parent"`
	// Request numbers the replayed input the span belongs to.
	Request int `json:"request"`
}

// Trace is the spans of one ladder run.
type Trace struct {
	Workload string `json:"workload"`
	// OverheadNs is what a span around nothing measures on this box — two
	// clock reads and a call — found by calibration when the trace starts.
	// Durations subtracts it from every span: the storage reads at the
	// bottom of the ladder take about as long as the clock reads do.
	OverheadNs int64  `json:"overhead_ns"`
	Spans      []Span `json:"spans"`

	t0 time.Time
}

// NewTrace calibrates the span overhead and starts an empty trace.
func NewTrace(workload string) *Trace {
	t := &Trace{Workload: workload, t0: time.Now()}
	const rounds = 1001
	for i := 0; i < rounds; i++ {
		t.span("calibrate", i, func() {})
	}
	empty := make([]int64, rounds)
	for i, s := range t.Spans {
		empty[i] = s.End - s.Start
	}
	sort.Slice(empty, func(i, j int) bool { return empty[i] < empty[j] })
	t.OverheadNs, t.Spans = empty[rounds/2], nil
	return t
}

// span times f, records it as a call of request, and adopts the given
// earlier spans as its children. It returns the new span's index.
func (t *Trace) span(name string, request int, f func(), children ...int) int {
	start := time.Since(t.t0)
	f()
	end := time.Since(t.t0)
	i := len(t.Spans)
	t.Spans = append(t.Spans, Span{Name: name, Start: int64(start), End: int64(end), Parent: -1, Request: request})
	for _, c := range children {
		t.Spans[c].Parent = i
	}
	return i
}

// Durations returns, per span name, each span's duration and self time
// (duration minus its children's durations) in microseconds.
func (t *Trace) Durations() (total, self map[string][]float64) {
	dur := func(s Span) int64 { return max(0, s.End-s.Start-t.OverheadNs) }
	childSum := make([]int64, len(t.Spans))
	for _, s := range t.Spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += dur(s)
		}
	}
	total, self = map[string][]float64{}, map[string][]float64{}
	for i, s := range t.Spans {
		d := dur(s)
		total[s.Name] = append(total[s.Name], float64(d)/1e3)
		self[s.Name] = append(self[s.Name], float64(d-childSum[i])/1e3)
	}
	return total, self
}

// Under reports whether spans called name sit below (or are) spans called
// root in the call structure the ladder recorded.
func (t *Trace) Under(root, name string) bool {
	for i := range t.Spans {
		if t.Spans[i].Name != name {
			continue
		}
		for j := i; j >= 0; j = t.Spans[j].Parent {
			if t.Spans[j].Name == root {
				return true
			}
		}
		return false
	}
	return false
}

// WriteFile writes the trace as JSON.
func (t *Trace) WriteFile(path string) error {
	b, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Reads replays stored-assessment reads: the two storage reads, the core
// call that makes them, the handler that makes the core call. Each layer
// gets its own pass over the inputs, so every span finds the row it reads
// as cold in the CPU caches as the span below it did; interleaving the
// layers per input would charge the first one called for the misses of all.
func (t *Trace) Reads(p *core.Platform, handler http.Handler, urls []string) error {
	articles, err := p.DB.Table(core.ArticlesTable)
	if err != nil {
		return err
	}
	social, err := p.DB.Table(core.SocialTable)
	if err != nil {
		return err
	}
	n := len(urls)
	ids := make([]string, n)
	viewEq, view, assess := make([]int, n), make([]int, n), make([]int, n)
	for r, u := range urls {
		viewEq[r] = t.span("rdbms.view_eq", r, func() {
			// A missing row shows as an empty id; the core pass reports it.
			_ = articles.ViewEq("url", rdbms.String(u), func(row rdbms.Row) bool {
				ids[r] = row[0].Str()
				return false
			})
		})
	}
	for r := range urls {
		view[r] = t.span("rdbms.view", r, func() {
			_ = social.View(rdbms.String(ids[r]), func(rdbms.Row) {}) // timing only
		})
	}
	for r, u := range urls {
		assess[r] = t.span("core.assess_url", r, func() { _, err = p.AssessURL(u) }, viewEq[r], view[r])
		if err != nil {
			return err
		}
	}
	for r, u := range urls {
		req := httptest.NewRequest(http.MethodGet, gen.AssessURLPath(u), nil)
		rec := httptest.NewRecorder()
		t.span("api.serve", r, func() { handler.ServeHTTP(rec, req) }, assess[r])
		if rec.Code != http.StatusOK {
			return &statusError{req.URL.String(), rec.Code}
		}
	}
	return nil
}

type statusError struct {
	what string
	code int
}

func (e *statusError) Error() string {
	return "ladder: " + e.what + ": status " + http.StatusText(e.code)
}

// Doc is one document of the evaluate-an-article path.
type Doc struct{ URL, HTML string }

// Evaluations replays cold evaluations: extraction, the shared text
// analysis, each indicator family, the engine that runs them, the handler
// that runs the engine. engine must be a fresh engine configured like
// p.Engine: the handler evaluates on p.Engine and the engine span on
// engine, so both see each document for the first time.
func (t *Trace) Evaluations(p *core.Platform, handler http.Handler, engine *indicators.Engine, docs []Doc) error {
	analyzer := contentind.NewAnalyzer()
	refs := refind.NewClassifier(p.Registry)
	tagger := topics.NewTagger(topics.DefaultTaxonomy())
	n := len(docs)
	arts := make([]*extract.Article, n)
	titles, bodies := make([]*textutil.Analysis, n), make([]*textutil.Analysis, n)
	parse, analysis, score, content, references, tag, cold :=
		make([]int, n), make([]int, n), make([]int, n), make([]int, n), make([]int, n), make([]int, n), make([]int, n)
	var err error
	// One pass per layer, as in Reads.
	for r, d := range docs {
		parse[r] = t.span("extract.parse", r, func() { arts[r], err = extract.Parse(d.HTML, d.URL) })
		if err != nil {
			return err
		}
	}
	for r := range docs {
		analysis[r] = t.span("textutil.analysis", r, func() {
			bodies[r] = textutil.NewAnalysis(arts[r].Body)
			titles[r] = textutil.NewAnalysis(arts[r].Title)
		})
	}
	for r := range docs {
		score[r] = t.span("readability.score", r, func() { readability.ScoreDoc(bodies[r]) })
	}
	for r := range docs {
		content[r] = t.span("contentind.analyze", r, func() { analyzer.AnalyzeDoc(arts[r], titles[r], bodies[r]) }, score[r])
	}
	for r := range docs {
		references[r] = t.span("refind.analyze", r, func() { refs.Analyze(arts[r]) })
	}
	for r := range docs {
		tag[r] = t.span("topics.tag", r, func() {
			stems := make([]string, 0, titles[r].ContentWordCount()+bodies[r].ContentWordCount())
			stems = titles[r].AppendContentStems(stems)
			stems = bodies[r].AppendContentStems(stems)
			tagger.TagStems(stems)
		})
	}
	for r, d := range docs {
		cold[r] = t.span("indicators.evaluate_cold", r, func() { _, err = engine.Evaluate(d.HTML, d.URL, nil) },
			parse[r], analysis[r], content[r], references[r], tag[r])
		if err != nil {
			return err
		}
		// The second evaluation follows at once: the report cache holds
		// fewer documents than a pass evaluates.
		t.span("indicators.evaluate_warm", r, func() { _, err = engine.Evaluate(d.HTML, d.URL, nil) })
		if err != nil {
			return err
		}
	}
	for r, d := range docs {
		body, err := json.Marshal(map[string]string{"url": d.URL, "html": d.HTML})
		if err != nil {
			return err
		}
		req := httptest.NewRequest(http.MethodPost, "/api/assess", strings.NewReader(string(body)))
		rec := httptest.NewRecorder()
		t.span("api.serve", r, func() { handler.ServeHTTP(rec, req) }, cold[r])
		if rec.Code != http.StatusOK {
			return &statusError{"POST /api/assess " + d.URL, rec.Code}
		}
	}
	return nil
}

// ingestChunk is how many consecutive events go down one ingest path before
// the ladder switches to the next: a bulk-ingest batch.
const ingestChunk = 64

// Ingest replays firehose events into p, which must be durable with the
// workload's fsync policy so that storage writes pay for their WAL append.
// Each event is applied once; consecutive chunks of 64 alternate between
// the synchronous path (core.ingest_event), the pipeline entry the HTTP
// handler uses (core.stream_event) and the pipeline's own queue
// (stream.enqueue), and the pipeline is drained between chunks so a
// reaction never runs ahead of its posting. Then it times the storage
// calls those paths end in, on a scratch table of the same store, and a
// batched evaluation of the sample's postings.
func (t *Trace) Ingest(p *core.Platform, events []synth.Event) error {
	for r := range events {
		ev := &events[r]
		var err error
		switch r / ingestChunk % 3 {
		case 0:
			t.span("core.ingest_event", r, func() { err = p.IngestEvent(ev) })
		case 1:
			t.span("core.stream_event", r, func() { err = p.StreamEvent(ev, false) })
		case 2:
			payload, encErr := ev.Encode()
			if encErr != nil {
				return encErr
			}
			t.span("stream.enqueue", r, func() { err = p.Pipeline.Enqueue(ev.ArticleURL, payload) })
		}
		if err != nil {
			return err
		}
		if (r+1)%ingestChunk == 0 {
			p.Pipeline.Flush()
		}
	}
	p.Pipeline.Flush()

	var docs []indicators.BatchDoc
	for i := range events {
		if events[i].Type == synth.EventTypePosting {
			docs = append(docs, indicators.BatchDoc{HTML: events[i].ArticleHTML, URL: events[i].ArticleURL})
		}
	}
	for r := 0; len(docs) >= ingestChunk; r++ {
		var err error
		t.span("indicators.evaluate_batch", r, func() { _, err = p.Engine.EvaluateBatch(p.Compute, docs[:ingestChunk]) })
		if err != nil {
			return err
		}
		docs = docs[ingestChunk:]
	}

	// The shape of an article_social row: a string key and seven counters,
	// inserted once and then bumped, as a posting and its reactions do.
	cols := []rdbms.Column{{Name: "id", Type: rdbms.TString}}
	for _, c := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		cols = append(cols, rdbms.Column{Name: c, Type: rdbms.TInt})
	}
	schema, err := rdbms.NewSchema(cols, "id")
	if err != nil {
		return err
	}
	scratch, err := p.DB.CreateTable("bench_scratch", schema)
	if err != nil {
		return err
	}
	for r := range events {
		key := rdbms.String(events[r].PostID)
		row := rdbms.Row{key, rdbms.Int(0), rdbms.Int(0), rdbms.Int(0), rdbms.Int(0), rdbms.Int(0), rdbms.Int(0), rdbms.Int(0)}
		t.span("rdbms.insert", r, func() { _, err = scratch.Insert(row) })
		if err != nil {
			return err
		}
		t.span("rdbms.mutate", r, func() {
			err = scratch.Mutate(key, func(agg rdbms.Row) (rdbms.Row, error) {
				agg[1] = rdbms.Int(agg[1].Int() + 1)
				return agg, nil
			})
		})
		if err != nil {
			return err
		}
	}
	return nil
}
