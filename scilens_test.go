package scilens_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	scilens "repro"
	"repro/internal/stream"
)

// testDoc is a minimal news document in the markup subset the extractor
// handles: headline, byline, paragraphs and references.
const testDoc = `<html><head><title>Vaccine trial shows strong immune response</title></head>
<body>
<span class="byline">By Jane Roe</span>
<p>Researchers reported measured results from a phase two trial. The data
were reviewed before publication and the sample included 240 participants.</p>
<p>The study, published in a peer-reviewed journal, is available at
<a href="https://www.nature.com/articles/vaccine-trial">the journal</a>
and was discussed by <a href="https://outlet-excellent-1.example/followup">another outlet</a>.</p>
</body></html>`

const testURL = "https://newsroom.example/2020/02/vaccine-trial"

func TestEvaluateDocument(t *testing.T) {
	report, err := scilens.EvaluateDocument(testDoc, testURL)
	if err != nil {
		t.Fatal(err)
	}
	if report.Article.Title == "" {
		t.Error("no title extracted")
	}
	if !report.Content.HasByline {
		t.Error("byline missed")
	}
	if report.Context.ScientificCount < 1 {
		t.Errorf("scientific reference missed: %+v", report.Context)
	}
	if report.Composite <= 0 || report.Composite > 1 {
		t.Errorf("composite out of range: %v", report.Composite)
	}
}

func TestEvaluateDocumentEmpty(t *testing.T) {
	if _, err := scilens.EvaluateDocument("", ""); err == nil {
		t.Error("empty document should fail")
	}
}

func TestBootstrapDeterministic(t *testing.T) {
	cfg := scilens.BootstrapConfig{Seed: 7, Days: 6, RateScale: 0.2, ReactionScale: 0.2}
	p1, w1, err := scilens.Bootstrap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p2, w2, err := scilens.Bootstrap(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(w1.Articles) == 0 || len(w1.Articles) != len(w2.Articles) {
		t.Fatalf("world sizes: %d vs %d", len(w1.Articles), len(w2.Articles))
	}
	a1, err := p1.AssessURL(w1.Articles[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := p2.AssessURL(w2.Articles[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	if *a1 != *a2 {
		t.Errorf("assessments differ:\n%+v\n%+v", a1, a2)
	}
}

func TestBootstrapDefaultsApplied(t *testing.T) {
	p, w, err := scilens.Bootstrap(scilens.BootstrapConfig{Days: 3, RateScale: 0.1, ReactionScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if w.Days != 3 {
		t.Errorf("days: %d", w.Days)
	}
	if p.Stats().Postings != len(w.Articles) {
		t.Errorf("ingested %d of %d", p.Stats().Postings, len(w.Articles))
	}
	// The default clock is pinned to the window end, after every event.
	if got := p.Clock(); !got.After(w.Start) {
		t.Errorf("clock: %v", got)
	}
}

func TestExpertReviewFlow(t *testing.T) {
	p, w, err := scilens.Bootstrap(scilens.BootstrapConfig{Seed: 3, Days: 4, RateScale: 0.15, ReactionScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	art := w.Articles[0]
	review := scilens.Review{ArticleID: art.ID, Reviewer: "expert-1", Time: p.Clock()}
	for c := range review.Scores {
		review.Scores[c] = 5
	}
	review.Scores[scilens.Clickbaitness] = 3
	if _, err := p.SubmitReview(review); err != nil {
		t.Fatal(err)
	}
	a, err := p.AssessID(art.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := (5.0*6 + 3.0) / 7
	if a.ExpertCount != 1 || a.ExpertOverall < want-1e-9 || a.ExpertOverall > want+1e-9 {
		t.Errorf("aggregate: count=%d overall=%v want %v", a.ExpertCount, a.ExpertOverall, want)
	}
}

func TestErrNotIngestedExposed(t *testing.T) {
	p, err := scilens.New(scilens.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AssessURL("https://nowhere.example/x"); !errors.Is(err, scilens.ErrNotIngested) {
		t.Errorf("sentinel not exposed: %v", err)
	}
}

func TestHTTPServerEndToEnd(t *testing.T) {
	p, w, err := scilens.Bootstrap(scilens.BootstrapConfig{Seed: 5, Days: 8, RateScale: 0.25, ReactionScale: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(scilens.NewHTTPServer(p))
	defer srv.Close()

	// Stored-article assessment (Figure 3 payload).
	resp, err := srv.Client().Get(srv.URL + "/api/assess?url=" + w.Articles[0].URL)
	if err != nil {
		t.Fatal(err)
	}
	var assessment scilens.Assessment
	if err := json.NewDecoder(resp.Body).Decode(&assessment); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || assessment.ArticleID != w.Articles[0].ID {
		t.Errorf("assess: status=%d got %+v", resp.StatusCode, assessment.ArticleID)
	}

	// Arbitrary-document assessment.
	body, _ := json.Marshal(map[string]string{"html": testDoc, "url": testURL})
	resp, err = srv.Client().Post(srv.URL+"/api/assess", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 || doc["title"] == "" {
		t.Errorf("document assess: %d %v", resp.StatusCode, doc)
	}

	// Topic insights (Figure 4 payload).
	resp, err = srv.Client().Get(srv.URL + "/api/insights/activity?days=8")
	if err != nil {
		t.Fatal(err)
	}
	var activity struct {
		Days   int                  `json:"days"`
		Series map[string][]float64 `json:"series"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&activity); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if activity.Days != 8 || len(activity.Series) != scilens.NumClasses {
		t.Errorf("activity: %+v", activity)
	}
}

func TestRatingClassLabels(t *testing.T) {
	order := []scilens.RatingClass{
		scilens.Excellent, scilens.Good, scilens.Mixed, scilens.Poor, scilens.VeryPoor,
	}
	if len(order) != scilens.NumClasses {
		t.Fatalf("class count: %d", scilens.NumClasses)
	}
	seen := map[string]bool{}
	for _, c := range order {
		label := c.String()
		if label == "" || seen[label] {
			t.Errorf("bad label for class %d: %q", c, label)
		}
		seen[label] = true
	}
}

func ExampleEvaluateDocument() {
	report, err := scilens.EvaluateDocument(testDoc, testURL)
	if err != nil {
		panic(err)
	}
	fmt.Println("title:", report.Article.Title)
	fmt.Println("byline:", report.Content.HasByline)
	fmt.Println("scientific refs:", report.Context.ScientificCount)
	// Output:
	// title: Vaccine trial shows strong immune response
	// byline: true
	// scientific refs: 1
}

// queueWaitSum scrapes the platform's debug surface for the pipeline
// queue-wait histogram's sum across shards, in seconds.
func queueWaitSum(t *testing.T, p *scilens.Platform) float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	scilens.NewDebugHandler(p).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	total := 0.0
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if !strings.HasPrefix(line, "scilens_pipeline_queue_wait_seconds_sum{") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		total += v
	}
	return total
}

// TestBootstrapPipelineMeasuresRealTime pins that the pipeline of a
// Bootstrap platform — the shipped server's — measures elapsed time on
// the wall clock, not on Bootstrap's data clock, which is pinned to the
// end of the synthetic window: a throttled source's buckets refill, and
// a backlog that waited records a queue wait.
func TestBootstrapPipelineMeasuresRealTime(t *testing.T) {
	const rate = 20 // events/s per bucket: one token is 50ms
	p, w, err := scilens.Bootstrap(scilens.BootstrapConfig{
		Seed: 5, Days: 4, RateScale: 0.25, ReactionScale: 0.2,
		Platform: scilens.Config{AdmissionRate: rate},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	events := w.Events()
	if len(events) < 8 {
		t.Fatalf("world too small: %d events", len(events))
	}

	// Spend one source's steady and burst buckets (depth 2x and 4x rate).
	hot := &events[0]
	throttled := false
	for i := 0; i < 20*rate && !throttled; i++ {
		if err := p.StreamEvent(hot, true); errors.Is(err, stream.ErrThrottled) {
			throttled = true
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !throttled {
		t.Fatal("source never throttled")
	}
	time.Sleep(time.Second / rate * 3 / 2)
	if err := p.StreamEvent(hot, true); err != nil {
		t.Fatalf("event after one token's worth of real time: %v", err)
	}
	p.Pipeline.Flush()

	before := queueWaitSum(t, p)
	p.Pipeline.Pause()
	for i := range events[:8] {
		payload, err := events[i].Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Pipeline.Enqueue(events[i].ArticleURL, payload); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(5 * time.Millisecond)
	p.Pipeline.Resume()
	p.Pipeline.Flush()
	if after := queueWaitSum(t, p); after <= before {
		t.Fatalf("queue-wait sum %v -> %v after a 5ms blocked backlog; want it to grow", before, after)
	}
}
