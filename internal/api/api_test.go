package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
)

// apiFixture builds a platform with a small ingested world plus the
// composed server.
func apiFixture(t *testing.T) (*core.Platform, *synth.World, *Server) {
	t.Helper()
	p, err := core.NewPlatform(core.Config{
		Clock: func() time.Time { return synth.WindowStart.AddDate(0, 0, 10) },
	})
	if err != nil {
		t.Fatal(err)
	}
	w := synth.GenerateWorld(synth.Config{Seed: 31, Days: 10, RateScale: 0.25, ReactionScale: 0.3})
	if _, err := p.IngestWorld(w); err != nil {
		t.Fatal(err)
	}
	return p, w, NewServer(p)
}

func doJSON(t *testing.T, h http.Handler, method, path string, body any) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	var reader *bytes.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		reader = bytes.NewReader(raw)
	} else {
		reader = bytes.NewReader(nil)
	}
	req := httptest.NewRequest(method, path, reader)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var payload map[string]any
	if rec.Body.Len() > 0 && strings.HasPrefix(rec.Header().Get("Content-Type"), "application/json") {
		raw := rec.Body.Bytes()
		if raw[0] == '{' {
			if err := json.Unmarshal(raw, &payload); err != nil {
				t.Fatalf("bad json response: %v (%s)", err, raw)
			}
		}
	}
	return rec, payload
}

func TestHealthEndpoint(t *testing.T) {
	_, w, srv := apiFixture(t)
	rec, payload := doJSON(t, srv, "GET", "/api/health", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d", rec.Code)
	}
	if payload["status"] != "ok" {
		t.Errorf("payload: %v", payload)
	}
	if int(payload["postings"].(float64)) != len(w.Articles) {
		t.Errorf("postings: %v", payload["postings"])
	}
}

func TestAssessStoredByURLAndID(t *testing.T) {
	_, w, srv := apiFixture(t)
	art := w.Articles[0]
	rec, payload := doJSON(t, srv, "GET", "/api/assess?url="+art.URL, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d body=%s", rec.Code, rec.Body)
	}
	if payload["Title"] != art.Title {
		t.Errorf("title: %v", payload["Title"])
	}
	rec, _ = doJSON(t, srv, "GET", "/api/assess?id="+art.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("by id status: %d", rec.Code)
	}
	// Missing article → 404; no params → 400.
	rec, _ = doJSON(t, srv, "GET", "/api/assess?url=https://ghost.example/x", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("missing: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "GET", "/api/assess", nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("no params: %d", rec.Code)
	}
}

func TestAssessArbitraryDocument(t *testing.T) {
	_, _, srv := apiFixture(t)
	doc := `<html><head><title>You Won't Believe This Miracle!!!</title></head>
	<body><h1>You Won't Believe This Miracle!!!</h1>
	<p>Shocking amazing unbelievable content about the coronavirus outbreak.
	<a href="https://personal-blog.example/p">(source)</a></p></body></html>`
	rec, payload := doJSON(t, srv, "POST", "/api/assess", assessRequest{URL: "https://x.example/a", HTML: doc})
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d body=%s", rec.Code, rec.Body)
	}
	if payload["clickbait"].(float64) < 0.5 {
		t.Errorf("clickbait: %v", payload["clickbait"])
	}
	if payload["scientific_refs"].(float64) != 0 {
		t.Errorf("sci refs: %v", payload["scientific_refs"])
	}
	// Topic tagging present.
	if payload["topics"] == nil {
		t.Error("topics missing")
	}
	// Validation failures.
	rec, _ = doJSON(t, srv, "POST", "/api/assess", assessRequest{})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty html: %d", rec.Code)
	}
	req := httptest.NewRequest("POST", "/api/assess", strings.NewReader("{broken"))
	rr := httptest.NewRecorder()
	srv.ServeHTTP(rr, req)
	if rr.Code != http.StatusBadRequest {
		t.Errorf("broken json: %d", rr.Code)
	}
	rec, _ = doJSON(t, srv, "POST", "/api/assess", assessRequest{URL: "u", HTML: "   "})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("unparseable doc: %d", rec.Code)
	}
}

func TestInsightsActivity(t *testing.T) {
	_, _, srv := apiFixture(t)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/insights/activity?days=10", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d body=%s", rec.Code, rec.Body)
	}
	var resp activityResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Days != 10 || len(resp.Series) != 5 {
		t.Errorf("series: days=%d classes=%d", resp.Days, len(resp.Series))
	}
	for class, vals := range resp.Series {
		if len(vals) != 10 {
			t.Errorf("class %s: %d days", class, len(vals))
		}
	}
	// Bad start date.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/insights/activity?start=garbage", nil))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad start: %d", rec.Code)
	}
}

func TestInsightsKDEs(t *testing.T) {
	_, _, srv := apiFixture(t)
	for _, path := range []string{"/api/insights/engagement?points=64", "/api/insights/evidence?points=64"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s status: %d", path, rec.Code)
		}
		var ds []densityResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ds); err != nil {
			t.Fatal(err)
		}
		if len(ds) == 0 {
			t.Fatalf("%s: no densities", path)
		}
		for _, d := range ds {
			if len(d.X) != 64 || len(d.Y) != 64 {
				t.Errorf("%s class %s grid: %d/%d", path, d.Class, len(d.X), len(d.Y))
			}
			if d.N == 0 {
				t.Errorf("%s class %s empty sample", path, d.Class)
			}
		}
	}
}

func TestInsightsConsensus(t *testing.T) {
	_, _, srv := apiFixture(t)
	rec, payload := doJSON(t, srv, "GET", "/api/insights/consensus?raters=8&seed=3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("status: %d", rec.Code)
	}
	if payload["reduction"].(float64) <= 0 {
		t.Errorf("reduction: %v", payload["reduction"])
	}
	if int(payload["raters"].(float64)) != 8 {
		t.Errorf("raters: %v", payload["raters"])
	}
}

func TestReviewLifecycle(t *testing.T) {
	_, w, srv := apiFixture(t)
	art := w.Articles[0]
	scores := map[string]int{}
	for _, label := range []string{
		"factual-accuracy", "scientific-understanding", "logic-reasoning",
		"precision-clarity", "sources-quality", "fairness", "clickbaitness",
	} {
		scores[label] = 4
	}
	rec, payload := doJSON(t, srv, "POST", "/api/reviews", reviewRequest{
		ArticleID: art.ID, Reviewer: "dr-y", Scores: scores, Text: "solid piece",
	})
	if rec.Code != http.StatusCreated {
		t.Fatalf("submit: %d body=%s", rec.Code, rec.Body)
	}
	if payload["id"].(float64) == 0 {
		t.Error("id missing")
	}
	rec, payload = doJSON(t, srv, "GET", "/api/reviews?article_id="+art.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("list: %d", rec.Code)
	}
	if payload["overall"].(float64) != 4 {
		t.Errorf("overall: %v", payload["overall"])
	}
	texts := payload["texts"].([]any)
	if len(texts) != 1 || texts[0] != "solid piece" {
		t.Errorf("texts: %v", texts)
	}
	// The assessment now includes the expert aggregate.
	rec, payload = doJSON(t, srv, "GET", "/api/assess?id="+art.ID, nil)
	if rec.Code != http.StatusOK {
		t.Fatal("assess after review")
	}
	if payload["ExpertCount"].(float64) != 1 {
		t.Errorf("expert count: %v", payload["ExpertCount"])
	}
}

func TestReviewValidationErrors(t *testing.T) {
	_, w, srv := apiFixture(t)
	art := w.Articles[0]
	// Missing criteria.
	rec, _ := doJSON(t, srv, "POST", "/api/reviews", reviewRequest{
		ArticleID: art.ID, Reviewer: "r", Scores: map[string]int{"fairness": 3},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing criteria: %d", rec.Code)
	}
	// Unknown criterion.
	scores := map[string]int{}
	for i, label := range []string{"a", "b", "c", "d", "e", "f", "g"} {
		scores[label] = i%5 + 1
	}
	rec, _ = doJSON(t, srv, "POST", "/api/reviews", reviewRequest{
		ArticleID: art.ID, Reviewer: "r", Scores: scores,
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown criterion: %d", rec.Code)
	}
	// Out-of-range score.
	scores = map[string]int{}
	for _, label := range []string{
		"factual-accuracy", "scientific-understanding", "logic-reasoning",
		"precision-clarity", "sources-quality", "fairness", "clickbaitness",
	} {
		scores[label] = 9
	}
	rec, _ = doJSON(t, srv, "POST", "/api/reviews", reviewRequest{
		ArticleID: art.ID, Reviewer: "r", Scores: scores,
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad score: %d", rec.Code)
	}
	// Reviews of an unreviewed article 404.
	rec, _ = doJSON(t, srv, "GET", "/api/reviews?article_id=ghost", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("ghost reviews: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "GET", "/api/reviews", nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("no article_id: %d", rec.Code)
	}
}

func TestQueryInt(t *testing.T) {
	req := httptest.NewRequest("GET", "/x?n=25&bad=2x&zero=0&neg=-3&huge=99999999999999999999", nil)
	if n, err := queryInt(req, "n", 1); err != nil || n != 25 {
		t.Errorf("parse: %d %v", n, err)
	}
	// Malformed, negative and overflowing values are errors (→ 400), not
	// silent fallbacks to the default.
	if _, err := queryInt(req, "bad", 7); err == nil {
		t.Error("bad value should error")
	}
	if _, err := queryInt(req, "neg", 7); err == nil {
		t.Error("negative value should error")
	}
	if _, err := queryInt(req, "huge", 7); err == nil {
		t.Error("overflow should error")
	}
	// Explicit zero is representable now.
	if n, err := queryInt(req, "zero", 7); err != nil || n != 0 {
		t.Errorf("explicit zero: %d %v", n, err)
	}
	if n, err := queryInt(req, "missing", 3); err != nil || n != 3 {
		t.Errorf("missing default: %d %v", n, err)
	}
}

func TestConcurrentAPIRequests(t *testing.T) {
	_, w, srv := apiFixture(t)
	done := make(chan bool, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			art := w.Articles[i%len(w.Articles)]
			rec, _ := doJSON(t, srv, "GET", fmt.Sprintf("/api/assess?url=%s", art.URL), nil)
			done <- rec.Code == http.StatusOK
		}(i)
	}
	for i := 0; i < 16; i++ {
		if !<-done {
			t.Fatal("concurrent request failed")
		}
	}
}

func TestInsightsOutletQuality(t *testing.T) {
	_, w, srv := apiFixture(t)

	// No reviews yet: 404.
	rec, _ := doJSON(t, srv, "GET", "/api/insights/outlets", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("no reviews: %d", rec.Code)
	}

	// Review articles from two outlets at different quality levels.
	byOutlet := map[string][]string{}
	for _, a := range w.Articles {
		byOutlet[a.OutletID] = append(byOutlet[a.OutletID], a.ID)
	}
	reviewed := 0
	score := 5
	for _, articleIDs := range byOutlet {
		if reviewed == 2 {
			break
		}
		body := map[string]any{
			"article_id": articleIDs[0],
			"reviewer":   "expert",
			"scores": map[string]int{
				"factual-accuracy": score, "scientific-understanding": score,
				"logic-reasoning": score, "precision-clarity": score,
				"sources-quality": score, "fairness": score, "clickbaitness": score,
			},
		}
		rec, _ := doJSON(t, srv, "POST", "/api/reviews", body)
		if rec.Code != http.StatusCreated {
			t.Fatalf("submit: %d %s", rec.Code, rec.Body.String())
		}
		reviewed++
		score = 2
	}

	rec, _ = doJSON(t, srv, "GET", "/api/insights/outlets?bands=2", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("outlets: %d %s", rec.Code, rec.Body.String())
	}
	var out []struct {
		OutletID string  `json:"outlet_id"`
		Score    float64 `json:"score"`
		Reviews  int     `json:"reviews"`
		Band     int     `json:"band"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("scored outlets: %+v", out)
	}
	if out[0].Band != 0 || out[1].Band != 1 {
		t.Errorf("bands: %+v", out)
	}
	if out[0].Score <= out[1].Score {
		t.Errorf("ordering: %+v", out)
	}
}

func TestInsightsConsensusIncludesAccuracyMetrics(t *testing.T) {
	_, _, srv := apiFixture(t)
	rec, payload := doJSON(t, srv, "GET", "/api/insights/consensus?raters=6&seed=3", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("consensus: %d", rec.Code)
	}
	for _, key := range []string{"corr_with", "corr_without", "accuracy_gain", "mae_with", "mae_without"} {
		if _, ok := payload[key]; !ok {
			t.Errorf("missing %q in %v", key, payload)
		}
	}
	if payload["corr_with"].(float64) <= payload["corr_without"].(float64) {
		t.Errorf("corr should improve: %v", payload)
	}
}

func TestAssessBatch(t *testing.T) {
	_, w, srv := apiFixture(t)
	ids := []string{w.Articles[0].ID, "ghost-article", w.Articles[1].ID}
	rec := httptest.NewRecorder()
	raw, _ := json.Marshal(map[string]any{"ids": ids})
	req := httptest.NewRequest("POST", "/api/assess/batch", bytes.NewReader(raw))
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Assessments []core.Assessment `json:"assessments"`
		Missing     []string          `json:"missing"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Assessments) != 2 {
		t.Errorf("assessments: %d", len(resp.Assessments))
	}
	if len(resp.Missing) != 1 || resp.Missing[0] != "ghost-article" {
		t.Errorf("missing: %v", resp.Missing)
	}
	if resp.Assessments[0].ArticleID != w.Articles[0].ID {
		t.Errorf("order not preserved: %v", resp.Assessments[0].ArticleID)
	}
}

func TestAssessBatchValidation(t *testing.T) {
	_, _, srv := apiFixture(t)
	// Empty batch.
	rec, _ := doJSON(t, srv, "POST", "/api/assess/batch", map[string]any{"ids": []string{}})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty batch: %d", rec.Code)
	}
	// Oversized batch.
	big := make([]string, 257)
	for i := range big {
		big[i] = "x"
	}
	rec, _ = doJSON(t, srv, "POST", "/api/assess/batch", map[string]any{"ids": big})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized batch: %d", rec.Code)
	}
	// Malformed body.
	req := httptest.NewRequest("POST", "/api/assess/batch", bytes.NewReader([]byte("{broken")))
	rec2 := httptest.NewRecorder()
	srv.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("malformed body: %d", rec2.Code)
	}
}

// TestConcurrentAssessDocumentSingleflight hammers POST /api/assess with
// the same never-seen document from many goroutines: the engine's
// content-hash cache plus singleflight must give every request the same
// result, and the document must be evaluated exactly once.
func TestConcurrentAssessDocumentSingleflight(t *testing.T) {
	_, _, srv := apiFixture(t)
	doc := `<html><head><title>Fresh study examines quarantine data</title></head><body>
<p>Epidemiologists tracked coronavirus transmission across hospital wards,
citing surveillance data. <a href="https://nature.com/articles/y">(source)</a></p>
</body></html>`
	body := map[string]any{"url": "https://excellent-1.example/fresh", "html": doc}
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}

	const misses = "scilens_engine_cache_misses_total"
	before := scrape(t, srv)[misses]
	const clients = 16
	var wg sync.WaitGroup
	composites := make([]float64, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/api/assess", bytes.NewReader(raw))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Errorf("client %d: status %d", c, rec.Code)
				return
			}
			var payload struct {
				Composite float64 `json:"composite"`
			}
			if err := json.Unmarshal(rec.Body.Bytes(), &payload); err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			composites[c] = payload.Composite
		}(c)
	}
	wg.Wait()

	for c := 1; c < clients; c++ {
		if composites[c] != composites[0] {
			t.Fatalf("client %d diverged: %v vs %v", c, composites[c], composites[0])
		}
	}
	if got := scrape(t, srv)[misses] - before; got != 1 {
		t.Errorf("the document was evaluated %v times, want 1", got)
	}
}

// --- PR 2: body limits, strict parsing, batch fan-out, admin reindex ---

func TestRequestBodyLimits(t *testing.T) {
	_, w, srv := apiFixture(t)
	// Oversized control body → 413.
	big := strings.Repeat("x", maxControlBody+1024)
	rec, _ := doJSON(t, srv, "POST", "/api/assess/batch", map[string]any{"ids": []string{big}})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized batch body: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "POST", "/api/reviews", map[string]any{"article_id": big})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized review body: %d", rec.Code)
	}
	// Oversized assess body → 413 (limit is larger: a whole document fits).
	hugeDoc := strings.Repeat("y", maxAssessBody+1024)
	rec, _ = doJSON(t, srv, "POST", "/api/assess", map[string]any{"html": hugeDoc})
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized assess body: %d", rec.Code)
	}
	// A normal-sized document still works.
	rec, _ = doJSON(t, srv, "POST", "/api/assess", map[string]any{"url": w.Articles[0].URL, "html": w.Articles[0].RawHTML})
	if rec.Code != http.StatusOK {
		t.Errorf("normal assess: %d %s", rec.Code, rec.Body.String())
	}
}

func TestTrailingGarbageRejected(t *testing.T) {
	_, w, srv := apiFixture(t)
	raw, _ := json.Marshal(map[string]any{"ids": []string{w.Articles[0].ID}})
	for _, path := range []string{"/api/assess/batch"} {
		body := append(append([]byte{}, raw...), []byte(`{"second":"document"}`)...)
		req := httptest.NewRequest("POST", path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s trailing garbage: %d", path, rec.Code)
		}
	}
	// Trailing whitespace is fine.
	body := append(append([]byte{}, raw...), []byte("\n  \n")...)
	req := httptest.NewRequest("POST", "/api/assess/batch", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("trailing whitespace: %d %s", rec.Code, rec.Body.String())
	}
}

func TestAssessBatchDeduplicates(t *testing.T) {
	_, w, srv := apiFixture(t)
	a, b := w.Articles[0].ID, w.Articles[1].ID
	rec := httptest.NewRecorder()
	raw, _ := json.Marshal(map[string]any{"ids": []string{a, "ghost", b, a, "ghost", b, a}})
	req := httptest.NewRequest("POST", "/api/assess/batch", bytes.NewReader(raw))
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: %d %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Assessments []core.Assessment `json:"assessments"`
		Missing     []string          `json:"missing"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	// Duplicates collapse; first-occurrence request order is preserved.
	if len(resp.Assessments) != 2 || resp.Assessments[0].ArticleID != a || resp.Assessments[1].ArticleID != b {
		t.Errorf("assessments: %+v", resp.Assessments)
	}
	if len(resp.Missing) != 1 || resp.Missing[0] != "ghost" {
		t.Errorf("missing: %v", resp.Missing)
	}
}

func TestReviewSubmitRequiresIdentity(t *testing.T) {
	_, w, srv := apiFixture(t)
	scores := map[string]int{
		"factual-accuracy": 4, "scientific-understanding": 4,
		"logic-reasoning": 4, "precision-clarity": 4,
		"sources-quality": 4, "fairness": 4, "clickbaitness": 4,
	}
	rec, _ := doJSON(t, srv, "POST", "/api/reviews", map[string]any{
		"article_id": "", "reviewer": "expert", "scores": scores,
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty article_id: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "POST", "/api/reviews", map[string]any{
		"article_id": w.Articles[0].ID, "reviewer": "", "scores": scores,
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty reviewer: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "POST", "/api/reviews", map[string]any{
		"article_id": w.Articles[0].ID, "reviewer": "expert", "scores": scores,
	})
	if rec.Code != http.StatusCreated {
		t.Errorf("valid review: %d %s", rec.Code, rec.Body.String())
	}
}

func TestBadQueryParamsReturn400(t *testing.T) {
	_, _, srv := apiFixture(t)
	for _, path := range []string{
		"/api/insights/activity?days=banana",
		"/api/insights/activity?days=-1",
		"/api/insights/engagement?points=1e3",
		"/api/insights/consensus?raters=12.5",
		"/api/insights/outlets?bands=99999999999999999999",
	} {
		rec, _ := doJSON(t, srv, "GET", path, nil)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d", path, rec.Code)
		}
	}
	// Explicit zeros are representable: the jobs fall back to their own
	// defaults (raters=0 → 12, points=0 → 128) or report no data.
	rec, _ := doJSON(t, srv, "GET", "/api/insights/consensus?raters=0", nil)
	if rec.Code != http.StatusOK {
		t.Errorf("raters=0: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "GET", "/api/insights/activity?days=0", nil)
	if rec.Code != http.StatusNotFound {
		t.Errorf("days=0 (empty window): %d", rec.Code)
	}
}

func TestAdminReindexEndpoint(t *testing.T) {
	p, w, srv := apiFixture(t)
	pool := p.Compute
	if _, err := p.TrainClickbaitModel(pool, 9); err != nil {
		t.Fatal(err)
	}
	rec, payload := doJSON(t, srv, "POST", "/api/reindex", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("reindex: %d %s", rec.Code, rec.Body.String())
	}
	if int(payload["articles"].(float64)) != len(w.Articles) {
		t.Errorf("articles: %v", payload["articles"])
	}
	if payload["changed"].(float64) == 0 {
		t.Errorf("expected changed rows after retrain: %v", payload)
	}
	if payload["rows_per_sec"].(float64) <= 0 {
		t.Errorf("rows_per_sec: %v", payload["rows_per_sec"])
	}
	// After the reindex a stored assessment matches a fresh evaluation.
	a := w.Articles[0]
	fresh, err := p.Engine.Evaluate(a.RawHTML, a.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	assessment, err := p.AssessID(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if assessment.Clickbait != fresh.Content.Clickbait {
		t.Error("stored assessment still stale after POST /api/reindex")
	}
	// Workers override: explicit parallelism, same outcome (idempotent now).
	rec, payload = doJSON(t, srv, "POST", "/api/reindex", map[string]any{"workers": 2})
	if rec.Code != http.StatusOK || payload["changed"].(float64) != 0 {
		t.Errorf("second reindex: %d %v", rec.Code, payload)
	}
	// A huge worker count is a bound, not an allocation: each job runs on
	// at most as many goroutines as it has elements.
	rec, payload = doJSON(t, srv, "POST", "/api/reindex", map[string]any{"workers": 1 << 40, "force": true})
	if rec.Code != http.StatusOK || int(payload["articles"].(float64)) != len(w.Articles) {
		t.Errorf("reindex with 2^40 workers: %d %v", rec.Code, payload)
	}
	// Invalid workers → 400; GET → 404/405 (not mounted).
	rec, _ = doJSON(t, srv, "POST", "/api/reindex", map[string]any{"workers": -1})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("negative workers: %d", rec.Code)
	}
}

// TestReindexConcurrentWithAssessTraffic drives POST /api/assess and GET
// /api/assess while POST /api/reindex runs — the ISSUE's -race scenario at
// the HTTP layer.
func TestReindexConcurrentWithAssessTraffic(t *testing.T) {
	p, w, srv := apiFixture(t)
	if _, err := p.TrainClickbaitModel(p.Compute, 11); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g
			for {
				select {
				case <-stop:
					return
				default:
				}
				a := w.Articles[i%len(w.Articles)]
				rec, _ := doJSON(t, srv, "GET", "/api/assess?id="+a.ID, nil)
				if rec.Code != http.StatusOK {
					t.Errorf("GET assess: %d", rec.Code)
					return
				}
				rec, _ = doJSON(t, srv, "POST", "/api/assess", map[string]any{"url": a.URL, "html": a.RawHTML})
				if rec.Code != http.StatusOK {
					t.Errorf("POST assess: %d", rec.Code)
					return
				}
				i++
			}
		}(g)
	}
	rec, _ := doJSON(t, srv, "POST", "/api/reindex", nil)
	close(stop)
	wg.Wait()
	if rec.Code != http.StatusOK {
		t.Fatalf("reindex under load: %d %s", rec.Code, rec.Body.String())
	}
}

// TestReindexEmptyChunkedBody: an empty body with unknown length
// (ContentLength -1, as with Transfer-Encoding: chunked) still gets the
// default run rather than a 400.
func TestReindexEmptyChunkedBody(t *testing.T) {
	_, _, srv := apiFixture(t)
	// A plain io.Reader (not bytes/strings.Reader) makes httptest leave
	// ContentLength at -1.
	req := httptest.NewRequest("POST", "/api/reindex", struct{ io.Reader }{strings.NewReader("")})
	if req.ContentLength != -1 {
		t.Fatalf("fixture: ContentLength = %d, want -1", req.ContentLength)
	}
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("empty chunked body: %d %s", rec.Code, rec.Body.String())
	}
}
