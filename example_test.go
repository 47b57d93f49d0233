// Runnable godoc examples: evaluating one article, the HTTP surface, the
// paper's COVID-19 insights, the daily maintenance cycle and the durable
// platform lifecycle. go test executes these, so the documented snippets
// cannot rot.
package scilens_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	scilens "repro"
)

// clickbaitDoc and soberDoc are arbitrary news documents a user wants to
// evaluate (§4.1: the platform assesses "any arbitrary news article").
const clickbaitDoc = `<html>
<head><title>You Won't Believe What This Common Vitamin Does To Your Brain!</title></head>
<body>
<p>Scientists are stunned by a so-called miracle cure that allegedly
transforms memory overnight. Everyone is talking about this shocking trick,
and honestly it is unbelievable.</p>
<p>A post circulating online claims the effect was proven, but the original
write-up links to no study at all.</p>
</body>
</html>`

const soberDoc = `<html>
<head><title>Trial finds modest memory improvement from vitamin D supplementation</title></head>
<body>
<span class="byline">By Alex Chen</span>
<p>A randomised controlled trial of 412 adults found a modest improvement in
recall tests after twelve months of vitamin D supplementation, researchers
reported. The effect size was small and the authors caution that replication
is needed.</p>
<p>The study appears in <a href="https://www.nature.com/articles/vitd-memory">a
peer-reviewed journal</a>; an independent summary is available from
<a href="https://www.nih.gov/news/vitd-trial">the NIH</a>.</p>
</body>
</html>`

// ExampleEngine_Evaluate evaluates two news articles end to end — the
// single-article assessment of paper §4.1 — with one standalone engine,
// reused across evaluations; each call parses and evaluates its document.
func ExampleEngine_Evaluate() {
	engine := scilens.NewEngine(scilens.EngineConfig{})
	for _, d := range []struct{ name, html, url string }{
		{"clickbait post", clickbaitDoc, "https://viral.example/miracle-cure"},
		{"sober reporting", soberDoc, "https://newsroom.example/vitd-trial"},
	} {
		report, err := engine.Evaluate(d.html, d.url, nil)
		if err != nil {
			panic(err)
		}
		fmt.Printf("── %s ──\n", d.name)
		fmt.Printf("title:            %s\n", report.Article.Title)
		fmt.Printf("clickbait:        %.2f\n", report.Content.Clickbait)
		fmt.Printf("subjectivity:     %.2f\n", report.Content.Subjectivity)
		fmt.Printf("reading grade:    %.1f\n", report.Content.ReadingGrade)
		fmt.Printf("byline:           %v\n", report.Content.HasByline)
		fmt.Printf("references:       %d internal, %d external, %d scientific\n",
			report.Context.InternalCount, report.Context.ExternalCount,
			report.Context.ScientificCount)
		fmt.Printf("source strength:  %.2f\n", report.Context.SourceStrength)
		fmt.Printf("composite score:  %.2f  (0 = lowest quality, 1 = highest)\n", report.Composite)
	}
	// Output:
	// ── clickbait post ──
	// title:            You Won't Believe What This Common Vitamin Does To Your Brain!
	// clickbait:        0.92
	// subjectivity:     1.00
	// reading grade:    13.2
	// byline:           false
	// references:       0 internal, 0 external, 0 scientific
	// source strength:  0.00
	// composite score:  0.03  (0 = lowest quality, 1 = highest)
	// ── sober reporting ──
	// title:            Trial finds modest memory improvement from vitamin D supplementation
	// clickbait:        0.00
	// subjectivity:     0.00
	// reading grade:    14.1
	// byline:           true
	// references:       0 internal, 0 external, 2 scientific
	// source strength:  0.50
	// composite score:  0.83  (0 = lowest quality, 1 = highest)
}

// ExampleNewHTTPServer serves the Indicators API (paper §3.3) and queries
// it the way the demo web application does: health, a stored-article
// assessment, a real-time evaluation of an arbitrary document, an
// expert-review round trip and the consensus insight.
func ExampleNewHTTPServer() {
	platform, world, err := scilens.Bootstrap(scilens.BootstrapConfig{
		Seed: 9, Days: 12, RateScale: 0.3, ReactionScale: 0.2,
	})
	if err != nil {
		panic(err)
	}
	defer platform.Close()
	server := httptest.NewServer(scilens.NewHTTPServer(platform))
	defer server.Close()

	decode := func(resp *http.Response, err error) map[string]any {
		if err != nil {
			panic(err)
		}
		defer resp.Body.Close()
		var v map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			panic(fmt.Sprintf("%s %s: %v", resp.Request.Method, resp.Request.URL.Path, err))
		}
		return v
	}
	get := func(path string) map[string]any { return decode(http.Get(server.URL + path)) }
	post := func(path string, body any) map[string]any {
		payload, err := json.Marshal(body)
		if err != nil {
			panic(err)
		}
		return decode(http.Post(server.URL+path, "application/json", bytes.NewReader(payload)))
	}

	// 1. Health: the ingestion counters.
	health := get("/api/health")
	fmt.Printf("health: status=%v postings=%v reactions=%v\n",
		health["status"], health["postings"], health["reactions"])

	// 2. Stored-article assessment (Figure 3).
	article := world.Articles[0]
	assessment := get("/api/assess?id=" + article.ID)
	fmt.Printf("stored assessment for %s (%q)\n", article.ID, assessment["Title"])
	fmt.Printf("  clickbait=%.2f sci-refs=%v reactions=%v composite=%.2f\n",
		assessment["Clickbait"], assessment["SciRefs"],
		assessment["Reactions"], assessment["Composite"])

	// 3. Real-time evaluation of an arbitrary document (§4.1).
	doc := `<html><head><title>New study maps virus spread</title></head><body>
<span class="byline">By Sam Ortiz</span>
<p>Researchers published transmission estimates based on contact-tracing
data, with methods detailed in <a href="https://www.science.org/doi/virus-spread">the paper</a>.</p>
</body></html>`
	evaluated := post("/api/assess", map[string]string{"html": doc, "url": "https://example.org/spread"})
	fmt.Printf("real-time evaluation: title=%q scientific_refs=%v composite=%.2f\n",
		evaluated["title"], evaluated["scientific_refs"], evaluated["composite"])

	// 4. Expert review round trip (§3.2).
	created := post("/api/reviews", map[string]any{
		"article_id": article.ID,
		"reviewer":   "dr-demo",
		"scores": map[string]int{
			"factual-accuracy": 4, "scientific-understanding": 4,
			"logic-reasoning": 4, "precision-clarity": 5,
			"sources-quality": 4, "fairness": 5, "clickbaitness": 4,
		},
		"text": "Reviewed via the API example.",
	})
	fmt.Printf("review submitted: id=%v\n", created["id"])
	reviewAgg := get("/api/reviews?article_id=" + article.ID)
	fmt.Printf("review aggregate: overall=%.2f count=%v\n", reviewAgg["overall"], reviewAgg["count"])

	// 5. Topic insight: claim C2's consensus experiment.
	consensus := get("/api/insights/consensus?raters=12")
	fmt.Printf("consensus insight: disagreement %.3f → %.3f over %v articles\n",
		consensus["disagreement_without"], consensus["disagreement_with"], consensus["articles"])
	// Output:
	// health: status=ok postings=786 reactions=4696
	// stored assessment for art-000004 ("Experts weigh evidence on a major data breach")
	//   clickbait=0.00 sci-refs=1 reactions=3 composite=0.81
	// real-time evaluation: title="New study maps virus spread" scientific_refs=1 composite=0.75
	// review submitted: id=1
	// review aggregate: overall=4.29 count=1
	// consensus insight: disagreement 0.727 → 0.291 over 786 articles
}

// ExamplePlatform_Figure4 reproduces the news-topic insight workflow of
// paper §4.2 on the synthetic COVID-19 segment over the 60-day demo
// window: per rating class, newsroom activity (Figure 4), social
// engagement and evidence seeking (Figure 5). The reduced posting rate
// keeps it fast while preserving the class structure; raise RateScale
// toward 1 to approach the paper's corpus size.
func ExamplePlatform_Figure4() {
	platform, world, err := scilens.Bootstrap(scilens.BootstrapConfig{
		Seed: 42, Days: scilens.WindowDays, RateScale: 0.3, ReactionScale: 0.3,
	})
	if err != nil {
		panic(err)
	}
	defer platform.Close()
	fmt.Printf("ingested %d articles from %d days of the synthetic COVID-19 segment\n\n",
		len(world.Articles), world.Days)

	// Newsroom activity (Figure 4): how much of each outlet's daily
	// output the topic consumes, averaged per rating class.
	series, err := platform.Figure4(world.Start, world.Days)
	if err != nil {
		panic(err)
	}
	fmt.Println("newsroom activity — mean % of daily posts on COVID-19 (7-day smoothed)")
	fmt.Printf("%-10s  %12s  %12s  %12s\n", "class", "days 0-20", "days 20-40", "days 40-60")
	for c := scilens.Excellent; c <= scilens.VeryPoor; c++ {
		fmt.Printf("%-10s  %12.1f  %12.1f  %12.1f\n", c,
			series.MeanOver(c, 0, 20), series.MeanOver(c, 20, 40), series.MeanOver(c, 40, 60))
	}
	fmt.Println()

	// Social engagement (Figure 5 left): reactions per article.
	engagement, err := platform.Figure5Engagement(64)
	if err != nil {
		panic(err)
	}
	fmt.Println("social engagement — reactions per article (log10 scale)")
	fmt.Printf("%-10s  %8s  %8s  %8s\n", "class", "median", "p90", "spread")
	for _, d := range engagement {
		fmt.Printf("%-10s  %8.2f  %8.2f  %8.2f\n", d.Class, d.P50, d.P90, d.Spread())
	}
	fmt.Println()

	// Evidence seeking (Figure 5 right): the scientific share of the
	// references each article carries.
	evidence, err := platform.Figure5Evidence(64)
	if err != nil {
		panic(err)
	}
	fmt.Println("evidence seeking — scientific-reference ratio")
	fmt.Printf("%-10s  %8s  %8s\n", "class", "mean", "median")
	for _, d := range evidence {
		fmt.Printf("%-10s  %8.2f  %8.2f\n", d.Class, d.Mean, d.P50)
	}
	// Output:
	// ingested 3761 articles from 60 days of the synthetic COVID-19 segment
	//
	// newsroom activity — mean % of daily posts on COVID-19 (7-day smoothed)
	// class          days 0-20    days 20-40    days 40-60
	// excellent            4.9          11.2          21.8
	// good                 6.4           9.4          17.5
	// mixed                2.8          14.9          28.9
	// poor                 4.7          23.7          35.9
	// very-poor           10.0          37.0          47.7
	//
	// social engagement — reactions per article (log10 scale)
	// class         median       p90    spread
	// excellent       0.70      0.95      0.48
	// good            0.70      1.08      0.60
	// mixed           0.85      1.23      0.75
	// poor            0.90      1.43      0.95
	// very-poor       0.90      1.57      1.09
	//
	// evidence seeking — scientific-reference ratio
	// class           mean    median
	// excellent       0.47      0.50
	// good            0.34      0.33
	// mixed           0.17      0.00
	// poor            0.09      0.00
	// very-poor       0.03      0.00
}

// ExamplePlatform_RunDaily walks the platform's §3.3 back-office day: the
// streaming path fills the hot store, then the nightly cycle migrates it
// to the warehouse, trains the clickbait, stance and topic models over
// the warehoused history on the compute pool and re-indexes the corpus
// under the new models. The warehouse day replays for ad-hoc queries on
// historical data without touching the real-time store.
func ExamplePlatform_RunDaily() {
	platform, world, err := scilens.Bootstrap(scilens.BootstrapConfig{
		Seed: 17, Days: 15, RateScale: 0.4, ReactionScale: 0.3,
	})
	if err != nil {
		panic(err)
	}
	defer platform.Close()
	stats := platform.Stats()
	fmt.Printf("ingested: %d postings, %d reactions\n", stats.Postings, stats.Reactions)

	// Workers < 1 sizes the pool to GOMAXPROCS; the report does not
	// depend on the width.
	pool := scilens.NewComputePool(0)
	date := world.Start.AddDate(0, 0, world.Days)
	daily, err := platform.RunDaily(pool, date)
	if err != nil {
		panic(err)
	}
	fmt.Println("daily cycle:")
	fmt.Printf("  warehouse rows:  %d\n", daily.MigratedRows)
	fmt.Printf("  clickbait model: %d weak labels (train acc %.2f)\n",
		daily.Clickbait.Examples, daily.Clickbait.TrainAccuracy)
	fmt.Printf("  stance model:    %d replies (train acc %.2f)\n",
		daily.Stance.Examples, daily.Stance.TrainAccuracy)
	fmt.Printf("  topic model:     %d nodes / %d leaves over %d documents\n",
		daily.Topics.Nodes, daily.Topics.Leaves, daily.Topics.Documents)
	fmt.Printf("  re-indexed:      %d articles\n", daily.Reindex.Articles)

	_, replayed, err := platform.ReplayWarehouse(date)
	if err != nil {
		panic(err)
	}
	fmt.Printf("warehouse replay: %d rows\n", replayed)
	tags := daily.Topics.Tagger.Tag("New coronavirus vaccine trial reports strong antibody response")
	for _, a := range tags[:min(len(tags), 3)] {
		fmt.Printf("  %-24s p=%.2f (depth %d)\n", a.Label, a.Prob, a.Depth)
	}
	// Output:
	// ingested: 1268 postings, 13281 reactions
	// daily cycle:
	//   warehouse rows:  5841
	//   clickbait model: 1260 weak labels (train acc 1.00)
	//   stance model:    3305 replies (train acc 1.00)
	//   topic model:     15 nodes / 8 leaves over 1268 documents
	//   re-indexed:      1268 articles
	// warehouse replay: 5841 rows
	//   report+guidanc+issu      p=0.66 (depth 1)
	//   report+guidanc+issu      p=0.51 (depth 2)
	//   report+guidanc+issu      p=0.37 (depth 3)
}

// ExamplePlatform_Checkpoint demonstrates the operator loop of a durable
// platform: assemble with Config.DataDir, persist online with Checkpoint
// (incremental: only partitions dirtied since the last checkpoint are
// re-serialised), observe it in StorageStats, and shut down with Close
// (drains the pipeline, writes a final checkpoint, releases the store).
func ExamplePlatform_Checkpoint() {
	dir, err := os.MkdirTemp("", "scilens-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	platform, err := scilens.New(scilens.Config{
		DataDir:        dir,
		WALFsyncPolicy: "interval:25ms", // bound the power-loss window
	})
	if err != nil {
		panic(err)
	}

	st, err := platform.Checkpoint() // first checkpoint: a full base
	if err != nil {
		panic(err)
	}
	fmt.Printf("checkpoint: tables=%d full=%v\n", st.Tables, st.Full)

	ss := platform.StorageStats()
	fmt.Printf("storage: durable=%v generation=%d fsync=%s\n",
		ss.Durable, ss.SnapshotGeneration, ss.WALFsyncPolicy)

	if err := platform.Close(); err != nil {
		panic(err)
	}
	// Output:
	// checkpoint: tables=6 full=true
	// storage: durable=true generation=1 fsync=interval
}

// ExamplePlatform_SubmitReview shows that expert reviews (paper §3.2) are
// stored like every other row: three experts review one article on a
// durable platform, the platform closes, and the reopened platform serves
// the same weighted, time-sensitive aggregate — newer reviews weigh more
// (30-day half-life) and the free-text reviews come newest first.
func ExamplePlatform_SubmitReview() {
	dir, err := os.MkdirTemp("", "scilens-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	now := time.Date(2020, 3, 31, 0, 0, 0, 0, time.UTC)
	cfg := scilens.Config{DataDir: dir, Clock: func() time.Time { return now }}

	platform, err := scilens.New(cfg)
	if err != nil {
		panic(err)
	}
	for _, r := range []struct {
		reviewer string
		age      time.Duration
		scores   [scilens.NumCriteria]int
		text     string
	}{
		{"dr-epidemiology", 45 * 24 * time.Hour, [...]int{4, 4, 4, 3, 4, 4, 4}, "Solid sourcing, imprecise on mechanisms."},
		{"dr-virology", 10 * 24 * time.Hour, [...]int{5, 4, 5, 4, 5, 4, 5}, "Accurately reflects the preprint it cites."},
		{"science-desk", 24 * time.Hour, [...]int{4, 5, 4, 4, 5, 5, 4}, ""},
	} {
		review := scilens.Review{
			ArticleID: "art-000001", Reviewer: r.reviewer,
			Scores: r.scores, Text: r.text, Time: now.Add(-r.age),
		}
		if _, err := platform.SubmitReview(review); err != nil {
			panic(err)
		}
	}
	if err := platform.Close(); err != nil {
		panic(err)
	}

	reopened, err := scilens.New(cfg)
	if err != nil {
		panic(err)
	}
	defer reopened.Close()
	agg, err := reopened.ReviewAggregate("art-000001")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d reviews, overall %.2f / 5\n", agg.Count, agg.Overall)
	for c := scilens.Criterion(0); c < scilens.NumCriteria; c++ {
		fmt.Printf("  %-25s %.2f\n", c, agg.PerCriterion[c])
	}
	for _, text := range agg.Texts {
		fmt.Printf("  %q\n", text)
	}
	// Output:
	// 3 reviews, overall 4.39 / 5
	//   factual-accuracy          4.37
	//   scientific-understanding  4.46
	//   logic-reasoning           4.37
	//   precision-clarity         3.83
	//   sources-quality           4.83
	//   fairness                  4.46
	//   clickbaitness             4.37
	//   "Accurately reflects the preprint it cites."
	//   "Solid sourcing, imprecise on mechanisms."
}
