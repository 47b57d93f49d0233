package layers

import (
	"testing"

	scilens "repro"
	"repro/internal/indicators"
	"repro/internal/synth"
)

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := &Trace{OverheadNs: 10}
	// Request 0: a 1000ns handler over a 400ns core call over two reads.
	tr.Spans = []Span{
		{Name: "rdbms.view_eq", Start: 0, End: 110, Parent: 2, Request: 0},
		{Name: "rdbms.view", Start: 200, End: 260, Parent: 2, Request: 0},
		{Name: "core.assess_url", Start: 300, End: 710, Parent: 3, Request: 0},
		{Name: "api.serve", Start: 800, End: 1810, Parent: -1, Request: 0},
		{Name: "indicators.evaluate_warm", Start: 2000, End: 2005, Parent: -1, Request: 0},
	}
	total, self := tr.Durations()
	check := func(m map[string][]float64, name string, want float64) {
		t.Helper()
		if got := m[name]; len(got) != 1 || got[0] != want {
			t.Errorf("%s = %v, want [%v]", name, got, want)
		}
	}
	check(total, "api.serve", 1.0)
	check(self, "api.serve", 0.6)
	check(total, "core.assess_url", 0.4)
	check(self, "core.assess_url", 0.25)
	check(self, "rdbms.view_eq", 0.1)
	check(self, "rdbms.view", 0.05)
	// A span shorter than the calibrated overhead reads zero, not negative.
	check(total, "indicators.evaluate_warm", 0)
	var sum float64
	for name, xs := range self {
		if tr.Under("api.serve", name) {
			sum += xs[0]
		}
	}
	if sum != total["api.serve"][0] {
		t.Errorf("self times under the handler sum to %v, handler took %v", sum, total["api.serve"][0])
	}
	if tr.Under("api.serve", "indicators.evaluate_warm") || !tr.Under("api.serve", "rdbms.view") {
		t.Error("Under misplaces spans")
	}
}

// TestLadderRunsEveryLayer replays a handful of inputs through all three
// ladders on a two-day world and checks that each layer left its spans.
func TestLadderRunsEveryLayer(t *testing.T) {
	dir := t.TempDir()
	p, world, err := scilens.Bootstrap(scilens.BootstrapConfig{
		Seed: 2, Days: 2, RateScale: 0.3, ReactionScale: 0.3,
		Platform: scilens.Config{DataDir: dir, WALFsyncPolicy: "interval"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := p.Close(); err != nil {
			t.Error(err)
		}
	}()
	handler := scilens.NewHTTPServer(p)
	tr := NewTrace("test")

	var urls []string
	for _, a := range world.Articles[:10] {
		urls = append(urls, a.URL)
	}
	if err := tr.Reads(p, handler, urls); err != nil {
		t.Fatal(err)
	}

	fresh := synth.GenerateWorld(synth.Config{Seed: 3, Days: 2, RateScale: 0.3, ReactionScale: 0.3})
	var docs []Doc
	for _, a := range fresh.Articles[:10] {
		docs = append(docs, Doc{URL: a.URL + "/again", HTML: a.RawHTML})
	}
	engine := indicators.NewEngine(indicators.Config{Registry: p.Registry})
	if err := tr.Evaluations(p, handler, engine, docs); err != nil {
		t.Fatal(err)
	}

	events := fresh.Events()
	for i := range events {
		events[i].PostID = "x-" + events[i].PostID
		events[i].ArticleURL += "/x"
		if events[i].ArticleID != "" {
			events[i].ArticleID = "x-" + events[i].ArticleID
		}
	}
	if err := tr.Ingest(p, events[:min(400, len(events))]); err != nil {
		t.Fatal(err)
	}

	total, _ := tr.Durations()
	for _, name := range []string{
		"rdbms.view_eq", "rdbms.view", "core.assess_url", "api.serve",
		"extract.parse", "textutil.analysis", "readability.score", "contentind.analyze",
		"refind.analyze", "topics.tag", "indicators.evaluate_cold", "indicators.evaluate_warm",
		"core.ingest_event", "core.stream_event", "stream.enqueue", "rdbms.insert", "rdbms.mutate",
	} {
		if len(total[name]) == 0 {
			t.Errorf("no %s spans", name)
		}
	}
	if got := len(total["api.serve"]); got != 20 {
		t.Errorf("%d handler spans, want 20 (10 reads, 10 evaluations)", got)
	}
	if st := p.StreamStats(); st.DeadLettered != 0 {
		t.Errorf("ladder ingest dead-lettered %d events", st.DeadLettered)
	}
}
