package api

import (
	"bufio"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rdbms"
	"repro/internal/synth"
)

// streamFixture builds an empty platform (no pre-ingested world).
func streamFixture(t *testing.T, cfg core.Config) (*core.Platform, *Server) {
	t.Helper()
	if cfg.Clock == nil {
		cfg.Clock = func() time.Time { return synth.WindowStart.AddDate(0, 0, 10) }
	}
	p, err := core.NewPlatform(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	return p, NewServer(p)
}

// worldEvents flattens a small world into its firehose events.
func worldEvents(seed int64) []synth.Event {
	w := synth.GenerateWorld(synth.Config{Seed: seed, Days: 4, RateScale: 0.2, ReactionScale: 0.2})
	return w.Events()
}

// firstPosting returns the first posting of worldEvents(seed).
func firstPosting(seed int64) synth.Event {
	for _, ev := range worldEvents(seed) {
		if ev.Type == synth.EventTypePosting {
			return ev
		}
	}
	panic("world without postings")
}

// oneArticleBurst returns posting followed by n-1 likes of it. Every
// event shards by the one article URL, so with the pipeline paused the
// first events fill that shard's steady lane and the rest shed.
func oneArticleBurst(posting synth.Event, n int) []synth.Event {
	events := []synth.Event{posting}
	for i := 1; i < n; i++ {
		events = append(events, synth.Event{
			Type: synth.EventTypeReaction, PostID: fmt.Sprintf("like-%d", i), ParentID: posting.PostID,
			Kind: "like", UserID: "u", ArticleURL: posting.ArticleURL, Time: posting.Time,
		})
	}
	return events
}

// laneSlots is one shard lane's queue bound.
func laneSlots(p *core.Platform) int { return p.Pipeline.Capacity() / p.Pipeline.Shards() }

func TestBulkIngestEndpoint(t *testing.T) {
	p, srv := streamFixture(t, core.Config{})
	events := worldEvents(41)
	rec, payload := doJSON(t, srv, "POST", "/api/ingest", map[string]any{"events": events})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("status: %d (%s)", rec.Code, rec.Body.String())
	}
	if int(payload["accepted"].(float64)) != len(events) {
		t.Errorf("accepted: %v of %d", payload["accepted"], len(events))
	}
	p.Pipeline.Flush()
	postings := 0
	for _, ev := range events {
		if ev.Type == synth.EventTypePosting {
			postings++
		}
	}
	if got := p.Stats().Postings; got != postings {
		t.Errorf("stored postings: %d want %d", got, postings)
	}
	if dls := p.DeadLetters(); len(dls) != 0 {
		t.Errorf("dead letters on clean ingest: %d (%+v)", len(dls), dls[0])
	}

	// Validation paths.
	rec, _ = doJSON(t, srv, "POST", "/api/ingest", map[string]any{"events": []synth.Event{}})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty events: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "POST", "/api/ingest", map[string]any{
		"events": []synth.Event{{Type: "posting"}},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("missing article_url: %d", rec.Code)
	}
	rec, _ = doJSON(t, srv, "POST", "/api/ingest", map[string]any{
		"events": events[:1], "mode": "bogus",
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad mode: %d", rec.Code)
	}
}

func TestBulkIngestShedModeAnswers429(t *testing.T) {
	// One article's events on paused workers make the 429 path
	// deterministic: they fill its shard's lane, and the next one sheds.
	p, srv := streamFixture(t, core.Config{})
	p.Pipeline.Pause()
	lane := laneSlots(p)
	events := oneArticleBurst(firstPosting(42), lane+3)
	rec, payload := doJSON(t, srv, "POST", "/api/ingest", map[string]any{
		"events": events, "mode": "shed",
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status: %d (%s)", rec.Code, rec.Body.String())
	}
	accepted := int(payload["accepted"].(float64))
	dropped := int(payload["dropped"].(float64))
	if accepted != lane || dropped != 3 {
		t.Errorf("split: accepted=%d dropped=%d, want %d and 3", accepted, dropped, lane)
	}
	if p.StreamStats().Shed == 0 {
		t.Errorf("shed counter: %+v", p.StreamStats())
	}
	p.Pipeline.Resume()
	p.Pipeline.Flush()
}

func TestHealthReportsQueueDepth(t *testing.T) {
	p, srv := streamFixture(t, core.Config{})
	p.Pipeline.Pause()
	events := worldEvents(43)[:8]
	rec, _ := doJSON(t, srv, "POST", "/api/ingest", map[string]any{"events": events})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: %d", rec.Code)
	}
	rec, payload := doJSON(t, srv, "GET", "/api/health", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("health: %d", rec.Code)
	}
	if int(payload["queue_depth"].(float64)) != len(events) {
		t.Errorf("queue_depth: %v want %d", payload["queue_depth"], len(events))
	}
	p.Pipeline.Resume()
	p.Pipeline.Flush()
	_, payload = doJSON(t, srv, "GET", "/api/health", nil)
	if int(payload["queue_depth"].(float64)) != 0 {
		t.Errorf("queue_depth after flush: %v", payload["queue_depth"])
	}
}

func TestStatsEndpointReportsPipelineCounters(t *testing.T) {
	p, srv := streamFixture(t, core.Config{})
	events := worldEvents(44)
	rec, _ := doJSON(t, srv, "POST", "/api/ingest", map[string]any{"events": events})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: %d", rec.Code)
	}
	p.Pipeline.Flush()
	rec, payload := doJSON(t, srv, "GET", "/api/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	pipeline, ok := payload["pipeline"].(map[string]any)
	if !ok {
		t.Fatalf("no pipeline block: %v", payload)
	}
	if int(pipeline["enqueued"].(float64)) != len(events) {
		t.Errorf("enqueued: %v want %d", pipeline["enqueued"], len(events))
	}
	if int(pipeline["committed"].(float64)) != len(events) {
		t.Errorf("committed: %v want %d", pipeline["committed"], len(events))
	}
	postings := 0
	for _, ev := range events {
		if ev.Type == synth.EventTypePosting {
			postings++
		}
	}
	if int(pipeline["evaluated"].(float64)) != postings {
		t.Errorf("evaluated: %v want %d", pipeline["evaluated"], postings)
	}
	if int(payload["postings"].(float64)) != postings {
		t.Errorf("postings: %v want %d", payload["postings"], postings)
	}
}

func TestReplayEndpointRoundTrip(t *testing.T) {
	p, srv := streamFixture(t, core.Config{})
	w := synth.GenerateWorld(synth.Config{Seed: 45, Days: 4, RateScale: 0.2, ReactionScale: 0.3})
	events := w.Events()
	// Split the firehose: reactions first (they orphan and dead-letter
	// because no posting is stored yet), postings later.
	var postings, reactions []synth.Event
	for _, ev := range events {
		if ev.Type == synth.EventTypePosting {
			postings = append(postings, ev)
		} else {
			reactions = append(reactions, ev)
		}
	}
	if len(reactions) == 0 {
		t.Fatal("fixture world has no reactions")
	}
	rec, _ := doJSON(t, srv, "POST", "/api/ingest", map[string]any{"events": reactions})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest reactions: %d", rec.Code)
	}
	p.Pipeline.Flush()
	if got := len(p.DeadLetters()); got != len(reactions) {
		t.Fatalf("dead letters: %d want %d", got, len(reactions))
	}
	// Now land the postings and replay the dead letters.
	rec, _ = doJSON(t, srv, "POST", "/api/ingest", map[string]any{"events": postings})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest postings: %d", rec.Code)
	}
	p.Pipeline.Flush()
	rec, payload := doJSON(t, srv, "POST", "/api/ingest/replay", map[string]any{"wait": true})
	if rec.Code != http.StatusOK {
		t.Fatalf("replay: %d (%s)", rec.Code, rec.Body.String())
	}
	if int(payload["replayed"].(float64)) != len(reactions) {
		t.Errorf("replayed: %v want %d", payload["replayed"], len(reactions))
	}
	if got := len(p.DeadLetters()); got != 0 {
		t.Errorf("dead letters after replay: %d", got)
	}
	if got := p.Stats().Reactions; got != len(reactions) {
		t.Errorf("reactions committed after replay: %d want %d", got, len(reactions))
	}
}

// TestStreamingConcurrentWithReindexAndAssess races the streaming
// pipeline against corpus re-indexing and real-time assessment traffic —
// the production mix the subsystem must survive. Run under -race (CI
// does). Re-streaming the already-ingested world exercises the same rows
// the reindexer rewrites; the delta-reconciled social aggregates must not
// lose a single reaction.
func TestStreamingConcurrentWithReindexAndAssess(t *testing.T) {
	p, w, srv := apiFixture(t)
	t.Cleanup(func() { _ = p.Close() })
	events := w.Events()
	wantReactions := 0
	for _, c := range w.Cascades {
		wantReactions += len(c) - 1
	}

	done := make(chan struct{})
	errs := make(chan error, 3)
	go func() { // streamer: re-deliver the whole firehose
		defer func() { done <- struct{}{} }()
		for i := range events {
			if err := p.StreamEvent(&events[i], true); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // reindexer: rewrite stored assessments while ingest runs
		defer func() { done <- struct{}{} }()
		for i := 0; i < 3; i++ {
			if _, err := p.ReindexCorpus(p.Compute); err != nil {
				errs <- err
				return
			}
		}
	}()
	go func() { // assessor: POST /api/assess + stored lookups
		defer func() { done <- struct{}{} }()
		for i := 0; i < 40; i++ {
			art := w.Articles[i%len(w.Articles)]
			rec, _ := doJSON(t, srv, "POST", "/api/assess", map[string]any{
				"url": art.URL, "html": art.RawHTML,
			})
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("assess: %d (%s)", rec.Code, rec.Body.String())
				return
			}
			rec, _ = doJSON(t, srv, "GET", "/api/assess?id="+art.ID, nil)
			if rec.Code != http.StatusOK {
				errs <- fmt.Errorf("stored assess: %d", rec.Code)
				return
			}
		}
	}()
	for i := 0; i < 3; i++ {
		<-done
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	p.Pipeline.Flush()
	if dls := p.DeadLetters(); len(dls) != 0 {
		t.Fatalf("dead letters under concurrency: %d (%s)", len(dls), dls[0].Reason)
	}
	// Every reaction commits exactly once per delivery: initial ingest +
	// re-stream = 2× commits.
	if got := p.Stats().Reactions; got != 2*wantReactions {
		t.Errorf("reaction commits: %d want %d", got, 2*wantReactions)
	}
	// Re-delivering a posting resets its aggregate row (the at-least-once
	// Upsert semantic, identical on the sync path), so after the re-stream
	// each article's aggregate holds exactly its second-round reactions;
	// anything below 1× means a bump was lost to the concurrent reindex.
	social, err := p.DB.Table(core.SocialTable)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	social.Scan(func(r rdbms.Row) bool { total += int(r[1].Int()); return true })
	if total != wantReactions {
		t.Errorf("aggregated reactions: %d want %d (lost updates)", total, wantReactions)
	}
}

func TestStreamSSEDeliversCommittedAssessments(t *testing.T) {
	p, srv := streamFixture(t, core.Config{})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/api/stream?limit=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type: %q", ct)
	}
	reader := bufio.NewReader(resp.Body)
	// The subscription comment arrives before any event.
	head, err := reader.ReadString('\n')
	if err != nil || !strings.HasPrefix(head, ": subscribed") {
		t.Fatalf("head: %q (%v)", head, err)
	}

	// Ingest one posting; its assessment must arrive on the feed.
	events := worldEvents(46)
	var posting synth.Event
	for _, ev := range events {
		if ev.Type == synth.EventTypePosting {
			posting = ev
			break
		}
	}
	if err := p.StreamEvent(&posting, true); err != nil {
		t.Fatal(err)
	}

	lines := make(chan string, 16)
	go func() {
		for {
			line, err := reader.ReadString('\n')
			if err != nil {
				close(lines)
				return
			}
			lines <- line
		}
	}()
	// The wait fails only after stall with no step towards the event: the
	// posting committed, its assessment published to the feed, or a line
	// read off the stream.
	const stall = 5 * time.Second
	progress := func() uint64 { return p.StreamStats().Committed + p.Bus.Stats().Published }
	last, moved := progress(), time.Now()
	tick := time.NewTicker(5 * time.Millisecond)
	defer tick.Stop()
	var event, data string
	for data == "" {
		select {
		case line, open := <-lines:
			if !open {
				t.Fatal("stream closed before delivering the assessment")
			}
			moved = time.Now()
			if strings.HasPrefix(line, "event: ") {
				event = strings.TrimSpace(strings.TrimPrefix(line, "event: "))
			}
			if strings.HasPrefix(line, "data: ") {
				data = strings.TrimSpace(strings.TrimPrefix(line, "data: "))
			}
		case <-tick.C:
			if n := progress(); n != last {
				last, moved = n, time.Now()
			} else if time.Since(moved) > stall {
				t.Fatalf("no SSE event and no progress towards one for %v (committed + published %d)", stall, n)
			}
		}
	}
	if event != "assessment" {
		t.Errorf("event type: %q", event)
	}
	if !strings.Contains(data, posting.ArticleID) || !strings.Contains(data, `"composite"`) {
		t.Errorf("assessment payload: %s", data)
	}
}

// TestShedResponseCarriesRetryAfter pins the backpressure contract on the
// 429 path: a shed response tells the producer when to come back, derived
// from the pipeline's drain-rate estimate (floor: one second).
func TestShedResponseCarriesRetryAfter(t *testing.T) {
	p, srv := streamFixture(t, core.Config{})
	p.Pipeline.Pause()
	events := oneArticleBurst(firstPosting(45), laneSlots(p)+1)
	rec, _ := doJSON(t, srv, "POST", "/api/ingest", map[string]any{
		"events": events, "mode": "shed",
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status: %d (%s)", rec.Code, rec.Body.String())
	}
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("429 without Retry-After header")
	}
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	p.Pipeline.Resume()
	p.Pipeline.Flush()
}

// TestThrottledSourceAnswers429WithRetryAfter drives one hot source past
// its per-source admission budget and pins the response shape: 429,
// throttled flag, Retry-After from the token-bucket refill time.
func TestThrottledSourceAnswers429WithRetryAfter(t *testing.T) {
	// SteadyRate 0.5 => steady depth 1, burst depth 2: the 4th same-source
	// event throttles. The fixture clock is frozen, so buckets never refill.
	p, srv := streamFixture(t, core.Config{AdmissionRate: 0.5})
	events := make([]synth.Event, 6)
	for i := range events {
		events[i] = synth.Event{
			Type: synth.EventTypePosting, PostID: fmt.Sprintf("hot-%d", i),
			OutletID: "good-1", ArticleURL: "https://good-1.example/story",
			ArticleID: "hot-story", ArticleHTML: "<html><body><p>breaking</p></body></html>",
		}
	}
	rec, payload := doJSON(t, srv, "POST", "/api/ingest", map[string]any{
		"events": events, "mode": "shed",
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status: %d (%s)", rec.Code, rec.Body.String())
	}
	if payload["throttled"] != true {
		t.Fatalf("throttled flag missing: %v", payload)
	}
	if got := int(payload["accepted"].(float64)); got != 3 {
		t.Errorf("accepted = %d, want 3 (steady 1 + burst 2)", got)
	}
	ra := rec.Header().Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want integer seconds >= 1", ra)
	}
	p.Pipeline.Flush()

	ss := p.StreamStats()
	if ss.Throttled != 1 {
		// The handler stops at the first throttle, so exactly one
		// rejection is counted.
		t.Errorf("throttled counter = %d, want 1", ss.Throttled)
	}
	if len(ss.Admission) != 1 || ss.Admission[0].Source != "good-1.example" {
		t.Fatalf("admission stats: %+v", ss.Admission)
	}
	if a := ss.Admission[0]; a.Steady != 1 || a.Burst != 2 || a.Throttled != 1 {
		t.Errorf("per-source admission: %+v", a)
	}
}

// TestStatsReportAdaptiveShape pins the pipeline's static shape on
// GET /api/stats — its 4 shards and 64-event batches, the per-shard
// breakdown with lane shed counters — and that the fields which reported
// a moving shard set (reshards, resharding, draining) are gone.
func TestStatsReportAdaptiveShape(t *testing.T) {
	p, srv := streamFixture(t, core.Config{})
	events := worldEvents(46)[:6]
	rec, _ := doJSON(t, srv, "POST", "/api/ingest", map[string]any{"events": events})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest: %d", rec.Code)
	}
	p.Pipeline.Flush()
	rec, payload := doJSON(t, srv, "GET", "/api/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d", rec.Code)
	}
	pipeline := payload["pipeline"].(map[string]any)
	if int(pipeline["shards"].(float64)) != 4 {
		t.Errorf("shards: %v, want 4", pipeline["shards"])
	}
	if int(pipeline["batch_max"].(float64)) != 64 {
		t.Errorf("batch_max: %v, want the default 64", pipeline["batch_max"])
	}
	for _, field := range []string{"reshards", "resharding"} {
		if _, ok := pipeline[field]; ok {
			t.Errorf("pipeline still reports %q: %v", field, pipeline)
		}
	}
	shardStats, ok := pipeline["shard_stats"].([]any)
	if !ok || len(shardStats) != 4 {
		t.Fatalf("shard_stats: %v", pipeline["shard_stats"])
	}
	first := shardStats[0].(map[string]any)
	for _, field := range []string{"id", "steady", "burst", "shed_steady", "shed_burst"} {
		if _, ok := first[field]; !ok {
			t.Errorf("shard_stats missing %q: %v", field, first)
		}
	}
	if _, ok := first["draining"]; ok {
		t.Errorf("shard_stats still reports draining: %v", first)
	}
}
