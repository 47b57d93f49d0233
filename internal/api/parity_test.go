package api

import (
	"bufio"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stream"
	"repro/internal/synth"
)

// scrape reads GET /metrics from h into its sample lines, keyed by series
// (the family name plus its label block).
func scrape(t *testing.T, h http.Handler) map[string]float64 {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status: %d", rec.Code)
	}
	series := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		series[line[:i]] = v
	}
	return series
}

// total sums the series of one family whose label block holds every one
// of labels (e.g. `lane="steady"`).
func total(series map[string]float64, name string, labels ...string) float64 {
	sum := 0.0
next:
	for key, v := range series {
		rest, ok := strings.CutPrefix(key, name)
		if !ok || (rest != "" && rest[0] != '{') {
			continue
		}
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				continue next
			}
		}
		sum += v
	}
	return sum
}

// TestFeedSubscribersMetricMatchesStats: the subscriber gauge on /metrics
// is the live subscriber count /api/stats lists, not a running sum of
// unsubscribes.
func TestFeedSubscribersMetricMatchesStats(t *testing.T) {
	p, err := core.NewPlatform(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	srv := NewServer(p)
	gone, live := p.Bus.Subscribe(4), p.Bus.Subscribe(4)
	defer live.Cancel()
	gone.Cancel()

	got := total(scrape(t, srv), "scilens_feed_subscribers")
	_, payload := doJSON(t, srv, "GET", "/api/stats", nil)
	subs, _ := payload["feed_subscribers"].([]any)
	if got != 1 || int(got) != len(subs) {
		t.Fatalf("scilens_feed_subscribers = %v, /api/stats lists %d subscribers; want 1 and 1", got, len(subs))
	}
}

// TestStatsMetricsParity drives one server through a shed, a throttle, a
// retry, a dead letter and a feed drop, then requires every pipeline and
// feed counter in /api/stats to equal its family total on the same
// server's /metrics. Counters with no family are listed by name, so a new
// counter kept beside a family fails here until it reads the family.
func TestStatsMetricsParity(t *testing.T) {
	p, err := core.NewPlatform(core.Config{
		Clock:         func() time.Time { return synth.WindowStart.AddDate(0, 0, 10) },
		AdmissionRate: 1, // steady depth 2, burst depth 4
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	srv := NewServer(p)

	w := synth.GenerateWorld(synth.Config{Seed: 31, Days: 10, RateScale: 0.25, ReactionScale: 0.3})
	var postings []*synth.Event
	var orphan *synth.Event
	events := w.Events()
	for i := range events {
		if ev := &events[i]; ev.Type == synth.EventTypePosting && len(postings) < 3 {
			postings = append(postings, ev)
		}
	}
	for i := range events {
		if ev := &events[i]; ev.Type == synth.EventTypeReaction && len(postings) == 3 &&
			ev.ArticleURL != postings[0].ArticleURL && ev.ArticleURL != postings[2].ArticleURL {
			orphan = ev
			break
		}
	}
	if orphan == nil {
		t.Fatal("world too small")
	}
	feed := p.Bus.Subscribe(1) // never read: the second publish drops
	defer feed.Cancel()

	// Shed: with the workers paused, one article's posting and its likes
	// fill its shard's steady lane, and the next like finds it full.
	p.Pipeline.Pause()
	burst := oneArticleBurst(*postings[0], laneSlots(p)+1)
	for i := range burst[:len(burst)-1] {
		if err := p.Pipeline.TryEnqueueSource("", burst[i].ArticleURL, &burst[i]); err != nil {
			t.Fatal(err)
		}
	}
	last := &burst[len(burst)-1]
	if err := p.Pipeline.TryEnqueueSource("", last.ArticleURL, last); !errors.Is(err, stream.ErrFull) {
		t.Fatalf("enqueue onto a full lane: %v, want ErrFull", err)
	}
	// Throttle: one source spends its steady and burst buckets.
	throttled := false
	for range 20 {
		err := p.Pipeline.TryEnqueueSource("hot.example", postings[2].ArticleURL, postings[2])
		if throttled = errors.Is(err, stream.ErrThrottled); throttled {
			break
		}
	}
	if !throttled {
		t.Fatal("source never throttled")
	}
	p.Pipeline.Resume()
	p.Pipeline.Flush()
	// Retry and dead letter: a reaction to an article never ingested
	// retries until its attempts run out.
	if err := p.Pipeline.EnqueueSource(context.Background(), "", orphan.ArticleURL, orphan); err != nil {
		t.Fatal(err)
	}
	p.Pipeline.Flush()

	m := scrape(t, srv)
	_, payload := doJSON(t, srv, "GET", "/api/stats", nil)
	pipeline, _ := payload["pipeline"].(map[string]any)
	family := map[string]float64{
		"enqueued":       total(m, "scilens_pipeline_enqueued_total"),
		"shed":           total(m, "scilens_pipeline_shed_total"),
		"throttled":      total(m, "scilens_pipeline_admission_total", `decision="throttled"`),
		"committed":      total(m, "scilens_pipeline_committed_total"),
		"retried":        total(m, "scilens_pipeline_retry_backoff_seconds_count"),
		"dead_lettered":  total(m, "scilens_pipeline_dead_lettered_total"),
		"batches":        total(m, "scilens_pipeline_batch_records_count"),
		"shards":         total(m, "scilens_pipeline_shards"),
		"subscribers":    total(m, "scilens_feed_subscribers"),
		"feed_published": total(m, "scilens_feed_published_total"),
		"feed_dropped":   total(m, "scilens_feed_dropped_total"),
	}
	// Counters kept once with no family, and levels or settings rather
	// than event counts.
	noFamily := map[string]bool{
		"evaluated": true, "malformed": true, "dead_letter_evicted": true,
		"inflight": true, "queue_depth": true, "dead_letter_backlog": true, "batch_max": true,
	}
	for key, v := range pipeline {
		got, ok := v.(float64)
		if !ok || noFamily[key] {
			continue
		}
		want, ok := family[key]
		if !ok {
			t.Errorf("pipeline.%s has no /metrics family to agree with", key)
			continue
		}
		if got != want {
			t.Errorf("pipeline.%s = %v in /api/stats, %v on /metrics", key, got, want)
		}
	}
	for _, key := range []string{"shed", "throttled", "committed", "retried", "dead_lettered", "feed_dropped"} {
		if family[key] == 0 {
			t.Errorf("the workload produced no %s event", key)
		}
	}

	// The per-shard and per-source breakdowns add up to their families.
	var shedSteady, shedBurst float64
	for _, s := range pipeline["shard_stats"].([]any) {
		shedSteady += s.(map[string]any)["shed_steady"].(float64)
		shedBurst += s.(map[string]any)["shed_burst"].(float64)
	}
	if want := total(m, "scilens_pipeline_shed_total", `lane="steady"`); shedSteady != want {
		t.Errorf("shard_stats shed_steady sums to %v, /metrics %v", shedSteady, want)
	}
	if want := total(m, "scilens_pipeline_shed_total", `lane="burst"`); shedBurst != want {
		t.Errorf("shard_stats shed_burst sums to %v, /metrics %v", shedBurst, want)
	}
	for _, decision := range []string{"steady", "burst", "throttled"} {
		sum := 0.0
		for _, a := range pipeline["admission"].([]any) {
			sum += a.(map[string]any)[decision].(float64)
		}
		if want := total(m, "scilens_pipeline_admission_total", `decision="`+decision+`"`); sum != want {
			t.Errorf("admission %s sums to %v, /metrics %v", decision, sum, want)
		}
	}
}
