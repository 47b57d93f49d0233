// Benchmarks regenerating every evaluation artifact of the paper (Figures
// 3–5, prose claims C1 and C2) plus the ablation benches DESIGN.md calls
// out. Run with:
//
//	go test -bench=. -benchmem
//
// The corresponding data series are printed by cmd/scilens-eval; these
// benches measure the cost of regenerating them through the real pipeline.
package scilens_test

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	scilens "repro"
	"repro/internal/classify"
	"repro/internal/compute"
	"repro/internal/rdbms"
	"repro/internal/rdbms/vfs"
	"repro/internal/socialind"
	"repro/internal/stream"
	"repro/internal/synth"
)

// benchWorld is the shared fixture: a mid-size 20-day corpus ingested once.
var (
	benchOnce     sync.Once
	benchPlatform *scilens.Platform
	benchW        *scilens.World
	benchErr      error
)

func benchFixture(b *testing.B) (*scilens.Platform, *scilens.World) {
	b.Helper()
	benchOnce.Do(func() {
		benchPlatform, benchW, benchErr = scilens.Bootstrap(scilens.BootstrapConfig{
			Seed: 1, Days: 20, RateScale: 0.5, ReactionScale: 0.3,
		})
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchPlatform, benchW
}

// BenchmarkFigure3SingleAssessment measures the real-time single-article
// assessment path (paper Figure 3): store lookup, social aggregates and
// expert-review aggregation per request.
func BenchmarkFigure3SingleAssessment(b *testing.B) {
	p, w := benchFixture(b)
	ids := make([]string, len(w.Articles))
	for i, a := range w.Articles {
		ids[i] = a.ID
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.AssessID(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3ColdEvaluation measures evaluating an arbitrary document
// through the full indicator engine with the cache bypassed (the POST
// /api/assess path for never-seen articles).
func BenchmarkFigure3ColdEvaluation(b *testing.B) {
	_, w := benchFixture(b)
	engine := scilens.NewEngine(scilens.EngineConfig{CacheSize: -1})
	docs := make([]string, 0, 256)
	for _, a := range w.Articles[:min(256, len(w.Articles))] {
		docs = append(docs, a.RawHTML)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Evaluate(docs[i%len(docs)], "", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3WarmEvaluation measures the cached document-evaluation
// path: repeated POST /api/assess requests for already-seen documents are
// served from the engine's content-hash report cache.
func BenchmarkFigure3WarmEvaluation(b *testing.B) {
	_, w := benchFixture(b)
	engine := scilens.NewEngine(scilens.EngineConfig{})
	docs := make([]string, 0, 256)
	urls := make([]string, 0, 256)
	for _, a := range w.Articles[:min(256, len(w.Articles))] {
		docs = append(docs, a.RawHTML)
		urls = append(urls, a.URL)
	}
	// Prime the cache.
	for i := range docs {
		if _, err := engine.Evaluate(docs[i], urls[i], nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Evaluate(docs[i%len(docs)], urls[i%len(docs)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3ConcurrentAssessment drives the stored-assessment path
// from parallel clients — the serving shape of the real-time Indicators
// API under load.
func BenchmarkFigure3ConcurrentAssessment(b *testing.B) {
	p, w := benchFixture(b)
	ids := make([]string, len(w.Articles))
	for i, a := range w.Articles {
		ids[i] = a.ID
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := p.AssessID(ids[i%len(ids)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkFigure4NewsroomActivity regenerates the Figure 4 series (facts
// scan + per-outlet daily shares + class means + smoothing).
func BenchmarkFigure4NewsroomActivity(b *testing.B) {
	p, w := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Figure4(w.Start, w.Days); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5ReactionsKDE regenerates the Figure 5 left panel (social
// reactions KDE per rating class).
func BenchmarkFigure5ReactionsKDE(b *testing.B) {
	p, _ := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Figure5Engagement(128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure5EvidenceKDE regenerates the Figure 5 right panel
// (scientific-reference-ratio KDE per rating class).
func BenchmarkFigure5EvidenceKDE(b *testing.B) {
	p, _ := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Figure5Evidence(128); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClaimC1IngestThroughput measures the full streaming ingestion
// path — queue, extraction, indicators, store — with the producer
// overlapping the shard workers, and reports events/s (claim C1: "handling
// daily thousands of news articles").
func BenchmarkClaimC1IngestThroughput(b *testing.B) {
	world := scilens.GenerateWorld(scilens.WorldConfig{
		Seed: 2, Days: 10, RateScale: 0.5, ReactionScale: 0.3,
	})
	events := len(world.Events())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := scilens.New(scilens.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := p.IngestWorld(world); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perOp := b.Elapsed().Seconds() / float64(b.N)
	b.ReportMetric(float64(events)/perOp, "events/s")
	b.ReportMetric(float64(len(world.Articles))/perOp, "articles/s")
}

// BenchmarkClaimC2Consensus measures the indicator-assisted consensus
// experiment over the stored corpus.
func BenchmarkClaimC2Consensus(b *testing.B) {
	p, _ := benchFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunConsensusExperiment(scilens.ConsensusConfig{Seed: int64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationIndexVsScan compares the real-time article-lookup path
// with its secondary hash index against a full table scan — the "why an
// RDBMS with indexes" design choice.
func BenchmarkAblationIndexVsScan(b *testing.B) {
	p, w := benchFixture(b)
	table, err := p.DB.Table("articles")
	if err != nil {
		b.Fatal(err)
	}
	urls := make([]string, len(w.Articles))
	for i, a := range w.Articles {
		urls[i] = a.URL
	}
	b.Run("indexed-lookup", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rows := 0
			err := table.ViewEq("url", rdbms.String(urls[i%len(urls)]), func(rdbms.Row) bool {
				rows++
				return true
			})
			if err != nil || rows != 1 {
				b.Fatalf("lookup: %v (%d rows)", err, rows)
			}
		}
	})
	b.Run("full-scan", func(b *testing.B) {
		urlCol := 3 // articles schema: url is column 3
		for i := 0; i < b.N; i++ {
			want := urls[i%len(urls)]
			found := 0
			table.Scan(func(r rdbms.Row) bool {
				if r[urlCol].Str() == want {
					found++
					return false
				}
				return true
			})
			if found != 1 {
				b.Fatal("not found")
			}
		}
	})
}

// BenchmarkAblationParallelCompute runs the same tokenisation job on the
// compute pool with 1 to 8 workers — the "why a parallel map" design
// choice.
func BenchmarkAblationParallelCompute(b *testing.B) {
	_, w := benchFixture(b)
	docs := make([]string, 0, 4096)
	for _, a := range w.Articles {
		docs = append(docs, a.RawHTML)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			pool := compute.NewPool(workers, nil)
			for i := 0; i < b.N; i++ {
				counts, err := compute.Map(pool, docs, func(s string) (int, error) {
					return len(socialind.Tokens(s)), nil
				})
				if err != nil {
					b.Fatal(err)
				}
				total := 0
				for _, n := range counts {
					total += n
				}
				if total == 0 {
					b.Fatal("no tokens")
				}
			}
		})
	}
}

// BenchmarkAblationStanceLexVsModel compares lexicon-only stance
// classification against the blended lexicon+naive-Bayes path the platform
// trains periodically.
func BenchmarkAblationStanceLexVsModel(b *testing.B) {
	_, w := benchFixture(b)
	var replies []string
	for _, cascade := range w.Cascades {
		for _, post := range cascade[1:] {
			if post.Text != "" {
				replies = append(replies, post.Text)
			}
		}
		if len(replies) > 8192 {
			break
		}
	}
	if len(replies) == 0 {
		b.Fatal("no replies in fixture")
	}
	lex := socialind.NewStanceClassifier()

	// Weak-label with the lexicon, then train the model — the platform's
	// periodic training job.
	labels := make([]socialind.Stance, len(replies))
	for i, r := range replies {
		labels[i] = lex.Classify(r)
	}
	nb := classify.NewNaiveBayes(0.5)
	for i, r := range replies {
		nb.Observe(socialind.Tokens(r), labels[i].String())
	}
	blended := socialind.NewStanceClassifier()
	blended.SetModel(nb)

	b.Run("lexicon-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			lex.Classify(replies[i%len(replies)])
		}
	})
	b.Run("lexicon+model", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			blended.Classify(replies[i%len(replies)])
		}
	})
}

// BenchmarkStreamIngest runs the staged pipeline (sharded queues →
// micro-batched evaluation → coalesced commits) across worker counts over
// the same decoded firehose events, reporting events/s.
func BenchmarkStreamIngest(b *testing.B) {
	world := scilens.GenerateWorld(scilens.WorldConfig{
		Seed: 4, Days: 8, RateScale: 0.4, ReactionScale: 0.3,
	})
	events := world.Events()
	perSec := func(b *testing.B) {
		b.ReportMetric(float64(len(events))/(b.Elapsed().Seconds()/float64(b.N)), "events/s")
	}

	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("streamed-%d", shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := scilens.New(scilens.Config{
					StreamShards:        shards,
					StreamQueueCapacity: 4096,
				})
				if err != nil {
					b.Fatal(err)
				}
				for j := range events {
					if err := p.StreamEvent(&events[j], true); err != nil {
						b.Fatal(err)
					}
				}
				p.Pipeline.Flush()
				if st := p.StreamStats(); st.DeadLettered != 0 {
					b.Fatalf("dead letters: %+v", st)
				}
				p.Close()
			}
			b.StopTimer()
			perSec(b)
		})
	}
}

// burstBlocks packs a world's reaction events into a flash-crowd
// profile: the hottest articles' reaction cascades are grouped into
// dense storm blocks (a handful of stories going viral at once) and the
// rest becomes the steady background feed, in firehose order.
// Deterministic for a given event slice.
func burstBlocks(events []synth.Event, storms, stormTarget int) (blocks [][]int, background []int) {
	byArticle := map[string][]int{}
	for i := range events {
		byArticle[events[i].ArticleURL] = append(byArticle[events[i].ArticleURL], i)
	}
	urls := make([]string, 0, len(byArticle))
	for u := range byArticle {
		urls = append(urls, u)
	}
	// Hottest first; URL tie-break keeps the order stable across runs.
	sort.Slice(urls, func(a, b int) bool {
		if len(byArticle[urls[a]]) != len(byArticle[urls[b]]) {
			return len(byArticle[urls[a]]) > len(byArticle[urls[b]])
		}
		return urls[a] < urls[b]
	})
	var cur []int
	for _, u := range urls {
		if len(blocks) < storms {
			cur = append(cur, byArticle[u]...)
			if len(cur) >= stormTarget {
				blocks = append(blocks, cur)
				cur = nil
			}
			continue
		}
		background = append(background, byArticle[u]...)
	}
	if len(cur) > 0 {
		blocks = append(blocks, cur)
	}
	sort.Ints(background) // original firehose order
	return blocks, background
}

// BenchmarkBurstIngest measures shedding under a flash-crowd reaction
// profile at deliberately modest per-shard queue capacity. Each
// iteration pre-loads every article posting (block mode), then drives
// the reaction feed in shed mode (StreamEvent(ev, false): a full shard drops the
// event instead of parking the producer): the steady background paces
// in short waves, and periodically a storm block — the hottest
// articles' cascades back to back — arrives at line rate. The headline
// metric is the shed percentage of the reaction feed. The A/B is the
// queue bound, the one lever for absorbing bursts: a storm overflows the
// 4x256 aggregate queue, while 4x1024 holds it until the workers drain
// the backlog between storms. Some dead letters are expected: shedding
// part of a reply tree orphans its descendants.
func BenchmarkBurstIngest(b *testing.B) {
	world := scilens.GenerateWorld(scilens.WorldConfig{
		Seed: 6, Days: 10, RateScale: 0.6, ReactionScale: 0.5,
	})
	events := world.Events()
	var postings, reactions []int
	for i := range events {
		if events[i].Type == synth.EventTypePosting {
			postings = append(postings, i)
		} else {
			reactions = append(reactions, i)
		}
	}
	reactionEvents := make([]synth.Event, len(reactions))
	for j, idx := range reactions {
		reactionEvents[j] = events[idx]
	}
	blocks, background := burstBlocks(reactionEvents, 6, 2500)
	// burstBlocks indexed into the reactions slice; map back to events.
	remap := func(idxs []int) []int {
		out := make([]int, len(idxs))
		for j, k := range idxs {
			out[j] = reactions[k]
		}
		return out
	}
	for i := range blocks {
		blocks[i] = remap(blocks[i])
	}
	background = remap(background)
	bgRun := len(background) / (len(blocks) + 1)

	run := func(b *testing.B, cfg scilens.Config) {
		var offered, shed, committed uint64
		for i := 0; i < b.N; i++ {
			p, err := scilens.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			// Pre-load the articles so storms are pure reaction pressure,
			// not orphaned cascades whose posting was shed.
			for _, idx := range postings {
				if err := p.StreamEvent(&events[idx], true); err != nil {
					b.Fatal(err)
				}
			}
			p.Pipeline.Flush()
			try := func(idx int) {
				err := p.StreamEvent(&events[idx], false)
				if err != nil && !errors.Is(err, stream.ErrFull) {
					b.Fatal(err)
				}
			}
			// feedBg paces the steady feed: short producer waves with brief
			// gaps that also hand the (possibly single) core to the workers.
			feedBg := func(seg []int) {
				for w := 0; w < len(seg); w += 64 {
					end := w + 64
					if end > len(seg) {
						end = len(seg)
					}
					for _, idx := range seg[w:end] {
						try(idx)
					}
					time.Sleep(2 * time.Millisecond)
				}
			}
			pos := 0
			for _, blk := range blocks {
				end := pos + bgRun
				if end > len(background) {
					end = len(background)
				}
				feedBg(background[pos:end])
				pos = end
				for _, idx := range blk {
					try(idx) // the storm arrives at line rate
				}
			}
			feedBg(background[pos:])
			p.Pipeline.Flush()
			st := p.StreamStats()
			offered += uint64(len(background))
			for _, blk := range blocks {
				offered += uint64(len(blk))
			}
			shed += st.Shed
			committed += st.Committed
			p.Close()
		}
		b.StopTimer()
		b.ReportMetric(100*float64(shed)/float64(offered), "shed_pct")
		b.ReportMetric(float64(committed)/b.Elapsed().Seconds(), "committed/s")
	}
	b.Run("static-4", func(b *testing.B) {
		run(b, scilens.Config{
			StreamShards:        4,
			StreamQueueCapacity: 256,
		})
	})
	b.Run("static-4-cap1024", func(b *testing.B) {
		run(b, scilens.Config{
			StreamShards:        4,
			StreamQueueCapacity: 1024,
		})
	})
}

// BenchmarkDailyMigration measures the full daily snapshot job over the
// fixture's three tables: one generation written through vfs into a fresh
// in-memory date directory per iteration.
func BenchmarkDailyMigration(b *testing.B) {
	p, w := benchFixture(b)
	dir := "warehouse/" + w.Start.AddDate(0, 0, w.Days).Format("2006-01-02")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.DB.ExportTables(vfs.NewMem(), dir, "articles", "article_social", "replies"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReindexCorpus measures whole-corpus batch re-evaluation (the
// post-retraining re-indexing job) at different compute-pool widths,
// reporting article throughput. The fixture's models are unchanged between
// iterations, so every run is forced past the model-generation watermark
// (which would otherwise skip every already-current row): it streams the
// full document store through the indicator pipeline and rewrites nothing
// — isolating evaluation + store traversal, the dominant cost of a real
// reindex.
func BenchmarkReindexCorpus(b *testing.B) {
	p, w := benchFixture(b)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			pool := compute.NewPool(workers, nil)
			for i := 0; i < b.N; i++ {
				rep, err := p.ReindexCorpus(pool, scilens.ReindexForce())
				if err != nil {
					b.Fatal(err)
				}
				if rep.Articles != len(w.Articles) {
					b.Fatalf("reindexed %d of %d", rep.Articles, len(w.Articles))
				}
			}
			b.StopTimer()
			perOp := b.Elapsed().Seconds() / float64(b.N)
			b.ReportMetric(float64(len(w.Articles))/perOp, "articles/s")
		})
	}
}
