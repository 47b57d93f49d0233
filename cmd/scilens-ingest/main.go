// Command scilens-ingest exercises the platform's streaming ingestion path
// in isolation: it generates a synthetic firehose and streams it through
// the broker and the staged ingestion pipeline with producer/consumer
// overlap (the production deployment shape), reporting end-to-end
// throughput and the per-stage pipeline counters — the engineering claim
// behind "runs operationally handling daily thousands of news articles"
// (paper §1). The -sync flag runs the historic one-event-at-a-time loop
// instead, for an A/B on the same world.
//
// With -data-dir the run writes through the durable storage lifecycle:
// every committed row is write-ahead logged as it lands, and the closing
// checkpoint compacts the log into a snapshot — the kill-and-recover
// deployment shape, measurable against the in-memory default.
//
// -admit-rate adds per-source token-bucket admission with priority lanes
// on the HTTP ingest path (the broker path this command drives is
// trusted and bypasses admission).
//
// Usage:
//
//	scilens-ingest [-seed N] [-days N] [-scale F] [-consumers N] [-queue N]
//	               [-shards N] [-batch N] [-sync]
//	               [-admit-rate F] [-admit-burst F]
//	               [-data-dir DIR] [-partitions N]
//	               [-fsync checkpoint|interval[:dur]|always] [-delta-limit N]
//	               [-checkpoint-interval DUR] [-checkpoint-wal-bytes N]
//	               [-debug-addr ADDR]
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"time"

	scilens "repro"
)

func main() {
	var (
		seed       = flag.Int64("seed", 1, "world seed")
		days       = flag.Int("days", 30, "collection window length in days")
		scale      = flag.Float64("scale", 1.0, "outlet posting-rate scale")
		reactions  = flag.Float64("reactions", 0.5, "social cascade size scale")
		consumers  = flag.Int("consumers", 4, "ingestion consumer-group size")
		queue      = flag.Int("queue", 8192, "per-partition broker queue capacity")
		shards     = flag.Int("shards", 4, "pipeline shard/worker count")
		batch      = flag.Int("batch", 64, "pipeline micro-batch size")
		syncMode   = flag.Bool("sync", false, "bypass the pipeline: synchronous one-event-at-a-time ingest")
		admitRate  = flag.Float64("admit-rate", 0, "per-source steady admission rate on the HTTP ingest path, events/s (0 = admission off)")
		admitBurst = flag.Float64("admit-burst", 0, "per-source burst-lane admission rate, events/s (0 = same as -admit-rate)")
		dataDir    = flag.String("data-dir", "", "durable store directory (empty = in-memory)")
		partitions = flag.Int("partitions", 0, "table lock-stripe count (0 = default)")
		fsync      = flag.String("fsync", "checkpoint", "WAL fsync policy: checkpoint, interval[:dur] or always")
		deltaLimit = flag.Int("delta-limit", 0, "checkpoint delta-chain length before compaction (0 = default, <0 = always full)")
		ckptEvery  = flag.Duration("checkpoint-interval", 0, "self-driving checkpoint cadence during the run (0 = only the closing checkpoint)")
		ckptBytes  = flag.Int64("checkpoint-wal-bytes", 0, "checkpoint once the WAL grows this many bytes during the run (0 = no byte trigger)")
		debugAddr  = flag.String("debug-addr", "", "debug listen address serving /metrics and pprof during the run (empty = disabled)")
	)
	flag.Parse()

	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           scilens.NewDebugHandler(),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			fmt.Printf("debug surface (metrics, pprof) listening on %s\n", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "scilens-ingest: debug listener:", err)
			}
		}()
	}

	cfg := scilens.Config{
		QueueCapacity:        *queue,
		StreamShards:         *shards,
		StreamBatchSize:      *batch,
		AdmissionRate:        *admitRate,
		AdmissionBurst:       *admitBurst,
		DataDir:              *dataDir,
		StoragePartitions:    *partitions,
		WALFsyncPolicy:       *fsync,
		CheckpointDeltaLimit: *deltaLimit,
		CheckpointInterval:   *ckptEvery,
		CheckpointWALBytes:   *ckptBytes,
	}
	if err := run(*seed, *days, *scale, *reactions, *consumers, *syncMode, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "scilens-ingest:", err)
		os.Exit(1)
	}
}

func run(seed int64, days int, scale, reactions float64, consumers int, syncMode bool, cfg scilens.Config) (err error) {
	world := scilens.GenerateWorld(scilens.WorldConfig{
		Seed: seed, Days: days, RateScale: scale, ReactionScale: reactions,
	})
	events := world.Events()
	fmt.Printf("world: %d articles, %d events over %d days\n",
		len(world.Articles), len(events), world.Days)

	platform, err := scilens.New(cfg)
	if err != nil {
		return err
	}
	// The closing checkpoint is the durability guarantee of a -data-dir
	// run; its failure must fail the command, not vanish in a defer.
	defer func() {
		if cerr := platform.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	if st := platform.StorageStats(); st.Durable && st.Rows > 0 {
		fmt.Printf("recovered:       %d rows from %s (%d WAL records replayed)\n",
			st.Rows, st.Dir, st.RecoveredRecords)
	}

	start := time.Now()
	var n int
	if syncMode {
		for i := range events {
			// Per-event failures (orphans, parse failures) land in stats.
			_ = platform.IngestEvent(&events[i])
			n++
		}
	} else {
		if n, err = platform.IngestWorld(world, consumers); err != nil {
			return err
		}
	}
	wall := time.Since(start)

	stats := platform.Stats()
	perSec := float64(n) / wall.Seconds()
	articlesPerSec := float64(stats.Postings) / wall.Seconds()
	ss := platform.StreamStats()
	mode := fmt.Sprintf("streamed, %d consumers, %d shards, batch %d", consumers, ss.Shards, cfg.StreamBatchSize)
	if syncMode {
		mode = "synchronous"
	}
	fmt.Printf("processed:       %d events in %v (%s)\n", n, wall.Round(time.Millisecond), mode)
	fmt.Printf("throughput:      %.0f events/s, %.0f articles/s\n", perSec, articlesPerSec)
	fmt.Printf("daily capacity:  %.2e events, %.2e articles\n", perSec*86400, articlesPerSec*86400)
	fmt.Printf("outcomes:        postings=%d reactions=%d parse-failures=%d orphans=%d\n",
		stats.Postings, stats.Reactions, stats.ParseFailures, stats.OrphanReactions)
	if !syncMode {
		fmt.Printf("pipeline:        enqueued=%d evaluated=%d committed=%d batches=%d retried=%d dead-lettered=%d shed=%d throttled=%d\n",
			ss.Enqueued, ss.Evaluated, ss.Committed, ss.Batches, ss.Retried, ss.DeadLettered, ss.Shed, ss.Throttled)
	}
	if st := platform.StorageStats(); st.Durable {
		fmt.Printf("storage:         rows=%d wal-records=%d wal-bytes=%d partitions(articles)=%d fsync=%s fsyncs=%d\n",
			st.Rows, st.WALRecords, st.WALBytes, st.TablePartitions["articles"],
			st.WALFsyncPolicy, st.WALFsyncs)
	}
	if stats.ParseFailures > 0 || stats.OrphanReactions > 0 {
		return fmt.Errorf("ingestion dropped events: %+v", stats)
	}
	return nil
}
