// Command scilens-ingest exercises the platform's streaming ingestion path
// in isolation: it generates a synthetic firehose and streams it through
// the staged ingestion pipeline (the producer blocks on full shards while
// the shard workers drain), reporting end-to-end throughput and the
// per-stage pipeline counters — the engineering claim behind "runs
// operationally handling daily thousands of news articles" (paper §1).
//
// With -data-dir the run writes through the durable storage lifecycle:
// every committed row is write-ahead logged as it lands, and the closing
// checkpoint compacts the log into a snapshot — the kill-and-recover
// deployment shape, measurable against the in-memory default.
//
// Usage:
//
//	scilens-ingest [-seed N] [-days N] [-scale F] [-reactions F]
//	               [-shards N] [-batch N]
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
		shards     = flag.Int("shards", 4, "pipeline shard/worker count")
		batch      = flag.Int("batch", 64, "pipeline micro-batch size")
		dataDir    = flag.String("data-dir", "", "durable store directory (empty = in-memory)")
		partitions = flag.Int("partitions", 0, "table lock-stripe count (0 = default)")
		fsync      = flag.String("fsync", "checkpoint", "WAL fsync policy: checkpoint, interval[:dur] or always")
		deltaLimit = flag.Int("delta-limit", 0, "checkpoint delta-chain length before compaction (0 = default, <0 = always full)")
		ckptEvery  = flag.Duration("checkpoint-interval", 0, "self-driving checkpoint cadence during the run (0 = only the closing checkpoint)")
		ckptBytes  = flag.Int64("checkpoint-wal-bytes", 0, "checkpoint once the WAL grows this many bytes during the run (0 = no byte trigger)")
		debugAddr  = flag.String("debug-addr", "", "debug listen address serving /metrics and pprof during the run (empty = disabled)")
	)
	flag.Parse()

	cfg := scilens.Config{
		StreamShards:         *shards,
		StreamBatchSize:      *batch,
		DataDir:              *dataDir,
		StoragePartitions:    *partitions,
		WALFsyncPolicy:       *fsync,
		CheckpointDeltaLimit: *deltaLimit,
		CheckpointInterval:   *ckptEvery,
		CheckpointWALBytes:   *ckptBytes,
	}
	if err := run(*seed, *days, *scale, *reactions, cfg, *debugAddr); err != nil {
		fmt.Fprintln(os.Stderr, "scilens-ingest:", err)
		os.Exit(1)
	}
}

func run(seed int64, days int, scale, reactions float64, cfg scilens.Config, debugAddr string) (err error) {
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
	if debugAddr != "" {
		dbg := &http.Server{
			Addr:              debugAddr,
			Handler:           scilens.NewDebugHandler(platform),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			fmt.Printf("debug surface (metrics, pprof) listening on %s\n", debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "scilens-ingest: debug listener:", err)
			}
		}()
	}
	if st := platform.StorageStats(); st.Durable && st.Rows > 0 {
		fmt.Printf("recovered:       %d rows from %s (%d WAL records replayed)\n",
			st.Rows, st.Dir, st.RecoveredRecords)
	}

	start := time.Now()
	n, err := platform.IngestWorld(world)
	if err != nil {
		return err
	}
	wall := time.Since(start)

	stats := platform.Stats()
	perSec := float64(n) / wall.Seconds()
	articlesPerSec := float64(stats.Postings) / wall.Seconds()
	ss := platform.StreamStats()
	fmt.Printf("processed:       %d events in %v (streamed, %d shards, batch %d)\n",
		n, wall.Round(time.Millisecond), ss.Shards, cfg.StreamBatchSize)
	fmt.Printf("throughput:      %.0f events/s, %.0f articles/s\n", perSec, articlesPerSec)
	fmt.Printf("daily capacity:  %.2e events, %.2e articles\n", perSec*86400, articlesPerSec*86400)
	fmt.Printf("outcomes:        postings=%d reactions=%d parse-failures=%d orphans=%d\n",
		stats.Postings, stats.Reactions, stats.ParseFailures, stats.OrphanReactions)
	fmt.Printf("pipeline:        enqueued=%d evaluated=%d committed=%d batches=%d retried=%d dead-lettered=%d shed=%d throttled=%d\n",
		ss.Enqueued, ss.Evaluated, ss.Committed, ss.Batches, ss.Retried, ss.DeadLettered, ss.Shed, ss.Throttled)
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
