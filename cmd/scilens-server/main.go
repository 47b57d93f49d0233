// Command scilens-server runs the full SciLens News Platform: it assembles
// the system, streams a synthetic firehose through the ingestion path, and
// serves the Indicators API micro-services (paper §3.3) over HTTP.
//
// With -data-dir the store is durable: state recovers from the directory's
// snapshot + WAL on start (skipping the synthetic bootstrap when the
// recovered corpus is non-empty), every mutation is write-ahead logged,
// POST /api/checkpoint persists online, and a SIGINT/SIGTERM shutdown
// drains the pipeline and writes a final checkpoint.
//
// Usage:
//
//	scilens-server [-addr :8080] [-seed N] [-days N] [-scale F]
//	               [-admit-rate F]
//	               [-data-dir DIR] [-partitions N]
//	               [-fsync checkpoint|interval[:dur]|always] [-delta-limit N]
//	               [-checkpoint-interval DUR] [-checkpoint-wal-bytes N]
//	               [-debug-addr ADDR] [-replica-of URL] [-repl-addr ADDR]
//
// Endpoints:
//
//	GET  /api/assess?url=...|id=...   single-article assessment (Figure 3)
//	POST /api/assess                  evaluate an arbitrary document
//	GET  /api/insights/activity       newsroom activity series (Figure 4)
//	GET  /api/insights/engagement     reactions KDE (Figure 5 left)
//	GET  /api/insights/evidence       scientific-reference KDE (Figure 5 right)
//	GET  /api/insights/consensus      consensus experiment (claim C2)
//	POST /api/reviews                 submit an expert review (§3.2)
//	GET  /api/reviews?article_id=...  review aggregate for an article
//	POST /api/reindex                 re-evaluate the stored corpus
//	POST /api/checkpoint              persist the store online
//	GET  /api/health                  ingestion + storage counters
//	GET  /api/version                 build info, start time, uptime
//	GET  /api/debug/traces            retained request traces (?min_ms=N)
//	GET  /metrics                     Prometheus text exposition
//
// With -debug-addr a second listener additionally serves the telemetry
// routes plus net/http/pprof, kept off the public API address.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	scilens "repro"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		seed       = flag.Int64("seed", 1, "world seed")
		days       = flag.Int("days", 30, "collection window length in days")
		scale      = flag.Float64("scale", 0.5, "outlet posting-rate scale")
		reactions  = flag.Float64("reactions", 0.3, "social cascade size scale")
		admitRate  = flag.Float64("admit-rate", 0, "per-source steady admission rate for POST /api/ingest, events/s (0 = admission off)")
		dataDir    = flag.String("data-dir", "", "durable store directory (empty = in-memory)")
		partitions = flag.Int("partitions", 0, "table lock-stripe count (0 = default)")
		fsync      = flag.String("fsync", "checkpoint", "WAL fsync policy: checkpoint, interval[:dur] or always")
		deltaLimit = flag.Int("delta-limit", 0, "checkpoint delta-chain length before compaction (0 = default, <0 = always full)")
		ckptEvery  = flag.Duration("checkpoint-interval", 30*time.Second, "self-driving checkpoint cadence for durable stores (0 = no timer)")
		ckptBytes  = flag.Int64("checkpoint-wal-bytes", 8<<20, "checkpoint once the WAL grows this many bytes (0 = no byte trigger)")
		debugAddr  = flag.String("debug-addr", "", "debug listen address serving /metrics and pprof (empty = disabled)")
		replicaOf  = flag.String("replica-of", "", "primary base URL to replicate from; this process becomes a read-only follower (requires -data-dir)")
		replAddr   = flag.String("repl-addr", "", "separate listen address serving only the replication endpoints, keeping follower traffic off -addr (empty = disabled)")
	)
	flag.Parse()

	log.Printf("bootstrapping platform (seed=%d days=%d data-dir=%q)", *seed, *days, *dataDir)
	start := time.Now()
	platform, world, err := scilens.Bootstrap(scilens.BootstrapConfig{
		Seed: seed64(*seed), Days: *days, RateScale: *scale, ReactionScale: *reactions,
		Platform: scilens.Config{
			AdmissionRate:        *admitRate,
			DataDir:              *dataDir,
			StoragePartitions:    *partitions,
			WALFsyncPolicy:       *fsync,
			CheckpointDeltaLimit: *deltaLimit,
			CheckpointInterval:   *ckptEvery,
			CheckpointWALBytes:   *ckptBytes,
			ReplicaOf:            *replicaOf,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if platform.IsFollower() {
		log.Printf("follower mode: replicating from %s (writes answer 503)", platform.PrimaryURL())
	}
	stats := platform.Stats()
	st := platform.StorageStats()
	if st.RecoveredRecords > 0 || st.Durable {
		log.Printf("storage: durable=%v rows=%d wal-records=%d fsync=%s gen=%d deltas=%d recovered=%d truncated=%v",
			st.Durable, st.Rows, st.WALRecords, st.WALFsyncPolicy,
			st.SnapshotGeneration, st.DeltaChainLength,
			st.RecoveredRecords, st.RecoveredTruncated)
	}
	if st.Durable && (*ckptEvery > 0 || *ckptBytes > 0) {
		log.Printf("checkpoint scheduler: interval=%v wal-bytes=%d", *ckptEvery, *ckptBytes)
	}
	log.Printf("ingested %d articles, %d reactions in %v",
		stats.Postings, stats.Reactions, time.Since(start).Round(time.Millisecond))
	log.Printf("example article: %s", world.Articles[0].URL)

	srv := &http.Server{
		Addr:              *addr,
		Handler:           scilens.NewHTTPServer(platform),
		ReadHeaderTimeout: 5 * time.Second,
	}
	if *debugAddr != "" {
		dbg := &http.Server{
			Addr:              *debugAddr,
			Handler:           scilens.NewDebugHandler(platform),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("debug surface (metrics, pprof) listening on %s", *debugAddr)
			if err := dbg.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("debug listener: %v", err)
			}
		}()
	}
	if *replAddr != "" {
		rep := &http.Server{
			Addr:              *replAddr,
			Handler:           scilens.NewReplHandler(platform),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go func() {
			log.Printf("replication endpoint listening on %s", *replAddr)
			if err := rep.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				log.Printf("replication listener: %v", err)
			}
		}()
	}
	// Graceful shutdown: stop accepting requests and let in-flight ones
	// finish, then drain the pipeline and (for durable stores) write a
	// final checkpoint. A failed persist exits non-zero so orchestrators
	// do not mistake it for a clean shutdown.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		log.Printf("shutting down: stopping HTTP, draining pipeline, checkpointing")
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			log.Printf("http shutdown: %v", err)
		}
		if err := platform.Close(); err != nil {
			log.Printf("close: %v", err)
			os.Exit(1)
		}
		os.Exit(0)
	}()
	log.Printf("indicators API listening on %s", *addr)
	if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
		log.Fatal(err)
	}
	// ListenAndServe returned because Shutdown ran; wait for the handler
	// goroutine to finish the checkpoint and exit the process.
	select {}
}

func seed64(s int64) int64 {
	if s == 0 {
		return 1
	}
	return s
}
