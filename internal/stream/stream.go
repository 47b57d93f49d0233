// Package stream implements the streaming entry of the SciLens platform
// (paper §3.3). The original system wraps the commercial Datastreamer API
// as a messaging queue; this package is that queue and the live feed
// behind it:
//
//   - Pipeline: the asynchronous staged ingestion engine — sharded bounded
//     queues feeding micro-batched processing with per-key ordering,
//     caller-selectable backpressure (block or shed), capped-backoff
//     retries and dead-letter handoff.
//   - Bus: in-process pub/sub fan-out for the live assessment feed.
package stream

import "errors"

// keyHash is allocation-free FNV-1a over the key — the pipeline's shard
// routing hash.
func keyHash(key string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return h
}

// Sentinel errors.
var (
	// ErrFull is returned by the shedding enqueue modes when the target
	// shard lane is at capacity.
	ErrFull = errors.New("stream: queue full")
	// ErrClosed is returned when using a closed pipeline.
	ErrClosed = errors.New("stream: closed")
)
