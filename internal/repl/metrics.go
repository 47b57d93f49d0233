package repl

import "repro/internal/obs"

// metrics is the replication link's telemetry on one registry: Source and
// Client register the same set, and Client.Status reads its counters back.
type metrics struct {
	recordsApplied, bytesReceived, bytesSent, reconnects, fullResyncs *obs.Counter
	lagBytes, lagSegments, connected, streams                         *obs.Gauge
}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		recordsApplied: r.NewCounter("scilens_repl_records_applied_total",
			"WAL records applied by the replication client"),
		bytesReceived: r.NewCounter("scilens_repl_bytes_received_total",
			"replication payload bytes received from the primary"),
		bytesSent: r.NewCounter("scilens_repl_bytes_sent_total",
			"replication payload bytes streamed to followers"),
		reconnects: r.NewCounter("scilens_repl_reconnects_total",
			"replication stream reconnect attempts after a drop"),
		fullResyncs: r.NewCounter("scilens_repl_full_resyncs_total",
			"full snapshot resyncs (divergence or pruned cursor)"),
		lagBytes: r.NewGauge("scilens_repl_lag_bytes",
			"bytes the follower trails the primary WAL (lower bound while segments behind)"),
		lagSegments: r.NewGauge("scilens_repl_lag_segments",
			"WAL segments the follower trails the primary"),
		connected: r.NewGauge("scilens_repl_connected",
			"1 while the replication stream is established"),
		streams: r.NewGauge("scilens_repl_streams",
			"follower streams currently connected to this primary"),
	}
}
