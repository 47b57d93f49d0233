package repltest

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/synth"
)

// BenchmarkReplRead is the PR's acceptance smoke: assessment-read
// throughput on the primary versus a converged follower over the same
// corpus. The follower serves reads from its own replayed store, so the
// two sides should be within noise of each other — the replication layer
// adds no per-read cost, only replay lag.
func BenchmarkReplRead(b *testing.B) {
	pair := NewPair(b, nil, nil)
	p := pair.Primary.Platform

	w := synth.GenerateWorld(synth.Config{Seed: 7, Days: 4, RateScale: 0.3, ReactionScale: 0.2})
	if _, err := p.IngestWorld(w); err != nil {
		b.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	WaitConvergedPair(b, pair, 60*time.Second)

	ids := make([]string, len(w.Articles))
	for i, a := range w.Articles {
		ids[i] = a.ID
	}
	bench := func(node *core.Platform) func(*testing.B) {
		return func(b *testing.B) {
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := node.AssessID(ids[i%len(ids)]); err != nil {
					b.Fatal(err)
				}
			}
			if d := time.Since(start).Seconds(); d > 0 {
				b.ReportMetric(float64(b.N)/d, "reads/s")
			}
		}
	}
	b.Run("primary", bench(p))
	b.Run("follower", bench(pair.Follower.Platform))
}
