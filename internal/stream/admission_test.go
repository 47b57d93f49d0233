package stream

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

func fixedClock() func() time.Time {
	at := time.Unix(1_700_000_000, 0)
	return func() time.Time { return at }
}

// TestPipelineLaneStarvation saturates the burst lane and checks the
// steady lane still makes proportional progress under the 2:1
// deficit-weighted dequeue.
func TestPipelineLaneStarvation(t *testing.T) {
	proc := newCollectProcessor(nil)
	var order []string
	var orderMu sync.Mutex
	p := NewPipeline(PipelineConfig{
		Shards:        1,
		QueueCapacity: 2048,
		now:           fixedClock(),
		// A near-zero steady budget pushes the hot source's whole feed
		// into the burst lane; a burst depth of 5 000 keeps it admitted.
		Admission: &AdmissionConfig{SteadyRate: 1e-9, BurstRate: 1250},
		Process: func(shard int, batch []Envelope) []Result {
			orderMu.Lock()
			for _, env := range batch {
				order = append(order, env.Key)
			}
			orderMu.Unlock()
			return proc.process(shard, batch)
		},
	})
	defer p.Close()

	p.Pause()
	const burstN, steadyN = 900, 100
	for i := 0; i < burstN; i++ {
		if err := p.EnqueueSource("hot.example.com", fmt.Sprintf("burst-%d", i), []byte("b")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < steadyN; i++ {
		// Plain enqueues ride the steady lane unadmitted.
		if err := p.Enqueue(fmt.Sprintf("steady-%d", i), []byte("s")); err != nil {
			t.Fatal(err)
		}
	}
	st := p.Stats()
	if len(st.PerShard) != 1 || st.PerShard[0].Burst != burstN || st.PerShard[0].Steady != steadyN {
		t.Fatalf("lane split wrong: %+v", st.PerShard)
	}
	p.Resume()
	p.Flush()

	orderMu.Lock()
	defer orderMu.Unlock()
	if len(order) != burstN+steadyN {
		t.Fatalf("processed %d envelopes, want %d", len(order), burstN+steadyN)
	}
	lastSteady := -1
	for i, key := range order {
		if key[0] == 's' {
			lastSteady = i
		}
	}
	// At 2:1 weights the steady lane's 100 envelopes interleave with
	// ~50 burst envelopes: the last one should land around position 150.
	// Anything past 400 means the burst lane starved it.
	if lastSteady < 0 || lastSteady > 400 {
		t.Fatalf("last steady envelope at position %d of %d; steady lane starved", lastSteady, len(order))
	}
}

func TestAdmissionBuckets(t *testing.T) {
	at := time.Unix(1_700_000_000, 0)
	now := func() time.Time { return at }
	// Depths: 2 steady tokens (2 s at 1/s), 2 burst tokens (4 s at 0.5/s).
	a := newAdmission(AdmissionConfig{SteadyRate: 1, BurstRate: 0.5}, now,
		newPipelineFamilies(nil, 1).admission)

	for i := 0; i < 2; i++ {
		if d := a.admit("src"); d.throttled || d.lane != LaneSteady {
			t.Fatalf("admit %d: %+v, want steady", i, d)
		}
	}
	for i := 0; i < 2; i++ {
		if d := a.admit("src"); d.throttled || d.lane != LaneBurst {
			t.Fatalf("overflow admit %d: %+v, want burst", i, d)
		}
	}
	d := a.admit("src")
	if !d.throttled {
		t.Fatalf("expected throttle, got %+v", d)
	}
	if d.retryAfter <= 0 || d.retryAfter > time.Second {
		t.Fatalf("retryAfter = %v, want (0, 1s]", d.retryAfter)
	}
	// Another source is untouched by the hot one's exhaustion.
	if d := a.admit("other"); d.throttled || d.lane != LaneSteady {
		t.Fatalf("independent source: %+v, want steady", d)
	}
	// A second's refill re-admits one steady token.
	at = at.Add(time.Second)
	if d := a.admit("src"); d.throttled || d.lane != LaneSteady {
		t.Fatalf("after refill: %+v, want steady", d)
	}

	stats := a.stats()
	if len(stats) != 2 || stats[0].Source != "other" || stats[1].Source != "src" {
		t.Fatalf("stats = %+v", stats)
	}
	if s := stats[1]; s.Steady != 3 || s.Burst != 2 || s.Throttled != 1 {
		t.Fatalf("src counters = %+v", s)
	}
}

func TestPipelineThrottledEnqueue(t *testing.T) {
	p := NewPipeline(PipelineConfig{
		Shards:    1,
		now:       fixedClock(),
		Admission: &AdmissionConfig{SteadyRate: 0.5, BurstRate: 0.25}, // one token each
		Process:   func(int, []Envelope) []Result { return nil },
	})
	defer p.Close()

	if err := p.EnqueueSource("src", "k1", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := p.EnqueueSource("src", "k2", []byte("x")); err != nil {
		t.Fatal(err)
	}
	err := p.EnqueueSource("src", "k3", []byte("x"))
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("third enqueue = %v, want ErrThrottled", err)
	}
	var te *ThrottleError
	if !errors.As(err, &te) || te.RetryAfter <= 0 {
		t.Fatalf("throttle error carries no retry hint: %v", err)
	}
	p.Flush()
	st := p.Stats()
	if st.Throttled != 1 || st.Enqueued != 2 {
		t.Fatalf("throttled=%d enqueued=%d, want 1/2", st.Throttled, st.Enqueued)
	}
}

// TestPipelinePerShardShed pins the per-shard, per-lane shed accounting.
func TestPipelinePerShardShed(t *testing.T) {
	p := NewPipeline(PipelineConfig{
		Shards:        1,
		QueueCapacity: 2,
		now:           fixedClock(),
		Process:       func(int, []Envelope) []Result { return nil },
	})
	defer p.Close()

	p.Pause()
	for i := 0; i < 2; i++ {
		if err := p.TryEnqueueSource("", fmt.Sprintf("k%d", i), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.TryEnqueueSource("", "k2", []byte("x")); !errors.Is(err, ErrFull) {
		t.Fatalf("overflow = %v, want ErrFull", err)
	}
	st := p.Stats()
	if st.Shed != 1 {
		t.Fatalf("Shed = %d, want 1", st.Shed)
	}
	if len(st.PerShard) != 1 || st.PerShard[0].ShedSteady != 1 || st.PerShard[0].ShedBurst != 0 {
		t.Fatalf("per-shard shed = %+v", st.PerShard)
	}
	p.Resume()
}
