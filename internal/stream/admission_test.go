package stream

import (
	"context"
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
	const rate = 250 // steady depth 500, burst depth 1 000
	p := NewPipeline(PipelineConfig{
		Shards:        1,
		QueueCapacity: 2048,
		now:           fixedClock(),
		AdmissionRate: rate,
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

	// The hot source spends its steady tokens first; the frozen clock
	// never refills them, so its whole feed below rides the burst lane.
	for i := 0; i < steadyDepthSecs*rate; i++ {
		if err := p.EnqueueSource(context.Background(), "hot.example.com", fmt.Sprintf("warm-%d", i), []byte("w")); err != nil {
			t.Fatal(err)
		}
	}
	p.Flush()
	orderMu.Lock()
	order = nil
	orderMu.Unlock()

	p.Pause()
	const burstN, steadyN = 900, 100
	for i := 0; i < burstN; i++ {
		if err := p.EnqueueSource(context.Background(), "hot.example.com", fmt.Sprintf("burst-%d", i), []byte("b")); err != nil {
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
	// Depths: 2 steady tokens (2 s at 1/s), 4 burst tokens (4 s at 1/s).
	a := newAdmission(1, now, newPipelineFamilies(nil, 1).admission)

	for i := 0; i < 2; i++ {
		if d := a.admit("src"); d.throttled || d.lane != LaneSteady {
			t.Fatalf("admit %d: %+v, want steady", i, d)
		}
	}
	for i := 0; i < 4; i++ {
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
	if s := stats[1]; s.Steady != 3 || s.Burst != 4 || s.Throttled != 1 {
		t.Fatalf("src counters = %+v", s)
	}
}

func TestPipelineThrottledEnqueue(t *testing.T) {
	p := NewPipeline(PipelineConfig{
		Shards:        1,
		now:           fixedClock(),
		AdmissionRate: 0.5, // one steady token, two burst tokens
		Process:       func(int, []Envelope) []Result { return nil },
	})
	defer p.Close()

	for _, key := range []string{"k1", "k2", "k3"} {
		if err := p.EnqueueSource(context.Background(), "src", key, []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	err := p.EnqueueSource(context.Background(), "src", "k4", []byte("x"))
	if !errors.Is(err, ErrThrottled) {
		t.Fatalf("fourth enqueue = %v, want ErrThrottled", err)
	}
	var te *ThrottleError
	if !errors.As(err, &te) || te.RetryAfter <= 0 {
		t.Fatalf("throttle error carries no retry hint: %v", err)
	}
	p.Flush()
	st := p.Stats()
	if st.Throttled != 1 || st.Enqueued != 3 {
		t.Fatalf("throttled=%d enqueued=%d, want 1/3", st.Throttled, st.Enqueued)
	}
}

// TestPipelineAdmissionKeepsKeyOrder: admission moves a source to the
// burst lane once its steady tokens are spent, but a key with envelopes
// still queued on the steady lane keeps riding it. Were the later
// envelopes to take the burst lane, the weighted scheduler's first pass
// would dispatch one of them ahead of the key's steady envelopes queued
// behind the fillers.
func TestPipelineAdmissionKeepsKeyOrder(t *testing.T) {
	at := time.Unix(1_700_000_000, 0)
	var mu sync.Mutex
	var got []int
	p := NewPipeline(PipelineConfig{
		Shards:        1,
		now:           func() time.Time { return at },
		AdmissionRate: 1, // steady depth 2, burst depth 4
		Process: func(_ int, batch []Envelope) []Result {
			mu.Lock()
			defer mu.Unlock()
			for _, env := range batch {
				if env.Key == "story" {
					got = append(got, env.Event.(int))
				}
			}
			return nil
		},
	})
	defer p.Close()
	p.Pause()

	const fillers, perKey = 200, 6
	for i := 0; i < fillers; i++ {
		if err := p.Enqueue(fmt.Sprintf("filler-%d", i), []byte("f")); err != nil {
			t.Fatal(err)
		}
	}
	// Envelopes 0-1 are admitted steady and 2-4 burst; a second later the
	// refilled steady bucket admits 5 steady again.
	for i := 0; i < perKey; i++ {
		if i == perKey-1 {
			at = at.Add(time.Second)
		}
		if err := p.EnqueueSource(context.Background(), "hot.example.com", "story", i); err != nil {
			t.Fatal(err)
		}
	}
	if src := p.Stats().Admission; len(src) != 1 || src[0].Steady != 3 || src[0].Burst != 3 {
		t.Fatalf("admission decisions %+v, want 3 steady and 3 burst", src)
	}
	if st := p.Stats().PerShard[0]; st.Steady != fillers+perKey || st.Burst != 0 {
		t.Fatalf("lane split %+v, want %d steady / 0 burst", st, fillers+perKey)
	}
	p.Resume()
	p.Flush()

	mu.Lock()
	defer mu.Unlock()
	if len(got) != perKey {
		t.Fatalf("processed %d of the key's %d envelopes", len(got), perKey)
	}
	for i, n := range got {
		if n != i {
			t.Fatalf("key processed in order %v, want enqueue order", got)
		}
	}
	if len(p.shards[0].pins) != 0 {
		t.Errorf("pins left after the drain: %v", p.shards[0].pins)
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
