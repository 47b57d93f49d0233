package stream

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// awaitWithProgress returns what done delivers. It fails only once
// progress, the counter that rises as the pipeline works towards done,
// has not moved for stall.
func awaitWithProgress(t *testing.T, done <-chan error, stall time.Duration, what string, progress func() uint64) error {
	t.Helper()
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	last, moved := progress(), time.Now()
	for {
		select {
		case err := <-done:
			return err
		case <-tick.C:
			if n := progress(); n != last {
				last, moved = n, time.Now()
			} else if time.Since(moved) > stall {
				t.Fatalf("no progress towards %s for %v (progress counter at %d)", what, stall, n)
			}
		}
	}
}

// collectProcessor records processed envelopes and answers with a
// configurable per-envelope verdict.
type collectProcessor struct {
	mu      sync.Mutex
	byKey   map[string][]string // key -> payloads in processing order
	verdict func(env Envelope) Result
	batches [][]string
}

func newCollectProcessor(verdict func(env Envelope) Result) *collectProcessor {
	if verdict == nil {
		verdict = func(Envelope) Result { return Result{Outcome: OutcomeCommitted} }
	}
	return &collectProcessor{byKey: make(map[string][]string), verdict: verdict}
}

func (c *collectProcessor) process(_ int, batch []Envelope) []Result {
	c.mu.Lock()
	defer c.mu.Unlock()
	results := make([]Result, len(batch))
	var keys []string
	for i, env := range batch {
		c.byKey[env.Key] = append(c.byKey[env.Key], string(env.Payload))
		keys = append(keys, env.Key)
		results[i] = c.verdict(env)
	}
	c.batches = append(c.batches, keys)
	return results
}

// TestPipelinePerKeyOrdering runs concurrent producers at several shard
// widths and checks every key's envelopes were processed in enqueue order,
// all on the one shard its hash selects modulo the width.
func TestPipelinePerKeyOrdering(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards-%d", shards), func(t *testing.T) {
			proc := newCollectProcessor(nil)
			var wrongShard atomic.Int64
			p := NewPipeline(PipelineConfig{Shards: shards, Process: func(shard int, batch []Envelope) []Result {
				for _, env := range batch {
					if shard != int(keyHash(env.Key)%uint32(shards)) {
						wrongShard.Add(1)
					}
				}
				return proc.process(shard, batch)
			}})
			defer p.Close()

			const keys, perKey = 16, 50
			var wg sync.WaitGroup
			for k := 0; k < keys; k++ {
				wg.Add(1)
				go func(k int) {
					defer wg.Done()
					key := fmt.Sprintf("key-%d", k)
					for i := 0; i < perKey; i++ {
						if err := p.Enqueue(key, []byte(fmt.Sprintf("%d", i))); err != nil {
							t.Error(err)
							return
						}
					}
				}(k)
			}
			wg.Wait()
			p.Flush()

			if n := wrongShard.Load(); n != 0 {
				t.Fatalf("%d envelopes processed off their key's hash-modulo shard", n)
			}
			proc.mu.Lock()
			defer proc.mu.Unlock()
			for k := 0; k < keys; k++ {
				key := fmt.Sprintf("key-%d", k)
				got := proc.byKey[key]
				if len(got) != perKey {
					t.Fatalf("key %s: processed %d of %d", key, len(got), perKey)
				}
				for i, v := range got {
					if v != fmt.Sprintf("%d", i) {
						t.Fatalf("key %s: out of order at %d: %q", key, i, v)
					}
				}
			}
			st := p.Stats()
			if st.Committed != keys*perKey || st.Enqueued != keys*perKey {
				t.Errorf("stats: %+v", st)
			}
			if st.Inflight != 0 || st.Shards != shards {
				t.Errorf("inflight %d, shards %d after flush", st.Inflight, st.Shards)
			}
		})
	}
}

func TestPipelineShedVsBlock(t *testing.T) {
	proc := newCollectProcessor(nil)
	p := NewPipeline(PipelineConfig{Shards: 1, QueueCapacity: 4, Process: proc.process})
	defer p.Close()

	// Paused workers make the capacity bound observable deterministically.
	p.Pause()
	for i := 0; i < 4; i++ {
		if err := p.TryEnqueueSource("", "k", []byte("x")); err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
	}
	if err := p.TryEnqueueSource("", "k", []byte("x")); !errors.Is(err, ErrFull) {
		t.Fatalf("shed mode on full queue: %v", err)
	}
	if p.Stats().Shed != 1 {
		t.Errorf("shed counter: %+v", p.Stats())
	}

	// Block mode parks the producer until the workers free capacity.
	unblocked := make(chan error, 1)
	go func() { unblocked <- p.Enqueue("k", []byte("blocked")) }()
	// A check that something does not happen has no event to wait on, so
	// it samples a 20 ms window: an Enqueue that returns at once fails it,
	// one that returns later slips past it.
	select {
	case err := <-unblocked:
		t.Fatalf("Enqueue returned on a full paused queue: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	p.Resume()
	// The parked producer returns once the workers free a slot; the
	// commits count towards that.
	if err := awaitWithProgress(t, unblocked, 2*time.Second, "Enqueue unblocking after Resume",
		func() uint64 { return p.Stats().Committed }); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	if got := p.Stats().Committed; got != 5 {
		t.Errorf("committed %d, want 5", got)
	}
}

func TestPipelineRetryThenDeadLetter(t *testing.T) {
	var deadEnv Envelope
	var deadErr error
	var deadCount atomic.Int64
	failure := errors.New("transient store failure")
	proc := newCollectProcessor(func(Envelope) Result {
		return Result{Outcome: OutcomeRetry, Err: failure}
	})
	p := NewPipeline(PipelineConfig{
		Shards:  1,
		Process: proc.process,
		OnDead: func(env Envelope, err error) {
			deadEnv, deadErr = env, err
			deadCount.Add(1)
		},
	})
	defer p.Close()

	if err := p.Enqueue("k", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	if deadCount.Load() != 1 {
		t.Fatalf("dead letters: %d", deadCount.Load())
	}
	if string(deadEnv.Payload) != "doomed" || deadEnv.Attempt != 3 {
		t.Errorf("dead envelope: %+v", deadEnv)
	}
	if !errors.Is(deadErr, failure) {
		t.Errorf("dead reason: %v", deadErr)
	}
	st := p.Stats()
	// 3 attempts = initial + 2 re-injections before the budget runs out.
	if st.Retried != 2 || st.DeadLettered != 1 || st.Committed != 0 {
		t.Errorf("stats: %+v", st)
	}
	proc.mu.Lock()
	attempts := len(proc.byKey["k"])
	proc.mu.Unlock()
	if attempts != 3 {
		t.Errorf("processed %d times, want 3", attempts)
	}
}

func TestPipelineRetrySucceedsBeforeBudget(t *testing.T) {
	var calls atomic.Int64
	proc := newCollectProcessor(func(Envelope) Result {
		if calls.Add(1) < 3 {
			return Result{Outcome: OutcomeRetry, Err: errors.New("not yet")}
		}
		return Result{Outcome: OutcomeCommitted}
	})
	p := NewPipeline(PipelineConfig{
		Shards:  1,
		Process: proc.process,
		OnDead:  func(Envelope, error) { t.Error("dead-lettered a recoverable envelope") },
	})
	defer p.Close()
	if err := p.Enqueue("k", []byte("flaky")); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	if st := p.Stats(); st.Committed != 1 || st.Retried != 2 || st.DeadLettered != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestPipelineEnqueueCtxCancelUnblocks(t *testing.T) {
	proc := newCollectProcessor(nil)
	p := NewPipeline(PipelineConfig{Shards: 1, QueueCapacity: 1, Process: proc.process})
	defer p.Close()
	p.Pause()
	if err := p.Enqueue("k", []byte("fill")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	unblocked := make(chan error, 1)
	go func() { unblocked <- p.EnqueueSource(ctx, "", "k", []byte("parked")) }()
	// A negative check samples a window (see TestPipelineShedVsBlock).
	select {
	case err := <-unblocked:
		t.Fatalf("EnqueueSource returned on a full paused queue: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	cancel()
	// The cancellation is the only event and nothing counts towards the
	// return, so the test waits on the return itself: a producer that
	// stays parked is caught by the test binary's -timeout, with every
	// goroutine's stack.
	if err := <-unblocked; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled enqueue: %v", err)
	}
	// The cancelled envelope was never accepted: draining commits one.
	p.Resume()
	p.Flush()
	if st := p.Stats(); st.Committed != 1 || st.Enqueued != 1 {
		t.Errorf("stats after cancel: %+v", st)
	}
}

func TestPipelineEnqueueNotifyWaitsFinalOutcome(t *testing.T) {
	// Two retries before success: the wait group must release only at the
	// final outcome, not after the first failed attempt.
	var calls atomic.Int64
	p := NewPipeline(PipelineConfig{
		Shards: 1,
		Process: func(_ int, batch []Envelope) []Result {
			results := make([]Result, len(batch))
			for i := range batch {
				if calls.Add(1) < 3 {
					results[i] = Result{Outcome: OutcomeRetry, Err: errors.New("not yet")}
				}
			}
			return results
		},
	})
	defer p.Close()
	var done sync.WaitGroup
	if err := p.EnqueueNotify("k", []byte("x"), &done); err != nil {
		t.Fatal(err)
	}
	done.Wait()
	if st := p.Stats(); st.Committed != 1 || st.Retried != 2 {
		t.Errorf("stats after notify wait: %+v", st)
	}
}

func TestPipelineCloseRejectsAndDrains(t *testing.T) {
	proc := newCollectProcessor(nil)
	p := NewPipeline(PipelineConfig{Shards: 2, Process: proc.process})
	for i := 0; i < 100; i++ {
		if err := p.Enqueue(fmt.Sprintf("k%d", i%7), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	p.Close()
	if err := p.Enqueue("k", []byte("late")); !errors.Is(err, ErrClosed) {
		t.Errorf("enqueue after close: %v", err)
	}
	if st := p.Stats(); st.Committed != 100 || st.Inflight != 0 {
		t.Errorf("drain on close: %+v", st)
	}
	p.Close() // idempotent
}

func TestPipelineMicroBatching(t *testing.T) {
	proc := newCollectProcessor(nil)
	p := NewPipeline(PipelineConfig{Shards: 1, Process: proc.process})
	defer p.Close()
	p.Pause()
	const backlog = 2*maxBatch + 8
	for i := 0; i < backlog; i++ {
		if err := p.Enqueue("k", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	if d := p.Depth(); d != backlog {
		t.Fatalf("depth while paused: %d", d)
	}
	p.Resume()
	p.Flush()
	proc.mu.Lock()
	defer proc.mu.Unlock()
	// A paused backlog must drain in multi-event batches, none exceeding
	// the bound.
	if len(proc.batches) >= backlog {
		t.Errorf("no batching: %d batches for %d events", len(proc.batches), backlog)
	}
	for _, batch := range proc.batches {
		if len(batch) > maxBatch {
			t.Errorf("batch exceeds maxBatch: %d", len(batch))
		}
	}
}

func TestPipelineShortResultSliceCommits(t *testing.T) {
	p := NewPipeline(PipelineConfig{
		Shards:  1,
		Process: func(_ int, batch []Envelope) []Result { return nil },
	})
	defer p.Close()
	if err := p.Enqueue("k", []byte("x")); err != nil {
		t.Fatal(err)
	}
	p.Flush()
	if st := p.Stats(); st.Committed != 1 {
		t.Errorf("missing results must default to committed: %+v", st)
	}
}

func TestBusFanOutAndSlowSubscriber(t *testing.T) {
	b := NewBus(nil)
	fast := b.Subscribe(8)
	slow := b.Subscribe(1)
	for i := 0; i < 4; i++ {
		b.Publish([]byte(fmt.Sprintf("m%d", i)))
	}
	for i := 0; i < 4; i++ {
		select {
		case got := <-fast.C:
			if string(got) != fmt.Sprintf("m%d", i) {
				t.Errorf("fast subscriber order: %s", got)
			}
		default:
			t.Fatalf("fast subscriber missing message %d", i)
		}
	}
	// The slow subscriber's buffer of 1 keeps the first message, drops the
	// other three.
	if got := <-slow.C; string(got) != "m0" {
		t.Errorf("slow subscriber head: %s", got)
	}
	var slowStats SubscriberStats
	for _, ss := range b.SubscriberStats() {
		if ss.ID == slow.id {
			slowStats = ss
		}
	}
	if slowStats.Dropped != 3 {
		t.Errorf("slow dropped: %d", slowStats.Dropped)
	}
	st := b.Stats()
	if st.Published != 4 || st.Dropped != 3 || st.Subscribers != 2 {
		t.Errorf("bus stats: %+v", st)
	}
	fast.Cancel()
	fast.Cancel() // idempotent
	if b.Subscribers() != 1 {
		t.Errorf("subscribers after cancel: %d", b.Subscribers())
	}
	if _, open := <-fast.C; open {
		t.Error("cancelled channel still open")
	}
	b.Close()
	if _, open := <-slow.C; open {
		t.Error("bus close must close subscriber channels")
	}
	if b.Publish([]byte("late")) != 0 {
		t.Error("publish after close delivered")
	}
}
