package stream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"sync"
	"testing"
	"time"
)

// refShard is the shard queue as it was before the lanes became rings:
// append-grown slices, dequeued by shifting the tail down. It is kept as
// the model TestPshardMatchesSliceModel holds the ring to — same batches,
// same order, same shed counts — minus the locking and parking, which the
// test drives from outside.
type refShard struct {
	lanes [numLanes]struct {
		queue   []Envelope
		deficit int
	}
	ready    []Envelope
	capacity int
	shed     [numLanes]uint64
}

func (r *refShard) full(l lane) bool { return len(r.lanes[l].queue) >= r.capacity }

func (r *refShard) put(env Envelope, l lane) {
	r.lanes[l].queue = append(r.lanes[l].queue, env)
}

func (r *refShard) queued() int {
	return len(r.lanes[LaneSteady].queue) + len(r.lanes[LaneBurst].queue)
}

func (r *refShard) next(max int, quantum [numLanes]int) []Envelope {
	batch := make([]Envelope, 0, max)
	n := min(max, len(r.ready))
	batch = append(batch, r.ready[:n]...)
	r.ready = append(r.ready[:0], r.ready[n:]...)
	for len(batch) < max && r.queued() > 0 {
		for l := range r.lanes {
			q := &r.lanes[l]
			if len(q.queue) == 0 {
				q.deficit = 0
				continue
			}
			q.deficit += quantum[l]
			take := min(q.deficit, len(q.queue), max-len(batch))
			if take > 0 {
				batch = append(batch, q.queue[:take]...)
				q.queue = append(q.queue[:0], q.queue[take:]...)
				q.deficit -= take
			}
			if len(batch) >= max {
				break
			}
		}
	}
	return batch
}

// sameBatch compares what a batch carries, ignoring the enqueue stamp.
func sameBatch(got, want []Envelope) error {
	if len(got) != len(want) {
		return fmt.Errorf("batch of %d, model has %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Key != w.Key || g.Event != w.Event || string(g.Payload) != string(w.Payload) || g.Attempt != w.Attempt {
			return fmt.Errorf("slot %d: got {%s %v %q %d}, model {%s %v %q %d}",
				i, g.Key, g.Event, g.Payload, g.Attempt, w.Key, w.Event, w.Payload, w.Attempt)
		}
	}
	return nil
}

// TestPshardMatchesSliceModel drives one shard and the slice model with
// the same seeded sequence of operations — enqueues on either lane in shed
// and block mode (so both capacity behaviours fire), dequeues of varying
// size and quanta, retries re-injected through the ready buffer, pauses —
// and requires identical batches in identical order, identical shed
// counts, and a ring with no stale envelope left in a vacated slot.
func TestPshardMatchesSliceModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 4} {
		t.Run("seed-"+strconv.FormatInt(seed, 10), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			capacity := 1 + rng.Intn(12)
			p := &Pipeline{now: time.Now, m: newPipelineFamilies(nil, 1)}
			s := newPshard(capacity, 0, &p.m)
			p.shards = []*pshard{s}
			ref := &refShard{capacity: capacity}
			quantum := [numLanes]int{LaneSteady: 1 + rng.Intn(3), LaneBurst: 1 + rng.Intn(2)}
			var dequeued []Envelope // retry candidates
			seq := 0

			// drain runs one dequeue on both sides; the caller has made sure
			// the shard is unpaused and holds work, so next does not park.
			drain := func(max int) {
				t.Helper()
				got, want := s.next(max, quantum), ref.next(max, quantum)
				if err := sameBatch(got, want); err != nil {
					t.Fatalf("seed %d, after %d enqueues, next(%d): %v", seed, seq, max, err)
				}
				dequeued = append(dequeued[:0], got...)
			}
			newEnvelope := func() Envelope {
				seq++
				env := Envelope{Key: "k" + strconv.Itoa(seq%5)}
				if seq%2 == 0 {
					env.Event = seq
				} else {
					env.Payload = []byte(strconv.Itoa(seq))
				}
				return env
			}

			paused := false
			for step := 0; step < 4000; step++ {
				switch op := rng.Intn(10); {
				case op < 5: // enqueue
					l := lane(rng.Intn(int(numLanes)))
					env := newEnvelope()
					if !ref.full(l) {
						if err := p.put(s, context.Background(), env, l, rng.Intn(2) == 0); err != nil {
							t.Fatalf("put on a lane with room: %v", err)
						}
						ref.put(env, l)
						continue
					}
					if rng.Intn(2) == 0 { // shed mode on a full lane
						if err := p.put(s, context.Background(), env, l, false); !errors.Is(err, ErrFull) {
							t.Fatalf("shed-mode put on a full lane: %v", err)
						}
						ref.shed[l]++
						continue
					}
					// Block mode on a full lane: the producer parks until a
					// dequeue takes from that lane, then lands behind it.
					if paused {
						s.setPaused(false)
						paused = false
					}
					done := make(chan error, 1)
					go func() { done <- p.put(s, context.Background(), env, l, true) }()
					for ref.full(l) {
						select {
						case err := <-done:
							t.Fatalf("block-mode put returned on a full lane: %v", err)
						default:
						}
						drain(1 + rng.Intn(capacity+2))
					}
					if err := <-done; err != nil {
						t.Fatal(err)
					}
					ref.put(env, l)
				case op < 8: // dequeue
					if ref.queued()+len(ref.ready) == 0 {
						continue
					}
					if paused {
						s.setPaused(false)
						paused = false
					}
					drain(1 + rng.Intn(2*capacity+2))
				case op < 9: // a retry comes due
					if len(dequeued) == 0 {
						continue
					}
					env := dequeued[rng.Intn(len(dequeued))]
					env.Attempt++
					s.requeueReady(env)
					ref.ready = append(ref.ready, env)
				default:
					paused = !paused
					s.setPaused(paused)
				}
				if st := s.stats(); st.Steady != len(ref.lanes[LaneSteady].queue) ||
					st.Burst != len(ref.lanes[LaneBurst].queue) || st.Ready != len(ref.ready) ||
					st.ShedSteady != ref.shed[LaneSteady] || st.ShedBurst != ref.shed[LaneBurst] {
					t.Fatalf("seed %d step %d: stats %+v, model steady %d burst %d ready %d shed %v",
						seed, step, st, len(ref.lanes[LaneSteady].queue), len(ref.lanes[LaneBurst].queue),
						len(ref.ready), ref.shed)
				}
			}
			s.setPaused(false)
			for ref.queued()+len(ref.ready) > 0 {
				drain(1 + rng.Intn(capacity+2))
			}
			if got := p.Stats().Shed; got != ref.shed[LaneSteady]+ref.shed[LaneBurst] {
				t.Errorf("pipeline shed counter %d, model %d", got, ref.shed[LaneSteady]+ref.shed[LaneBurst])
			}
			for l := range s.lanes {
				for i, slot := range s.lanes[l].ring {
					if !reflect.ValueOf(slot).IsZero() {
						t.Errorf("lane %d slot %d keeps %+v after the drain", l, i, slot)
					}
				}
			}
			for i, slot := range s.ready[:cap(s.ready)] {
				if !reflect.ValueOf(slot).IsZero() {
					t.Errorf("ready slot %d keeps %+v after the drain", i, slot)
				}
			}
		})
	}
}

// TestPshardNextAllocatesOnlyTheBatch: a dequeue from a full-depth lane
// allocates the batch slice and nothing else, and the refill allocates
// nothing at all.
func TestPshardNextAllocatesOnlyTheBatch(t *testing.T) {
	const depth, batch = 1024, 64
	p := &Pipeline{now: time.Now, m: newPipelineFamilies(nil, 1)}
	s := newPshard(depth, 0, &p.m)
	ev := &struct{ n int }{1}
	fill := func(n int) {
		for i := 0; i < n; i++ {
			if err := p.put(s, context.Background(), Envelope{Key: "k", Event: ev}, LaneSteady, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	fill(depth)
	quantum := [numLanes]int{LaneSteady: 2, LaneBurst: 1}
	if n := testing.AllocsPerRun(100, func() {
		if got := s.next(batch, quantum); len(got) != batch {
			t.Fatalf("batch of %d", len(got))
		}
		fill(batch)
	}); n > 1 {
		t.Errorf("next+refill at depth %d allocates %v times, want at most 1 (the batch)", depth, n)
	}
}

// TestPipelineCtxCancelWhileParkedAmongMany covers the cancellation hook
// being registered late — by the producer that finds the lane full, inside
// the wait — with many producers parked on one lane at once: some are
// cancelled while parked, the rest are let through by a drain, and every
// one of them returns, accepted or with its context's error.
func TestPipelineCtxCancelWhileParkedAmongMany(t *testing.T) {
	proc := newCollectProcessor(nil)
	p := NewPipeline(PipelineConfig{Shards: 1, QueueCapacity: 2, Process: proc.process})
	defer p.Close()
	p.Pause()
	for i := 0; i < 2; i++ {
		if err := p.Enqueue("k", []byte("fill")); err != nil {
			t.Fatal(err)
		}
	}

	// A context already cancelled: a full lane refuses at once.
	gone, cancelGone := context.WithCancel(context.Background())
	cancelGone()
	if err := p.EnqueueSource(gone, "", "k", 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context on a full lane: %v", err)
	}

	const producers = 16
	cancels := make([]context.CancelFunc, producers)
	errs := make([]error, producers)
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancels[i] = cancel
		defer cancel()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = p.EnqueueSource(ctx, "", "k", i)
		}(i)
	}
	time.Sleep(10 * time.Millisecond) // let most of them park; the rest register even later
	for i := 0; i < producers; i += 2 {
		cancels[i]()
	}
	p.Resume()
	wg.Wait()
	p.Flush()

	accepted := 0
	for i, err := range errs {
		switch {
		case err == nil:
			accepted++
		case i%2 == 0 && errors.Is(err, context.Canceled):
		default:
			t.Errorf("producer %d: %v", i, err)
		}
	}
	if accepted < producers/2 {
		t.Errorf("%d accepted, want at least the %d uncancelled producers", accepted, producers/2)
	}
	if st := p.Stats(); st.Enqueued != uint64(2+accepted) || st.Committed != st.Enqueued || st.Inflight != 0 {
		t.Errorf("stats %+v with %d accepted", st, accepted)
	}
}

// BenchmarkPipelineDequeue times one 64-envelope dequeue plus the refill
// that keeps the lane at its depth. The dequeue touches the slots it
// takes, not the lane: ns/op must not grow with depth.
func BenchmarkPipelineDequeue(b *testing.B) {
	for _, depth := range []int{64, 1024} {
		b.Run("depth-"+strconv.Itoa(depth), func(b *testing.B) {
			const batch = 64
			p := &Pipeline{now: time.Now, m: newPipelineFamilies(nil, 1)}
			s := newPshard(depth, 0, &p.m)
			env := Envelope{Key: "k", Event: &struct{ n int }{1}}
			for i := 0; i < depth; i++ {
				if err := p.put(s, context.Background(), env, LaneSteady, false); err != nil {
					b.Fatal(err)
				}
			}
			quantum := [numLanes]int{LaneSteady: 2, LaneBurst: 1}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got := s.next(batch, quantum)
				for range got {
					if err := p.put(s, context.Background(), env, LaneSteady, false); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
