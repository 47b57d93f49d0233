package stream

import (
	"context"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// pipelineFamilies is the pipeline's telemetry on one registry; Stats
// reads it back. Per-shard children are resolved at shard construction,
// so the per-envelope record calls are allocation-free.
type pipelineFamilies struct {
	queueWait, retryBackoff, deadAge *obs.HistogramVec
	shed, admission                  *obs.CounterVec
	batches                          *obs.Histogram
	enqueued, committed, dead        *obs.Counter
}

func newPipelineFamilies(r *obs.Registry, shards int) pipelineFamilies {
	r.NewGauge("scilens_pipeline_shards",
		"Pipeline worker-shard count, fixed at construction.").Set(int64(shards))
	return pipelineFamilies{
		queueWait: r.NewDurationHistogramVec("scilens_pipeline_queue_wait_seconds",
			"Time a first-delivery envelope spent queued on its shard before a worker drained it.", "shard"),
		retryBackoff: r.NewDurationHistogramVec("scilens_pipeline_retry_backoff_seconds",
			"Backoff delays scheduled for retried envelopes.", "shard"),
		deadAge: r.NewDurationHistogramVec("scilens_pipeline_dead_letter_age_seconds",
			"Envelope age (since first enqueue) at the moment of dead-lettering.", "shard"),
		shed: r.NewCounterVec("scilens_pipeline_shed_total",
			"Envelopes rejected at enqueue because a shard lane was full, by shard and lane.", "shard", "lane"),
		admission: r.NewCounterVec("scilens_pipeline_admission_total",
			"Per-source admission decisions by outcome (steady, burst, throttled).", "decision"),
		batches: r.NewSizeHistogram("scilens_pipeline_batch_records",
			"Micro-batch sizes drained per processing round."),
		enqueued: r.NewCounter("scilens_pipeline_enqueued_total",
			"Envelopes accepted onto a shard lane."),
		committed: r.NewCounter("scilens_pipeline_committed_total",
			"Envelopes the batch processor committed."),
		dead: r.NewCounter("scilens_pipeline_dead_lettered_total",
			"Envelopes handed to the dead-letter callback."),
	}
}

// lane selects one of a shard's two priority queues. The steady lane
// carries baseline traffic; the burst lane carries a hot source's
// overflow, dequeued at lower weight so one viral story cannot starve
// every other source's feed.
type lane int

const (
	// LaneSteady is the default, higher-weight lane.
	LaneSteady lane = iota
	// LaneBurst is the lower-weight overflow lane admission routes a hot
	// source to once its steady budget is spent.
	LaneBurst
	numLanes
)

func (l lane) String() string {
	if l == LaneBurst {
		return "burst"
	}
	return "steady"
}

// Pipeline is the asynchronous staged-ingestion engine: producers enqueue
// keyed envelopes onto sharded bounded queues (key routing preserves
// per-key ordering, e.g. an article's posting always precedes its
// reactions), and one worker per shard drains micro-batches through a
// caller-supplied batch processor. Per-envelope outcomes drive the rest of
// the machinery:
// failures retry on the same shard with capped exponential backoff and
// are handed to the dead-letter callback once the attempt budget is
// exhausted.
//
// The shard set is fixed at construction and a key's shard is its hash
// modulo the shard count. Each shard runs two priority lanes
// drained under deficit-weighted round-robin; per-source token-bucket
// admission (PipelineConfig.AdmissionRate) decides which lane a source's
// traffic rides in, or throttles it outright. Without admission every
// envelope rides the steady lane.
//
// An envelope carries what its producer already holds — a decoded event
// (EnqueueSource and friends) or raw bytes (Enqueue, EnqueueNotify) — and
// the pipeline moves it without looking inside.
//
// Backpressure is explicit and caller-selectable: Enqueue blocks while the
// target lane is at capacity, TryEnqueueSource sheds with ErrFull (the API
// layer's 429 path). Flush waits for every accepted envelope to reach a
// final outcome (committed or dead-lettered), which is what makes a
// graceful drain possible; Close drains and stops the workers.
type Pipeline struct {
	cfg PipelineConfig
	now func() time.Time
	wg  sync.WaitGroup

	shards []*pshard

	admission *admission
	rate      drainRate
	m         pipelineFamilies

	// inflight counts envelopes accepted but not yet at a final outcome
	// (queued, in a batch, or waiting out a retry backoff). Flush waits for
	// it to reach zero.
	inflight atomic.Int64
	idleMu   sync.Mutex
	idleCond *sync.Cond

	closed atomic.Bool
}

// Envelope is one event moving through the pipeline, in the one
// representation its producer held: exactly one of Event and Payload is
// set, and the pipeline converts neither. Attempt counts completed
// processing attempts (0 on first delivery).
type Envelope struct {
	// Key is the routing key; envelopes sharing a key are processed in
	// enqueue order on one shard.
	Key string
	// Event is the decoded event of an envelope enqueued through
	// EnqueueSource and friends, opaque to the pipeline (the batch
	// processor knows its type). The producer gave it up at enqueue: nothing
	// may modify what it points to afterwards.
	Event any
	// Payload is the raw event body of an envelope enqueued through Enqueue
	// or EnqueueNotify.
	Payload []byte
	// Attempt is the number of failed processing attempts so far.
	Attempt int

	// notify, when set (EnqueueNotify), is marked done once the envelope
	// reaches its final outcome. It rides along through retries.
	notify *sync.WaitGroup
	// enqueuedNs is the clock's nanosecond stamp of the first enqueue; it
	// rides along through retries and feeds the queue-wait and
	// dead-letter-age telemetry.
	enqueuedNs int64
}

// Outcome classifies one envelope's processing result.
type Outcome int

const (
	// OutcomeCommitted marks the envelope fully processed.
	OutcomeCommitted Outcome = iota
	// OutcomeRetry schedules the envelope for re-processing after a capped
	// exponential backoff; once the attempt budget is spent it dead-letters.
	OutcomeRetry
	// OutcomeDead dead-letters the envelope immediately (permanent
	// failures: malformed payloads, unparseable documents).
	OutcomeDead
)

// Result is one envelope's outcome from the batch processor. Err carries
// the failure reason for retries and dead letters.
type Result struct {
	Outcome Outcome
	Err     error
}

// PipelineConfig configures NewPipeline. Process is required; everything
// else has working defaults.
type PipelineConfig struct {
	// Shards is the queue/worker count (default 4). Per-key ordering holds
	// within a shard, so more shards buy parallelism across keys.
	Shards int
	// QueueCapacity bounds each shard lane's queue (default 1024). A full
	// lane blocks Enqueue and sheds TryEnqueueSource. A lane is a ring of
	// this many 80-byte slots, allocated whole the first time the lane is
	// used.
	QueueCapacity int
	// AdmissionRate, when positive, enables per-source token-bucket
	// admission at this many events/sec on the source-aware enqueue paths
	// (EnqueueSource and TryEnqueueSource). 0 admits everything to the
	// steady lane.
	AdmissionRate float64
	// Metrics is the registry the pipeline's families live on (nil: a
	// private one).
	Metrics *obs.Registry
	// Process handles one micro-batch for one shard and returns one Result
	// per envelope, index-aligned (a short result slice treats the missing
	// tail as committed). It runs concurrently across shards and must be
	// safe for that. The shard argument is the shard's index.
	Process func(shard int, batch []Envelope) []Result
	// OnDead, when set, receives every dead-lettered envelope with its
	// final failure reason (the platform writes it to the dead_letters
	// table).
	OnDead func(env Envelope, err error)

	// now is the clock for envelope stamps, admission refill and the
	// drain-rate estimator (nil: time.Now; only elapsed time is read from
	// it, so it must advance). Only this package's tests set it.
	now func() time.Time
}

const (
	// maxBatch is the micro-batch size a worker drains per round — the
	// amortisation unit for batched evaluation and batched store commits.
	maxBatch = 64
	// maxAttempts is the per-envelope attempt budget before
	// dead-lettering; a retry waits retryBackoff, doubling per attempt
	// up to maxRetryBackoff.
	maxAttempts     = 3
	retryBackoff    = 5 * time.Millisecond
	maxRetryBackoff = 250 * time.Millisecond
	// steadyWeight and burstWeight are the deficit-round-robin dequeue
	// quanta of the two priority lanes: per scheduling pass a backlogged
	// steady lane is granted steadyWeight envelopes for every burstWeight
	// granted to a backlogged burst lane.
	steadyWeight = 2
	burstWeight  = 1
)

// laneQueue is one priority lane's FIFO — a fixed ring, so a dequeue
// touches only the slots it takes — plus its deficit-round-robin credit
// balance. The ring is allocated whole on the lane's first enqueue: the
// burst lane stays empty for good unless admission is configured, and a
// lane's worth of slots per shard is too much to hold for that.
type laneQueue struct {
	capacity int
	ring     []Envelope // nil until first used, then capacity slots
	head     int        // index of the oldest envelope
	n        int        // envelopes queued
	deficit  int
}

// full reports whether every slot is taken.
func (q *laneQueue) full() bool { return q.n >= q.capacity }

// push appends env; the caller has checked the lane is not full.
func (q *laneQueue) push(env Envelope) {
	if q.ring == nil {
		q.ring = make([]Envelope, q.capacity)
	}
	i := q.head + q.n
	if i >= len(q.ring) {
		i -= len(q.ring)
	}
	q.ring[i] = env
	q.n++
}

// popTo moves the take oldest envelopes onto batch. The vacated slots are
// zeroed: a stale slot would keep its event (a posting's whole markup)
// reachable until the ring wrapped around to it.
func (q *laneQueue) popTo(batch []Envelope, take int) []Envelope {
	first := min(take, len(q.ring)-q.head)
	batch = append(batch, q.ring[q.head:q.head+first]...)
	clear(q.ring[q.head : q.head+first])
	batch = append(batch, q.ring[:take-first]...)
	clear(q.ring[:take-first])
	q.head += take
	if q.head >= len(q.ring) {
		q.head -= len(q.ring)
	}
	q.n -= take
	return batch
}

// pshard is one worker shard: two bounded priority lanes and the retry
// re-injection buffer. ready holds envelopes whose backoff elapsed; they
// bypass the capacity bound (their slot was accounted for when first
// enqueued) and are drained ahead of the lanes.
//
// pins exists only under admission. It pins a key to one lane while any
// of its envelopes are queued there or a producer of it is parked on
// that lane: admission may classify a cascade's later events differently
// (the source's steady bucket refilled, say), but letting one key span
// both lanes would let the weighted scheduler reorder it.
type pshard struct {
	// id is the shard's index; the batch processor and the telemetry
	// labels receive it.
	id int

	mu       sync.Mutex
	notEmpty *sync.Cond
	notFull  *sync.Cond
	lanes    [numLanes]laneQueue
	ready    []Envelope
	pins     map[string]lanePin // nil without admission
	paused   bool
	stopped  bool

	// Telemetry handles for this shard's label set: obsRetry counts the
	// shard's retries and obsShed its per-lane rejections.
	obsQueueWait *obs.Histogram
	obsRetry     *obs.Histogram
	obsDead      *obs.Histogram
	obsShed      [numLanes]*obs.Counter
}

// lanePin is a key's lane and the number of its envelopes queued or
// parked there.
type lanePin struct {
	l lane
	n int
}

func newPshard(capacity, id int, m *pipelineFamilies) *pshard {
	label := strconv.Itoa(id)
	s := &pshard{
		id:           id,
		obsQueueWait: m.queueWait.With(label),
		obsRetry:     m.retryBackoff.With(label),
		obsDead:      m.deadAge.With(label),
	}
	for l := lane(0); l < numLanes; l++ {
		s.lanes[l].capacity = capacity
		s.obsShed[l] = m.shed.With(label, l.String())
	}
	s.notEmpty = sync.NewCond(&s.mu)
	s.notFull = sync.NewCond(&s.mu)
	return s
}

// NewPipeline builds and starts the pipeline workers.
func NewPipeline(cfg PipelineConfig) *Pipeline {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	if cfg.QueueCapacity <= 0 {
		cfg.QueueCapacity = 1024
	}
	if cfg.now == nil {
		cfg.now = time.Now //scilint:ignore determinism production default only; tests inject their clock
	}
	p := &Pipeline{cfg: cfg, now: cfg.now, m: newPipelineFamilies(cfg.Metrics, cfg.Shards)}
	p.idleCond = sync.NewCond(&p.idleMu)
	if cfg.AdmissionRate > 0 {
		p.admission = newAdmission(cfg.AdmissionRate, p.now, p.m.admission)
	}
	for i := 0; i < cfg.Shards; i++ {
		s := newPshard(cfg.QueueCapacity, i, &p.m)
		if p.admission != nil {
			s.pins = make(map[string]lanePin)
		}
		p.shards = append(p.shards, s)
		p.wg.Add(1)
		go p.worker(s)
	}
	return p
}

// Enqueue routes a raw-bytes envelope to its key's shard, blocking while
// the steady lane is at capacity (the backpressure-by-blocking mode). It is
// the entry for producers that hold bytes, not an event — dead-letter
// replay above all; what the bytes mean is the batch processor's business.
func (p *Pipeline) Enqueue(key string, payload []byte) error {
	return p.enqueue(context.Background(), "", Envelope{Key: key, Payload: payload}, true)
}

// EnqueueNotify behaves like Enqueue and additionally marks wg done when
// the envelope reaches its final outcome (committed or dead-lettered,
// after any retries) — the hook dead-letter replay uses to wait for its
// own envelopes without flushing the whole pipeline.
func (p *Pipeline) EnqueueNotify(key string, payload []byte, wg *sync.WaitGroup) error {
	return p.enqueue(context.Background(), "", Envelope{Key: key, Payload: payload, notify: wg}, true)
}

// EnqueueSource enqueues a decoded event in blocking mode, first running
// it through per-source admission (when configured and source is not ""):
// the source's token buckets decide the lane, or reject with a
// ThrottleError carrying a retry hint. While the lane is full it waits,
// until ctx is cancelled, which it reports as the context error — so an
// abandoned HTTP client cannot park a goroutine on a full shard forever.
// The pipeline owns event from here on; the caller must not modify what
// it points to.
func (p *Pipeline) EnqueueSource(ctx context.Context, source, key string, event any) error {
	return p.enqueue(ctx, source, Envelope{Key: key, Event: event}, true)
}

// TryEnqueueSource is EnqueueSource in load-shedding mode: a full lane
// sheds with ErrFull instead of blocking.
func (p *Pipeline) TryEnqueueSource(source, key string, event any) error {
	return p.enqueue(context.Background(), source, Envelope{Key: key, Event: event}, false)
}

func (p *Pipeline) enqueue(ctx context.Context, source string, env Envelope, block bool) error {
	if p.closed.Load() {
		return ErrClosed
	}
	want := LaneSteady
	if p.admission != nil && source != "" {
		dec := p.admission.admit(source)
		if dec.throttled {
			return &ThrottleError{RetryAfter: dec.retryAfter}
		}
		want = dec.lane
	}
	s := p.shards[keyHash(env.Key)%uint32(len(p.shards))]
	return p.put(s, ctx, env, want, block)
}

// put inserts the envelope on shard s, blocking (or shedding) while the
// lane is at capacity. The lane is want unless the key is pinned to the
// other one; a parked producer holds its key's pin while it waits, so it
// cannot wake into a lane its key has left.
func (p *Pipeline) put(s *pshard, ctx context.Context, env Envelope, want lane, block bool) error {
	s.mu.Lock()
	l := s.pinLocked(env.Key, want)
	q := &s.lanes[l]
	var err error
	if q.full() && !s.stopped {
		if block {
			err = s.waitNotFullLocked(ctx, q)
		} else {
			err = ErrFull
			s.obsShed[l].Inc()
		}
	}
	if err == nil && s.stopped {
		err = ErrClosed
	}
	if err != nil {
		s.unpinLocked(env.Key)
		s.mu.Unlock()
		return err
	}
	// Count the envelope in-flight before it becomes visible to a worker,
	// or a fast worker could retire it first and Flush would see a
	// transient zero with work still outstanding.
	p.inflight.Add(1)
	p.m.enqueued.Inc()
	if env.notify != nil {
		env.notify.Add(1)
	}
	env.enqueuedNs = p.now().UnixNano()
	q.push(env)
	s.mu.Unlock()
	s.notEmpty.Broadcast()
	return nil
}

// pinLocked returns the lane key's envelope rides: the lane the key is
// pinned to, else want, which it pins. Without admission it is want and
// no map is touched. Callers hold s.mu.
func (s *pshard) pinLocked(key string, want lane) lane {
	if s.pins == nil {
		return want
	}
	pin, ok := s.pins[key]
	if !ok {
		pin.l = want
	}
	pin.n++
	s.pins[key] = pin
	return pin.l
}

// unpinLocked drops one envelope from key's pin; the last unpins the key.
// Callers hold s.mu.
func (s *pshard) unpinLocked(key string) {
	if s.pins == nil {
		return
	}
	if pin := s.pins[key]; pin.n > 1 {
		pin.n--
		s.pins[key] = pin
	} else {
		delete(s.pins, key)
	}
}

// waitNotFullLocked parks the producer until lane q has a free slot or the
// shard stops, or until ctx is cancelled, which it reports as the context
// error. Callers hold s.mu. Only a producer that gets here with a
// cancellable ctx pays for the cancellation hook; the common enqueue never
// parks.
func (s *pshard) waitNotFullLocked(ctx context.Context, q *laneQueue) error {
	if ctx.Done() != nil {
		// Wake the wait loop below on cancellation. Broadcasting under the
		// shard lock pairs with the loop's ctx re-check: the waiter either
		// sees the error before parking or is woken after. (stop never
		// waits for the hook, so calling it with s.mu held is safe.)
		stop := context.AfterFunc(ctx, func() {
			s.mu.Lock()
			defer s.mu.Unlock()
			s.notFull.Broadcast()
		})
		defer stop()
	}
	for q.full() && !s.stopped {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.notFull.Wait()
	}
	return nil
}

// queuedLocked is the total lane occupancy. Callers hold s.mu.
func (s *pshard) queuedLocked() int {
	total := 0
	for l := range s.lanes {
		total += s.lanes[l].n
	}
	return total
}

// requeueReady re-injects an envelope whose retry backoff elapsed; it is
// drained ahead of the lanes so a retried event does not fall behind its
// shard's backlog forever.
func (s *pshard) requeueReady(env Envelope) {
	s.mu.Lock()
	s.ready = append(s.ready, env)
	s.mu.Unlock()
	s.notEmpty.Broadcast()
}

// next blocks until the shard has dispatchable work (or is stopped and
// empty) and returns up to max envelopes: due retries first, then the
// lanes under deficit-weighted round-robin. Each pass grants every
// backlogged lane its quantum, so a saturated burst lane cannot starve
// the steady feed — and an empty lane's deficit resets rather than
// banking credit it would later dump as a latency spike. An envelope
// leaving its lane drops its key's pin; every lane envelope is a first
// delivery (retries come back through ready, unpinned).
func (s *pshard) next(max int, quantum [numLanes]int) []Envelope {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.stopped && s.queuedLocked() == 0 && len(s.ready) == 0 {
			return nil
		}
		if !s.paused && (s.queuedLocked() > 0 || len(s.ready) > 0) {
			break
		}
		s.notEmpty.Wait()
	}
	batch := make([]Envelope, 0, min(max, s.queuedLocked()+len(s.ready)))
	n := min(max, len(s.ready))
	batch = append(batch, s.ready[:n]...)
	s.ready = slices.Delete(s.ready, 0, n) // zeroes the vacated tail
	fromLanes := false
	for len(batch) < max && s.queuedLocked() > 0 {
		for l := range s.lanes {
			q := &s.lanes[l]
			if q.n == 0 {
				q.deficit = 0
				continue
			}
			q.deficit += quantum[l]
			take := min(q.deficit, q.n, max-len(batch))
			if take > 0 {
				batch = q.popTo(batch, take)
				q.deficit -= take
				fromLanes = true
				if s.pins != nil {
					for _, env := range batch[len(batch)-take:] {
						s.unpinLocked(env.Key)
					}
				}
			}
			if len(batch) >= max {
				break
			}
		}
	}
	if fromLanes {
		s.notFull.Broadcast()
	}
	return batch
}

func (s *pshard) setPaused(v bool) {
	s.mu.Lock()
	s.paused = v
	s.mu.Unlock()
	s.notEmpty.Broadcast()
}

func (s *pshard) stop() {
	s.mu.Lock()
	s.stopped = true
	s.mu.Unlock()
	s.notEmpty.Broadcast()
	s.notFull.Broadcast()
}

func (s *pshard) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queuedLocked() + len(s.ready)
}

func (p *Pipeline) worker(s *pshard) {
	defer p.wg.Done()
	quantum := [numLanes]int{LaneSteady: steadyWeight, LaneBurst: burstWeight}
	for {
		batch := s.next(maxBatch, quantum)
		if batch == nil {
			return
		}
		p.m.batches.Observe(int64(len(batch)))
		drained := p.now().UnixNano()
		for i := range batch {
			// Retried envelopes (Attempt > 0) arrive via the ready buffer;
			// their wait is the scheduled backoff, recorded separately.
			if env := &batch[i]; env.Attempt == 0 && env.enqueuedNs > 0 {
				s.obsQueueWait.Observe(drained - env.enqueuedNs)
			}
		}
		results := p.cfg.Process(s.id, batch)
		for j, env := range batch {
			var res Result
			if j < len(results) {
				res = results[j]
			}
			switch res.Outcome {
			case OutcomeCommitted:
				p.m.committed.Inc()
				p.retire(env)
			case OutcomeRetry:
				env.Attempt++
				if env.Attempt >= maxAttempts {
					p.deadLetter(s, env, res.Err)
					break
				}
				env := env
				backoff := p.backoffFor(env.Attempt)
				s.obsRetry.ObserveDuration(backoff)
				time.AfterFunc(backoff, func() { s.requeueReady(env) })
			case OutcomeDead:
				p.deadLetter(s, env, res.Err)
			}
		}
		p.noteDrain()
	}
}

// backoffFor doubles the base delay per completed attempt, capped at
// maxRetryBackoff, then jitters over the upper half of the result: a batch of
// envelopes failing together (one stalled dependency fails a whole
// micro-batch at once) spreads its retries out instead of re-arriving as
// the same synchronized herd every round.
func (p *Pipeline) backoffFor(attempt int) time.Duration {
	d := retryBackoff
	for i := 1; i < attempt; i++ {
		d *= 2
		if d >= maxRetryBackoff {
			d = maxRetryBackoff
			break
		}
	}
	d = min(d, maxRetryBackoff)
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)+1)) //scilint:ignore determinism retry jitter is cadence, not data: no stored row depends on it
}

func (p *Pipeline) deadLetter(s *pshard, env Envelope, err error) {
	p.m.dead.Inc()
	if env.enqueuedNs > 0 {
		s.obsDead.Observe(p.now().UnixNano() - env.enqueuedNs)
	}
	if p.cfg.OnDead != nil {
		p.cfg.OnDead(env, err)
	}
	p.retire(env)
}

// retire marks one envelope's final outcome: it releases any
// EnqueueNotify waiter and wakes Flush when the pipeline idles.
func (p *Pipeline) retire(env Envelope) {
	if env.notify != nil {
		env.notify.Done()
	}
	if p.inflight.Add(-1) == 0 {
		p.idleMu.Lock()
		p.idleCond.Broadcast()
		p.idleMu.Unlock()
	}
}

// Flush blocks until every accepted envelope has reached a final outcome
// (committed or dead-lettered), including envelopes waiting out a retry
// backoff. It does not stop the workers and must not be called while the
// pipeline is paused with work pending.
func (p *Pipeline) Flush() {
	p.idleMu.Lock()
	defer p.idleMu.Unlock()
	for p.inflight.Load() != 0 {
		p.idleCond.Wait()
	}
}

// Pause stops the workers from starting new batches (in-flight batches
// complete). Producers keep enqueueing until the queues fill.
func (p *Pipeline) Pause() {
	for _, s := range p.shards {
		s.setPaused(true)
	}
}

// Resume undoes Pause.
func (p *Pipeline) Resume() {
	for _, s := range p.shards {
		s.setPaused(false)
	}
}

// Close drains the pipeline gracefully: new enqueues fail with ErrClosed,
// every accepted envelope is processed to a final outcome, then the
// workers exit. Safe to call more than once.
func (p *Pipeline) Close() {
	if p.closed.Swap(true) {
		p.wg.Wait()
		return
	}
	p.Resume()
	p.Flush()
	for _, s := range p.shards {
		s.stop()
	}
	p.wg.Wait()
}

// Depth returns the total queued-envelope count across shards (excluding
// envelopes waiting out a retry backoff).
func (p *Pipeline) Depth() int {
	total := 0
	for _, s := range p.shards {
		total += s.depth()
	}
	return total
}

// Shards returns the shard count.
func (p *Pipeline) Shards() int { return len(p.shards) }

// Capacity returns the steady-lane queue bound summed over the shards.
func (p *Pipeline) Capacity() int { return len(p.shards) * p.cfg.QueueCapacity }

// RetryAfter estimates how long a shed producer should wait before
// retrying: the queued backlog over the recent drain rate, clamped to
// [1s, 60s]. Before any drain history exists it answers the floor —
// "try again in a second" is the honest default for an empty estimator.
func (p *Pipeline) RetryAfter() time.Duration {
	const floor, ceil = time.Second, 60 * time.Second
	rate := p.rate.estimate()
	if rate <= 0 {
		return floor
	}
	d := time.Duration(float64(p.Depth()) / rate * float64(time.Second))
	if d < floor {
		return floor
	}
	if d > ceil {
		return ceil
	}
	return d
}

// drainRate is an EWMA of the pipeline's final-outcome throughput,
// updated by the workers after each batch and read by RetryAfter.
type drainRate struct {
	mu       sync.Mutex
	lastNs   int64
	lastDone uint64
	perSec   float64
}

// Finished counts the envelopes that reached a final outcome: committed
// or dead-lettered.
func (p *Pipeline) Finished() uint64 { return p.m.committed.Value() + p.m.dead.Value() }

func (p *Pipeline) noteDrain() {
	nowNs := p.now().UnixNano()
	done := p.Finished()
	r := &p.rate
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lastNs == 0 {
		r.lastNs, r.lastDone = nowNs, done
		return
	}
	dt := nowNs - r.lastNs
	// Batches can complete microseconds apart; sampling that often would
	// make the estimate all noise. Fold in at most ~10 windows a second.
	if dt < int64(100*time.Millisecond) {
		return
	}
	inst := float64(done-r.lastDone) / (float64(dt) / float64(time.Second))
	if r.perSec == 0 {
		r.perSec = inst
	} else {
		r.perSec = 0.7*r.perSec + 0.3*inst
	}
	r.lastNs, r.lastDone = nowNs, done
}

func (r *drainRate) estimate() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.perSec
}

// ShardStats is one shard's queue and shed breakdown.
type ShardStats struct {
	// ID is the shard's stable id (the telemetry label).
	ID int `json:"id"`
	// Steady and Burst are the lanes' queued-envelope counts; Ready counts
	// retries due again.
	Steady int `json:"steady"`
	Burst  int `json:"burst"`
	Ready  int `json:"ready"`
	// ShedSteady and ShedBurst count enqueue rejections per lane since
	// the shard started.
	ShedSteady uint64 `json:"shed_steady"`
	ShedBurst  uint64 `json:"shed_burst"`
}

func (s *pshard) stats() ShardStats {
	s.mu.Lock()
	st := ShardStats{
		ID:     s.id,
		Steady: s.lanes[LaneSteady].n,
		Burst:  s.lanes[LaneBurst].n,
		Ready:  len(s.ready),
	}
	s.mu.Unlock()
	st.ShedSteady = s.obsShed[LaneSteady].Value()
	st.ShedBurst = s.obsShed[LaneBurst].Value()
	return st
}

// PipelineStats is a snapshot of the pipeline counters.
type PipelineStats struct {
	// Enqueued counts accepted envelopes; Shed counts enqueue rejections
	// on full lanes; Throttled counts per-source admission rejections.
	Enqueued, Shed, Throttled uint64
	// Committed, Retried and DeadLettered count per-envelope outcomes
	// (Retried counts re-processing attempts, not envelopes).
	Committed, Retried, DeadLettered uint64
	// Batches counts processed micro-batches.
	Batches uint64
	// Inflight is the number of envelopes not yet at a final outcome.
	Inflight int64
	// Shards and MaxBatch are the configured shard count and micro-batch
	// size.
	Shards   int
	MaxBatch int
	// QueueDepths is the per-shard queued-envelope count in shard-id
	// order.
	QueueDepths []int
	// PerShard breaks queue depth and shed counts down by shard and lane,
	// in shard-id order.
	PerShard []ShardStats
	// Admission is the per-source admitted/throttled breakdown, sorted by
	// source; nil when admission is off.
	Admission []SourceAdmission
}

// Stats returns a snapshot of the pipeline counters, read from the
// pipeline's metric handles.
func (p *Pipeline) Stats() PipelineStats {
	ps := PipelineStats{
		Enqueued:     p.m.enqueued.Value(),
		Committed:    p.m.committed.Value(),
		DeadLettered: p.m.dead.Value(),
		Batches:      p.m.batches.Count(),
		Inflight:     p.inflight.Load(),
		Shards:       len(p.shards),
		MaxBatch:     maxBatch,
		QueueDepths:  make([]int, len(p.shards)),
		PerShard:     make([]ShardStats, len(p.shards)),
	}
	for i, s := range p.shards {
		st := s.stats()
		ps.PerShard[i] = st
		ps.QueueDepths[i] = st.Steady + st.Burst + st.Ready
		ps.Shed += st.ShedSteady + st.ShedBurst
		ps.Retried += s.obsRetry.Count()
	}
	if p.admission != nil {
		ps.Throttled = p.admission.obsThrottled.Value()
		ps.Admission = p.admission.stats()
	}
	return ps
}
