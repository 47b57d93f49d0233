package stream

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Bus is a lightweight in-process pub/sub fan-out: the ingestion pipeline
// publishes each committed assessment and any number of subscribers (the
// GET /api/stream SSE handlers) receive it on a buffered channel. Delivery
// is best-effort per subscriber: a subscriber that cannot keep up has
// messages dropped (and counted) rather than stalling the publisher — the
// live feed is a notification stream, not a durable log.
type Bus struct {
	mu     sync.Mutex
	subs   map[uint64]*Subscription
	nextID uint64
	closed bool

	// published and dropped are the feed's counters, read back by Stats;
	// SubscriberStats attributes the drops to the subscriber that cannot
	// keep up.
	published *obs.Counter
	dropped   *obs.Counter
}

// Subscription is one subscriber's feed. Receive from C; the channel is
// closed when the subscription is cancelled or the bus closes.
type Subscription struct {
	// C delivers published payloads in publish order.
	C <-chan []byte

	bus     *Bus
	id      uint64
	ch      chan []byte
	dropped atomic.Uint64
}

// NewBus creates an empty bus whose feed families live on reg (nil: a
// private registry). The subscriber gauge is a view of the subscriber
// set, sampled at scrape time.
func NewBus(reg *obs.Registry) *Bus {
	b := &Bus{
		subs: make(map[uint64]*Subscription),
		published: reg.NewCounter("scilens_feed_published_total",
			"Assessments published to the live SSE feed."),
		dropped: reg.NewCounter("scilens_feed_dropped_total",
			"Feed deliveries dropped because a subscriber's buffer was full."),
	}
	reg.NewGaugeFunc("scilens_feed_subscribers", "Currently connected live-feed subscribers.",
		func() float64 { return float64(b.Subscribers()) })
	return b
}

// Subscribe registers a subscriber with the given channel buffer
// (default 64). Cancel the subscription when done or its buffer keeps
// dropping messages.
func (b *Bus) Subscribe(buffer int) *Subscription {
	if buffer <= 0 {
		buffer = 64
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	ch := make(chan []byte, buffer)
	sub := &Subscription{C: ch, bus: b, id: b.nextID, ch: ch}
	if b.closed {
		close(ch)
		return sub
	}
	b.nextID++
	b.subs[sub.id] = sub
	return sub
}

// Cancel removes the subscription and closes its channel. Safe to call
// more than once.
func (s *Subscription) Cancel() {
	s.bus.mu.Lock()
	defer s.bus.mu.Unlock()
	if _, ok := s.bus.subs[s.id]; !ok {
		return
	}
	delete(s.bus.subs, s.id)
	close(s.ch)
}

// Publish fans the payload out to every subscriber without blocking and
// returns the delivered count. Subscribers must not modify the payload.
func (b *Bus) Publish(payload []byte) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return 0
	}
	b.published.Inc()
	delivered := 0
	for _, sub := range b.subs {
		select {
		case sub.ch <- payload:
			delivered++
		default:
			sub.dropped.Add(1)
			b.dropped.Inc()
		}
	}
	return delivered
}

// Subscribers returns the current subscriber count.
func (b *Bus) Subscribers() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.subs)
}

// SubscriberStats is one live subscriber's delivery health, surfaced by
// GET /api/stats so a lossy feed can be pinned on the subscriber that
// cannot keep up.
type SubscriberStats struct {
	// ID is the bus-assigned subscriber ID.
	ID uint64 `json:"id"`
	// Dropped counts deliveries this subscriber missed (full buffer).
	Dropped uint64 `json:"dropped"`
	// Buffered is the current channel backlog; Capacity its bound.
	Buffered int `json:"buffered"`
	Capacity int `json:"capacity"`
}

// SubscriberStats snapshots every current subscriber, ordered by ID.
func (b *Bus) SubscriberStats() []SubscriberStats {
	b.mu.Lock()
	out := make([]SubscriberStats, 0, len(b.subs))
	for _, sub := range b.subs {
		out = append(out, SubscriberStats{
			ID:       sub.id,
			Dropped:  sub.dropped.Load(),
			Buffered: len(sub.ch),
			Capacity: cap(sub.ch),
		})
	}
	b.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// BusStats is a snapshot of the bus counters.
type BusStats struct {
	// Subscribers is the current subscriber count.
	Subscribers int
	// Published counts Publish calls; Dropped counts per-subscriber
	// deliveries lost to full buffers.
	Published, Dropped uint64
}

// Stats returns a snapshot of the bus counters.
func (b *Bus) Stats() BusStats {
	return BusStats{
		Subscribers: b.Subscribers(),
		Published:   b.published.Value(),
		Dropped:     b.dropped.Value(),
	}
}

// Close cancels every subscription; further publishes are dropped. Safe to
// call more than once.
func (b *Bus) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	for id, sub := range b.subs {
		delete(b.subs, id)
		close(sub.ch)
	}
}
