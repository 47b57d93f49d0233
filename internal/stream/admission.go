package stream

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrThrottled marks a per-source admission rejection: the source spent
// both its steady and burst token budgets. Match with errors.Is; the
// concrete *ThrottleError carries the retry hint.
var ErrThrottled = errors.New("stream: source throttled")

// ThrottleError is an admission rejection. RetryAfter is the time until
// the source's buckets next hold a whole token — the honest Retry-After
// value for a 429 response.
type ThrottleError struct {
	RetryAfter time.Duration
}

func (e *ThrottleError) Error() string {
	return fmt.Sprintf("stream: source throttled (retry after %s)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrThrottled) match any ThrottleError.
//
//scilint:ignore testonlyapi errors.Is calls it through an interface declared inside errors.Is
func (e *ThrottleError) Is(target error) bool { return target == ErrThrottled }

// A source's steady bucket holds steadyDepthSecs seconds of the
// admission rate — the burst a quiet source may spend at once — and its
// burst bucket burstDepthSecs seconds of it.
const steadyDepthSecs, burstDepthSecs = 2, 4

// admission is the per-source token-bucket state shared by the
// source-aware enqueue paths. Each source refills two buckets at rate
// events/sec against the injected clock: the steady bucket admits into
// the steady lane; once it runs dry the burst bucket admits into the
// lower-weight burst lane; past both the source is throttled. A viral
// story therefore degrades itself in stages — first to the burst lane,
// then to 429s — while every other source's steady admission is
// untouched.
//
// The per-source state map keeps one entry per source it has seen and
// evicts none, so callers name sources from a bounded set: core uses the
// registered outlets plus one shared source for every other host.
type admission struct {
	rate float64
	now  func() time.Time

	obsSteady    *obs.Counter
	obsBurst     *obs.Counter
	obsThrottled *obs.Counter

	mu      sync.Mutex
	sources map[string]*sourceBuckets
}

type sourceBuckets struct {
	steady float64
	burst  float64
	lastNs int64

	admittedSteady uint64
	admittedBurst  uint64
	throttled      uint64
}

type admitDecision struct {
	lane       lane
	throttled  bool
	retryAfter time.Duration
}

func newAdmission(rate float64, now func() time.Time, decisions *obs.CounterVec) *admission {
	return &admission{
		rate:         rate,
		now:          now,
		obsSteady:    decisions.With("steady"),
		obsBurst:     decisions.With("burst"),
		obsThrottled: decisions.With("throttled"),
		sources:      make(map[string]*sourceBuckets),
	}
}

// admit refills the source's buckets to the injected clock and spends one
// token: steady first, burst overflow second, throttled past both.
func (a *admission) admit(source string) admitDecision {
	nowNs := a.now().UnixNano()
	a.mu.Lock()
	defer a.mu.Unlock()
	b := a.sources[source]
	steadyDepth, burstDepth := steadyDepthSecs*a.rate, burstDepthSecs*a.rate
	if b == nil {
		b = &sourceBuckets{steady: steadyDepth, burst: burstDepth, lastNs: nowNs}
		a.sources[source] = b
	}
	if dt := float64(nowNs-b.lastNs) / float64(time.Second); dt > 0 {
		b.steady = min(b.steady+dt*a.rate, steadyDepth)
		b.burst = min(b.burst+dt*a.rate, burstDepth)
	}
	b.lastNs = nowNs
	switch {
	case b.steady >= 1:
		b.steady--
		b.admittedSteady++
		a.obsSteady.Inc()
		return admitDecision{lane: LaneSteady}
	case b.burst >= 1:
		b.burst--
		b.admittedBurst++
		a.obsBurst.Inc()
		return admitDecision{lane: LaneBurst}
	default:
		b.throttled++
		a.obsThrottled.Inc()
		wait := (1 - max(b.steady, b.burst)) / a.rate
		return admitDecision{throttled: true, retryAfter: time.Duration(wait * float64(time.Second))}
	}
}

// SourceAdmission is one source's admission counters.
type SourceAdmission struct {
	Source string `json:"source"`
	// Steady and Burst count events admitted into each lane; Throttled
	// counts rejections.
	Steady    uint64 `json:"steady"`
	Burst     uint64 `json:"burst"`
	Throttled uint64 `json:"throttled"`
}

func (a *admission) stats() []SourceAdmission {
	a.mu.Lock()
	out := make([]SourceAdmission, 0, len(a.sources))
	for src, b := range a.sources {
		out = append(out, SourceAdmission{
			Source: src, Steady: b.admittedSteady, Burst: b.admittedBurst, Throttled: b.throttled,
		})
	}
	a.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}
