// Package obs is the platform's zero-dependency observability layer: a
// metrics registry (counters, gauges, lock-striped log-bucketed
// histograms, labeled families with pre-registered handles so hot-path
// record calls are allocation-free)
// plus a lightweight span tracer (per-request trace IDs threaded through
// context.Context, completed traces retained in a bounded ring with the
// slowest-N kept aside). The registry exports Prometheus text exposition
// format; the tracer serves GET /api/debug/traces.
//
// Design rules:
//
//   - obs imports nothing from the rest of the repository, so every
//     layer (api, core, stream, indicators, rdbms, compute) can import
//     it without cycles.
//   - There is no process-global registry: each platform builds one and
//     hands it to every component it constructs, which registers its
//     families and resolves its handles there once, at construction.
//     Re-registering a name returns the existing family, so components
//     that share a registry share its families.
//   - Record calls (Counter.Inc/Add, Gauge.Set/Add, Histogram.Observe)
//     are atomic operations on pre-allocated state: no locks, no
//     allocation, safe for concurrent use.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// collector is one metric family: it renders its # HELP / # TYPE header
// and every child sample into the exposition buffer.
type collector interface {
	metricName() string
	write(b *bytes.Buffer)
}

// Registry holds metric families by name. A nil *Registry is usable: its
// constructors return working handles that belong to no registry, so a
// component built without one counts privately and nothing scrapes it.
type Registry struct {
	mu   sync.Mutex
	cols map[string]collector
}

// NewRegistry builds a registry holding the go_* runtime gauges.
func NewRegistry() *Registry {
	r := newRegistry()
	registerRuntime(r)
	return r
}

// newRegistry builds an empty registry.
func newRegistry() *Registry {
	return &Registry{cols: map[string]collector{}}
}

// register returns the existing family for name, or installs the one
// built by mk; on a nil registry it returns a fresh unregistered family.
// A name collision across metric types panics: it is a programming error
// caught at construction, not a runtime condition.
func (r *Registry) register(name string, mk func() collector) collector {
	if r == nil {
		return mk()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.cols[name]; ok {
		return c
	}
	c := mk()
	r.cols[name] = c
	return c
}

// WritePrometheus renders every family in name order in Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.cols))
	for n := range r.cols {
		names = append(names, n)
	}
	cols := make([]collector, 0, len(names))
	sort.Strings(names)
	for _, n := range names {
		cols = append(cols, r.cols[n])
	}
	r.mu.Unlock()

	var b bytes.Buffer
	for _, c := range cols {
		c.write(&b)
	}
	_, err := w.Write(b.Bytes())
	return err
}

// header renders the # HELP / # TYPE preamble for one family.
func header(b *bytes.Buffer, name, help, typ string) {
	b.WriteString("# HELP ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(help)
	b.WriteString("\n# TYPE ")
	b.WriteString(name)
	b.WriteByte(' ')
	b.WriteString(typ)
	b.WriteByte('\n')
}

// renderLabels joins label names and values into the inner body of a
// label block (`route="GET /api/assess",class="2xx"`), escaping values
// per the exposition grammar.
func renderLabels(names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("obs: metric expects %d label values, got %d", len(names), len(values)))
	}
	if len(names) == 0 {
		return ""
	}
	var sb strings.Builder
	for i, n := range names {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(n)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabel(values[i]))
		sb.WriteByte('"')
	}
	return sb.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// sample renders one `name{labels} value\n` line with a pre-formatted
// value.
func sample(b *bytes.Buffer, name, labels, value string) {
	b.WriteString(name)
	if labels != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

// formatFloat renders an exposition float (shortest round-trip form).
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// --- counters ---

// Counter is a monotonically increasing uint64. Obtain via
// Registry.NewCounter or CounterVec.With; record with Inc/Add (allocation-free).
type Counter struct {
	v      atomic.Uint64
	labels string
}

// Inc adds one and returns the new value (callers use the return for
// cheap sampling decisions: `if c.Inc()&63 == 0 { ... }`).
func (c *Counter) Inc() uint64 { return c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// CounterVec is a labeled counter family. With pre-registers a child for
// one label-value set; hold the returned *Counter for allocation-free
// hot-path recording.
type CounterVec struct {
	name, help string
	labelNames []string

	mu       sync.Mutex
	children map[string]*Counter
}

func (v *CounterVec) metricName() string { return v.name }

// With returns the child counter for the given label values, creating it
// on first use. Call at setup time, not on the hot path.
func (v *CounterVec) With(values ...string) *Counter {
	labels := renderLabels(v.labelNames, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	c, ok := v.children[labels]
	if !ok {
		c = &Counter{labels: labels}
		v.children[labels] = c
	}
	return c
}

func (v *CounterVec) write(b *bytes.Buffer) {
	header(b, v.name, v.help, "counter")
	for _, c := range v.sorted() {
		sample(b, v.name, c.labels, strconv.FormatUint(c.Value(), 10))
	}
}

func (v *CounterVec) sorted() []*Counter {
	v.mu.Lock()
	defer v.mu.Unlock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]*Counter, len(keys))
	for i, k := range keys {
		out[i] = v.children[k]
	}
	return out
}

// NewCounterVec registers (or returns) a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	c := r.register(name, func() collector {
		return &CounterVec{name: name, help: help, labelNames: labelNames, children: map[string]*Counter{}}
	})
	v, ok := c.(*CounterVec)
	if !ok {
		panic("obs: metric " + name + " already registered with a different type")
	}
	return v
}

// NewCounter registers (or returns) an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	return r.NewCounterVec(name, help).With()
}

// --- gauges ---

// Gauge is an integer level (queue depths, shard counts). Obtain via
// Registry.NewGauge; record with Set/Add (allocation-free).
type Gauge struct {
	v      atomic.Int64
	labels string
}

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the value by delta (negative deltas decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// GaugeVec is a labeled gauge family.
type GaugeVec struct {
	name, help string
	labelNames []string

	mu       sync.Mutex
	children map[string]*Gauge
}

func (v *GaugeVec) metricName() string { return v.name }

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	labels := renderLabels(v.labelNames, values)
	v.mu.Lock()
	defer v.mu.Unlock()
	g, ok := v.children[labels]
	if !ok {
		g = &Gauge{labels: labels}
		v.children[labels] = g
	}
	return g
}

func (v *GaugeVec) write(b *bytes.Buffer) {
	header(b, v.name, v.help, "gauge")
	v.mu.Lock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	gs := make([]*Gauge, len(keys))
	for i, k := range keys {
		gs[i] = v.children[k]
	}
	v.mu.Unlock()
	for _, g := range gs {
		sample(b, v.name, g.labels, strconv.FormatInt(g.Value(), 10))
	}
}

// NewGaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) NewGaugeVec(name, help string, labelNames ...string) *GaugeVec {
	c := r.register(name, func() collector {
		return &GaugeVec{name: name, help: help, labelNames: labelNames, children: map[string]*Gauge{}}
	})
	v, ok := c.(*GaugeVec)
	if !ok {
		panic("obs: metric " + name + " already registered with a different type")
	}
	return v
}

// NewGauge registers (or returns) an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	return r.NewGaugeVec(name, help).With()
}

// gaugeFunc is a callback gauge sampled at scrape time (runtime stats).
type gaugeFunc struct {
	name, help string
	fn         func() float64
}

func (g *gaugeFunc) metricName() string { return g.name }

func (g *gaugeFunc) write(b *bytes.Buffer) {
	header(b, g.name, g.help, "gauge")
	sample(b, g.name, "", formatFloat(g.fn()))
}

// NewGaugeFunc registers a callback gauge; fn is invoked once per scrape.
// Re-registering a name keeps the first fn.
func (r *Registry) NewGaugeFunc(name, help string, fn func() float64) {
	c := r.register(name, func() collector {
		return &gaugeFunc{name: name, help: help, fn: fn}
	})
	if _, ok := c.(*gaugeFunc); !ok {
		panic("obs: metric " + name + " already registered with a different type")
	}
}
