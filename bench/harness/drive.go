package harness

import (
	"context"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/bench/gen"
	"repro/bench/measure"
)

// The shape of a run. The timed section is cut into five equal windows and
// every rate and CPU figure is the median of the five window values: a
// window that caught a checkpoint, a GC cycle of the generator or a
// neighbour's burst moves one value of five, not the result. Latency
// percentiles are taken over all the section's samples (endToEnd says why).
const (
	timedWindows = 5
	// A traced run times two windows without probes and two with them.
	tracedWindows = 2
	// warmUp lets connections open, the server's heap reach its working
	// size and lazy set-up finish before the clock starts.
	warmUp = 3 * time.Second
	// keepEvery is the share of replies kept for the output check.
	keepEvery = 1000
	// probeEvery is the share of ingest batches a freshness probe follows.
	probeEvery = 16
)

// cluster is the servers of one set-up, primary first.
type cluster struct {
	servers []*Server
	// setupSeconds is exec to ready, summed over the servers (a follower is
	// ready when it has replayed everything the primary holds).
	setupSeconds float64
	// followerSeconds is the follower's part of setupSeconds.
	followerSeconds float64
}

func (c *cluster) primary() *Server { return c.servers[0] }

// target is the server the workload's operations go to.
func (c *cluster) target() *Server { return c.servers[len(c.servers)-1] }

func (c *cluster) kill() {
	for _, s := range c.servers {
		s.Kill()
	}
}

// kept is one reply held back for the output check.
type kept struct {
	conn, k int
	body    []byte
}

// sink is what one connection's loop records; only that loop touches it
// until the run is over.
type sink struct {
	samples   []measure.Sample
	attempted int64
	failed    int64
	kept      []kept
	lateMs    []float64 // open-loop sender: actual minus intended send time
}

// record notes one finished request. Failed requests count against the
// attempts and carry no latency: a reply that never came has none.
func (s *sink) record(start, end int64, ops int, ok bool) {
	s.attempted += int64(ops)
	if !ok {
		s.failed += int64(ops)
		return
	}
	s.samples = append(s.samples, measure.Sample{End: end, Latency: end - start, Ops: int32(ops)})
}

// section is one stretch of the timeline that is reduced to windows.
type section struct {
	start, end int64 // nanoseconds since t0
	windows    int
	probes     bool
}

// driven is everything a drive produced.
type driven struct {
	t0       time.Time
	sections []section
	// byOps says windows are cut by operation count (fixed input) rather
	// than by time.
	byOps bool
	// ops are the workload's operations, sorted by End; side is other work
	// the servers did for the generator (the replica writer's events),
	// which the CPU-per-op denominator must include.
	ops, side []measure.Sample
	attempted int64
	failed    int64
	kept      []kept
	lateMs    []float64
	cpu       *cpuSeries
	// before and after bracket the traced section (nil in an untraced run).
	before, after *snapshot
	// healthBefore is the primary's counters before any load was sent.
	healthBefore Health
	probes       *prober
	lagBytesMax  float64
}

// run is the shared state of one drive's connection loops.
type run struct {
	t0      time.Time
	stopped atomic.Bool
	probing atomic.Bool
}

func (r *run) now() int64 { return int64(time.Since(r.t0)) }

// cpuSeries is the servers' and the generator's cumulative CPU seconds,
// sampled every 50 ms for the length of a drive. /proc counts in 10 ms
// ticks; windows are seconds long, so reading the series at a window edge
// by interpolation is exact to well under a percent.
type cpuSeries struct {
	at      []int64     // nanoseconds since t0
	servers [][]float64 // [server][sample]
	self    []float64
}

func selfCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// sampleCPU runs until stop is closed. every, when set, is called on each
// second tick (100 ms) for the traced run's lag sampling.
func sampleCPU(r *run, cl *cluster, stop <-chan struct{}, every func()) *cpuSeries {
	c := &cpuSeries{servers: make([][]float64, len(cl.servers))}
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for n := 0; ; n++ {
		c.at = append(c.at, r.now())
		for i, s := range cl.servers {
			v, err := s.CPUSeconds()
			if err != nil && len(c.servers[i]) > 0 {
				v = c.servers[i][len(c.servers[i])-1] // the process is gone; its total stands
			}
			c.servers[i] = append(c.servers[i], v)
		}
		c.self = append(c.self, selfCPUSeconds())
		if every != nil && n%2 == 0 {
			every()
		}
		select {
		case <-stop:
			return c
		case <-tick.C:
		}
	}
}

func interpolate(at []int64, v []float64, t int64) float64 {
	i := sort.Search(len(at), func(i int) bool { return at[i] >= t })
	switch {
	case len(at) == 0:
		return 0
	case i == 0:
		return v[0]
	case i == len(at):
		return v[len(v)-1]
	}
	f := float64(t-at[i-1]) / float64(at[i]-at[i-1])
	return v[i-1] + f*(v[i]-v[i-1])
}

// serverSeconds is the CPU all servers (or just one) used in [from, to).
func (c *cpuSeries) serverSeconds(from, to int64, only int) float64 {
	var total float64
	for i, v := range c.servers {
		if only >= 0 && i != only {
			continue
		}
		total += interpolate(c.at, v, to) - interpolate(c.at, v, from)
	}
	return total
}

func (c *cpuSeries) selfSeconds(from, to int64) float64 {
	return interpolate(c.at, c.self, to) - interpolate(c.at, c.self, from)
}

// loop is one connection's work: it sends until r.stopped and records into
// its own sink.
type loop func(r *run, s *sink)

// stages is the timeline of a drive after its warm-up: one stretch of five
// windows, or for a traced run two windows without probes and two with.
func stages(o Options) []section {
	if !o.Trace {
		return []section{{windows: timedWindows}}
	}
	return []section{{windows: tracedWindows}, {windows: tracedWindows, probes: true}}
}

// startCPUSampler samples in the background until the returned function is
// called, which hands back the series.
func startCPUSampler(r *run, cl *cluster, every func()) (stop func() *cpuSeries) {
	quit := make(chan struct{})
	done := make(chan *cpuSeries, 1)
	go func() { done <- sampleCPU(r, cl, quit, every) }()
	return func() *cpuSeries {
		close(quit)
		return <-done
	}
}

// driveTimed runs the loops for the warm-up plus the planned stages. In a
// traced run the server is scraped at both edges of the last stage and the
// probes are on inside it.
func driveTimed(ctx context.Context, cl *cluster, o Options, loops []loop, side int, pr *prober, every func()) (*driven, error) {
	hb, err := cl.primary().Health()
	if err != nil {
		return nil, err
	}
	r := &run{t0: time.Now()}
	d := &driven{t0: r.t0, healthBefore: hb, probes: pr}
	sinks := make([]*sink, len(loops))
	var wg sync.WaitGroup
	for i, l := range loops {
		sinks[i] = &sink{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			l(r, sinks[i])
		}()
	}
	stopCPU := startCPUSampler(r, cl, every)

	sleep := func(dur time.Duration) error {
		select {
		case <-time.After(dur):
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	window := time.Duration(o.seconds) * time.Second / timedWindows
	timeline := func() error {
		if err := sleep(warmUp); err != nil {
			return err
		}
		for _, sec := range stages(o) {
			if sec.probes {
				if d.before, err = takeSnapshot(cl); err != nil {
					return err
				}
				r.probing.Store(true)
			}
			sec.start = r.now()
			if err := sleep(time.Duration(sec.windows) * window); err != nil {
				return err
			}
			sec.end = r.now()
			if sec.probes {
				r.probing.Store(false)
				if d.after, err = takeSnapshot(cl); err != nil {
					return err
				}
			}
			d.sections = append(d.sections, sec)
		}
		return nil
	}
	err = timeline()
	r.stopped.Store(true)
	wg.Wait()
	d.cpu = stopCPU()
	if err != nil {
		return nil, err
	}
	d.collect(sinks, side)
	return d, nil
}

// collect merges the sinks: the loop numbered side (or none, -1) did side
// work, the rest did the workload's operations.
func (d *driven) collect(sinks []*sink, side int) {
	for i, s := range sinks {
		if i == side {
			d.side = append(d.side, s.samples...)
			d.lateMs = append(d.lateMs, s.lateMs...)
		} else {
			d.ops = append(d.ops, s.samples...)
			d.kept = append(d.kept, s.kept...)
		}
		d.attempted += s.attempted
		d.failed += s.failed
	}
	measure.SortByEnd(d.ops)
	measure.SortByEnd(d.side)
}

// closedLoop is a connection that sends its next request when the reply to
// the last has been read. next renders request k into buf.
func closedLoop(addr string, conn int, next func(buf []byte, k int) []byte) loop {
	return func(r *run, s *sink) {
		c := NewConn(addr)
		defer c.Close()
		var buf []byte
		for k := 0; !r.stopped.Load(); k++ {
			buf = next(buf[:0], k)
			start := r.now()
			status, body, err := c.Do(buf)
			end := r.now()
			ok := err == nil && status/100 == 2
			s.record(start, end, 1, ok)
			if !ok {
				time.Sleep(time.Millisecond) // do not spin on a dead server
				continue
			}
			if k%keepEvery == 0 {
				s.kept = append(s.kept, kept{conn: conn, k: k, body: append([]byte(nil), body...)})
			}
		}
	}
}

// openLoopWriter sends one batch every interval whatever the server does,
// and times each from when it was due: a stall shows up as the wait it
// imposes on the batches behind it, not as fewer batches.
func openLoopWriter(addr string, batches []gen.Batch, interval time.Duration, pr *prober) loop {
	return func(r *run, s *sink) {
		c := NewConn(addr)
		defer c.Close()
		for j := 0; j < len(batches) && !r.stopped.Load(); j++ {
			due := int64(j) * int64(interval)
			if wait := due - r.now(); wait > 0 {
				time.Sleep(time.Duration(wait))
			}
			start := r.now()
			status, _, err := c.Do(batches[j].Request)
			end := r.now()
			s.lateMs = append(s.lateMs, float64(start-due)/1e6)
			s.record(due, end, batches[j].Events, err == nil && status/100 == 2)
			if r.probing.Load() && batches[j].LastPosting != "" {
				pr.follow(batches[j].LastPosting, r.t0.Add(time.Duration(start)))
			}
		}
	}
}

// driveFixed sends a fixed input — every lane's batches, in order, one
// connection per lane — and stops the clock when the server has drained.
// The first tenth of each lane is warm-up. In a traced run the lanes meet
// at a barrier in the middle: the server drains, is scraped, and the
// second half runs with the probes on, so the scraped deltas belong to
// exactly those events.
func driveFixed(ctx context.Context, cl *cluster, o Options, lanes [][]gen.Batch, pr *prober) (*driven, error) {
	srv := cl.primary()
	hb, err := srv.Health()
	if err != nil {
		return nil, err
	}
	r := &run{t0: time.Now()}
	d := &driven{t0: r.t0, healthBefore: hb, byOps: true, probes: pr}
	sinks := make([]*sink, len(lanes))
	for i := range sinks {
		sinks[i] = &sink{}
	}
	stopCPU := startCPUSampler(r, cl, nil)
	defer func() { d.cpu = stopCPU() }()

	// send runs every lane's batches [from(lane), to(lane)), waits for the
	// replies and then for the server to drain, and returns when that was.
	send := func(from, to func(n int) int) (int64, error) {
		var wg sync.WaitGroup
		for i, lane := range lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c := NewConn(srv.Addr)
				defer c.Close()
				for j := from(len(lane)); j < to(len(lane)) && ctx.Err() == nil; j++ {
					start := r.now()
					status, _, err := c.Do(lane[j].Request)
					end := r.now()
					ok := err == nil && status/100 == 2
					sinks[i].record(start, end, lane[j].Events, ok)
					if !ok {
						time.Sleep(time.Millisecond)
					}
					if r.probing.Load() && j%probeEvery == 0 && lane[j].LastPosting != "" {
						pr.follow(lane[j].LastPosting, r.t0.Add(time.Duration(start)))
					}
				}
			}()
		}
		wg.Wait()
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		_, err := srv.WaitDrained(60 * time.Second)
		return r.now(), err
	}
	var warmOps int64
	for _, lane := range lanes {
		for _, b := range lane[:len(lane)/10] {
			warmOps += int64(b.Events)
		}
	}
	zero := func(int) int { return 0 }
	whole := func(n int) int { return n }
	half := func(n int) int { return n/10 + (n-n/10)/2 }

	cut := whole
	if o.Trace {
		cut = half
	}
	end, err := send(zero, cut)
	if err != nil {
		return nil, err
	}
	d.sections = []section{{end: end, windows: timedWindows}}
	if o.Trace {
		d.sections[0].windows = tracedWindows
		if d.before, err = takeSnapshot(cl); err != nil {
			return nil, err
		}
		r.probing.Store(true)
		probed := section{start: r.now(), windows: tracedWindows, probes: true}
		if probed.end, err = send(half, whole); err != nil {
			return nil, err
		}
		r.probing.Store(false)
		if d.after, err = takeSnapshot(cl); err != nil {
			return nil, err
		}
		d.sections = append(d.sections, probed)
	}
	d.collect(sinks, -1)
	d.ops, d.sections[0].start = measure.SkipOps(d.ops, warmOps)
	return d, nil
}

// windows reduces one section to its windows.
func (d *driven) windows(sec section) []measure.Window {
	if !d.byOps {
		return measure.CutByTime(d.ops, sec.start, sec.end, sec.windows)
	}
	lo := sort.Search(len(d.ops), func(i int) bool { return d.ops[i].End > sec.start })
	hi := sort.Search(len(d.ops), func(i int) bool { return d.ops[i].End > sec.end })
	return measure.CutByOps(d.ops[lo:hi], sec.start, sec.end, sec.windows)
}

// sideOps counts the side work that ended in [from, to).
func (d *driven) sideOps(from, to int64) int64 {
	var n int64
	for _, s := range d.side {
		if s.End >= from && s.End < to {
			n += int64(s.Ops)
		}
	}
	return n
}

// prober measures freshness from outside: given the URL of a posting that
// was just sent for ingestion, it polls the stored-assessment read of that
// URL until it answers 200 and records how long after the send that was.
// One probe runs at a time; offers that arrive while it is busy are
// dropped, which keeps the probe's own load bounded.
type prober struct {
	addr string
	in   chan probe
	done chan struct{}

	mu        sync.Mutex
	visibleMs []float64
	misses    int64 // 404 polls: requests the server counts as 4xx
}

type probe struct {
	url  string
	sent time.Time
}

func startProber(addr string) *prober {
	p := &prober{addr: addr, in: make(chan probe), done: make(chan struct{})}
	go p.loop()
	return p
}

// follow offers a posting to the prober without waiting for it.
func (p *prober) follow(url string, sent time.Time) {
	select {
	case p.in <- probe{url, sent}:
	default:
	}
}

func (p *prober) loop() {
	defer close(p.done)
	c := NewConn(p.addr)
	defer c.Close()
	for pb := range p.in {
		req := gen.Get(gen.AssessURLPath(pb.url))
		for time.Since(pb.sent) < 5*time.Second {
			status, _, err := c.Do(req)
			if err == nil && status == 200 {
				p.mu.Lock()
				p.visibleMs = append(p.visibleMs, float64(time.Since(pb.sent))/1e6)
				p.mu.Unlock()
				break
			}
			if err == nil && status == 404 {
				p.mu.Lock()
				p.misses++
				p.mu.Unlock()
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}

// stop ends the prober and returns what it saw.
func (p *prober) stop() (visibleMs []float64, misses int64) {
	close(p.in)
	<-p.done
	sort.Float64s(p.visibleMs)
	return p.visibleMs, p.misses
}
