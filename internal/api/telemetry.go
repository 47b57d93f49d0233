package api

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/obs"
)

// HTTP surface telemetry: every request through the composed Server is
// traced (trace ID returned in X-Trace-Id, retained traces served by
// GET /api/debug/traces) and recorded into per-route metric families.
// Routes are labeled by the matched method-qualified ServeMux pattern,
// read back after dispatch, so an unbounded URL space cannot explode the
// label set.
var (
	mHTTPRequests = obs.NewCounterVec("scilens_http_requests_total",
		"HTTP requests served, by matched route and status class.", "route", "class")
	mHTTPDuration = obs.NewDurationHistogramVec("scilens_http_request_seconds",
		"HTTP request latency by matched route.", "route")
	mHTTPRequestBody = obs.NewSizeHistogramVec("scilens_http_request_body_bytes",
		"Request body size by matched route (requests with a known Content-Length).", "route")
	mHTTPResponseBody = obs.NewSizeHistogramVec("scilens_http_response_body_bytes",
		"Response body bytes written by matched route.", "route")
)

// routeMetrics is one route's pre-resolved metric handles, cached in
// routeCache so the per-request cost after the first hit is one
// sync.Map load plus lock-free records.
type routeMetrics struct {
	dur     *obs.Histogram
	reqB    *obs.Histogram
	respB   *obs.Histogram
	byClass [5]*obs.Counter // 1xx..5xx
}

var routeCache sync.Map // route string -> *routeMetrics

func metricsForRoute(route string) *routeMetrics {
	if m, ok := routeCache.Load(route); ok {
		return m.(*routeMetrics)
	}
	m := &routeMetrics{
		dur:   mHTTPDuration.With(route),
		reqB:  mHTTPRequestBody.With(route),
		respB: mHTTPResponseBody.With(route),
	}
	for i, class := range [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
		m.byClass[i] = mHTTPRequests.With(route, class)
	}
	actual, _ := routeCache.LoadOrStore(route, m)
	return actual.(*routeMetrics)
}

// statusRecorder captures the status code and response byte count while
// forwarding everything else. Unwrap keeps http.ResponseController
// working and Flush keeps the SSE feed streaming through the wrapper.
type statusRecorder struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (sr *statusRecorder) WriteHeader(code int) {
	if sr.status == 0 {
		sr.status = code
	}
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(b []byte) (int, error) {
	if sr.status == 0 {
		sr.status = http.StatusOK
	}
	n, err := sr.ResponseWriter.Write(b)
	sr.bytes += int64(n)
	return n, err
}

func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sr *statusRecorder) Unwrap() http.ResponseWriter { return sr.ResponseWriter }

// observe wraps a mux with the tracing + metrics middleware.
func observe(next *http.ServeMux) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		ctx, trace := obs.StartTrace(r.Context(), r.Method+" "+r.URL.Path)
		w.Header().Set("X-Trace-Id", trace.ID())
		sr := &statusRecorder{ResponseWriter: w}
		r2 := r.WithContext(ctx)
		next.ServeHTTP(sr, r2)

		status := sr.status
		if status == 0 {
			status = http.StatusOK
		}
		// A mux sets Pattern on r2 in place as it dispatches; the one
		// nested mux (ReplService under /api/repl/) overwrites the outer
		// subtree match with its own method-qualified pattern. A 404 or a
		// 405 leaves it empty.
		route := r2.Pattern
		if route == "" {
			route = "unmatched"
		}
		trace.SetName(route)
		trace.Finish(status)

		m := metricsForRoute(route)
		m.dur.ObserveDuration(time.Since(start))
		if r.ContentLength >= 0 {
			m.reqB.Observe(r.ContentLength)
		}
		m.respB.Observe(sr.bytes)
		if ci := status/100 - 1; ci >= 0 && ci < len(m.byClass) {
			m.byClass[ci].Inc()
		}
	})
}

// MetricsHandler serves the process-global registry in Prometheus text
// exposition format.
func MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.Default.WritePrometheus(w)
	})
}

// versionPayload is the GET /api/version body.
type versionPayload struct {
	Version       string    `json:"version"`
	GoVersion     string    `json:"go_version"`
	VCSRevision   string    `json:"vcs_revision,omitempty"`
	VCSTime       string    `json:"vcs_time,omitempty"`
	StartTime     time.Time `json:"start_time"`
	UptimeSeconds float64   `json:"uptime_seconds"`
}

func handleVersion(w http.ResponseWriter, r *http.Request) {
	v := versionPayload{
		Version:       "(devel)",
		GoVersion:     runtime.Version(),
		StartTime:     obs.ProcessStart,
		UptimeSeconds: time.Since(obs.ProcessStart).Seconds(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" {
			v.Version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				v.VCSRevision = s.Value
			case "vcs.time":
				v.VCSTime = s.Value
			}
		}
	}
	writeJSON(w, http.StatusOK, v)
}

// tracesPayload is the GET /api/debug/traces body.
type tracesPayload struct {
	Total  uint64            `json:"total"`
	Traces []obs.TraceRecord `json:"traces"`
}

func handleTraces(w http.ResponseWriter, r *http.Request) {
	minMs, err := queryInt(r, "min_ms", 0)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	recs := obs.DefaultTracer.Snapshot(time.Duration(minMs) * time.Millisecond)
	if recs == nil {
		recs = []obs.TraceRecord{}
	}
	writeJSON(w, http.StatusOK, tracesPayload{Total: obs.DefaultTracer.Total(), Traces: recs})
}

// registerTelemetryRoutes mounts the observability surface on a mux. The
// same set backs the main Server and the standalone debug listener.
func registerTelemetryRoutes(mux *http.ServeMux) {
	mux.Handle("GET /metrics", MetricsHandler())
	mux.HandleFunc("GET /api/version", handleVersion)
	mux.HandleFunc("GET /api/debug/traces", handleTraces)
}

// DebugHandler is the standalone debug surface for the -debug-addr
// listener: the telemetry routes plus net/http/pprof (pprof is only
// served here, never on the public API listener).
func DebugHandler() http.Handler {
	mux := http.NewServeMux()
	registerTelemetryRoutes(mux)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
