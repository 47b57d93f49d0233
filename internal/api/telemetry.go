package api

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"time"

	"repro/internal/obs"
)

// HTTP surface telemetry: every request through the composed Server is
// traced (trace ID returned in X-Trace-Id, retained traces served by
// GET /api/debug/traces) and recorded into per-route metric families on
// the platform registry. Routes are labeled by the matched
// method-qualified ServeMux pattern, read back after dispatch, so an
// unbounded URL space cannot explode the label set.
func (s *Server) registerHTTPFamilies(r *obs.Registry) {
	s.requests = r.NewCounterVec("scilens_http_requests_total",
		"HTTP requests served, by matched route and status class.", "route", "class")
	s.duration = r.NewDurationHistogramVec("scilens_http_request_seconds",
		"HTTP request latency by matched route.", "route")
	s.requestBody = r.NewSizeHistogramVec("scilens_http_request_body_bytes",
		"Request body size by matched route (requests with a known Content-Length).", "route")
	s.responseBody = r.NewSizeHistogramVec("scilens_http_response_body_bytes",
		"Response body bytes written by matched route.", "route")
}

// routeMetrics is one route's resolved metric handles, cached in
// Server.routes so the per-request cost after the first hit is one
// sync.Map load plus lock-free records.
type routeMetrics struct {
	dur     *obs.Histogram
	reqB    *obs.Histogram
	respB   *obs.Histogram
	byClass [5]*obs.Counter // 1xx..5xx
}

func (s *Server) metricsForRoute(route string) *routeMetrics {
	if m, ok := s.routes.Load(route); ok {
		return m.(*routeMetrics)
	}
	m := &routeMetrics{
		dur:   s.duration.With(route),
		reqB:  s.requestBody.With(route),
		respB: s.responseBody.With(route),
	}
	for i, class := range [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
		m.byClass[i] = s.requests.With(route, class)
	}
	actual, _ := s.routes.LoadOrStore(route, m)
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
func (s *Server) observe(next *http.ServeMux) http.Handler {
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

		m := s.metricsForRoute(route)
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

// registerTelemetryRoutes mounts the observability surface on a mux:
// reg in Prometheus text exposition format, build info and traces. The
// same set backs the main Server and the standalone debug listener.
func registerTelemetryRoutes(mux *http.ServeMux, reg *obs.Registry) {
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = reg.WritePrometheus(w)
	})
	mux.HandleFunc("GET /api/version", handleVersion)
	mux.HandleFunc("GET /api/debug/traces", handleTraces)
}

// DebugHandler is the standalone debug surface for the -debug-addr
// listener: the telemetry routes over reg plus net/http/pprof (pprof is
// only served here, never on the public API listener).
func DebugHandler(reg *obs.Registry) http.Handler {
	mux := http.NewServeMux()
	registerTelemetryRoutes(mux, reg)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
