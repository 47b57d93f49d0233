package api

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
)

// metricFamilies scrapes GET /metrics through the composed server and
// returns the set of family names from the # TYPE lines.
func metricFamilies(t *testing.T, srv *Server) map[string]string {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("/metrics content type: %q", ct)
	}
	fams := map[string]string{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 4 && fields[0] == "#" && fields[1] == "TYPE" {
			fams[fields[2]] = fields[3]
		}
	}
	return fams
}

// TestMetricsEndpointCoversAllLayers is the name-set half of the /metrics
// golden: after traffic has flowed through every layer, each documented
// family must be present with its documented type. (The format half is
// pinned byte-for-byte by obs.TestExpositionFormat.)
func TestMetricsEndpointCoversAllLayers(t *testing.T) {
	_, w, srv := apiFixture(t)

	// Drive the HTTP + engine layers so their families materialize.
	art := w.Articles[0]
	if rec, _ := doJSON(t, srv, "POST", "/api/assess",
		map[string]string{"html": art.RawHTML, "url": art.URL}); rec.Code != http.StatusOK {
		t.Fatalf("assess: %d", rec.Code)
	}

	want := map[string]string{
		// HTTP surface.
		"scilens_http_requests_total":      "counter",
		"scilens_http_request_seconds":     "histogram",
		"scilens_http_request_body_bytes":  "histogram",
		"scilens_http_response_body_bytes": "histogram",
		// Indicator engine.
		"scilens_engine_eval_cold_seconds": "histogram",
		// Streaming pipeline + feed.
		"scilens_pipeline_queue_wait_seconds":      "histogram",
		"scilens_pipeline_evaluate_seconds":        "histogram",
		"scilens_pipeline_commit_seconds":          "histogram",
		"scilens_pipeline_retry_backoff_seconds":   "histogram",
		"scilens_pipeline_dead_letter_age_seconds": "histogram",
		"scilens_pipeline_batch_records":           "histogram",
		"scilens_feed_published_total":             "counter",
		"scilens_feed_dropped_total":               "counter",
		"scilens_feed_subscribers":                 "gauge",
		// Storage.
		"scilens_wal_append_seconds":             "histogram",
		"scilens_wal_fsync_seconds":              "histogram",
		"scilens_wal_group_commit_records":       "histogram",
		"scilens_checkpoints_total":              "counter",
		"scilens_checkpoint_seconds":             "histogram",
		"scilens_checkpoint_bytes_total":         "counter",
		"scilens_partition_lock_wait_seconds":    "histogram",
		"scilens_partition_lock_contended_total": "counter",
		// Compute pool.
		"scilens_compute_queue_wait_seconds": "histogram",
		"scilens_compute_task_seconds":       "histogram",
		// Runtime.
		"go_goroutines":             "gauge",
		"go_heap_alloc_bytes":       "gauge",
		"go_heap_sys_bytes":         "gauge",
		"go_gc_cycles_total":        "gauge",
		"go_gc_pause_seconds_total": "gauge",
		"go_process_uptime_seconds": "gauge",
	}
	fams := metricFamilies(t, srv)
	for name, typ := range want {
		got, ok := fams[name]
		if !ok {
			t.Errorf("family %s missing from /metrics", name)
			continue
		}
		if got != typ {
			t.Errorf("family %s: type %s, want %s", name, got, typ)
		}
	}
}

// TestRequestTraceRoundTrip drives POST /api/assess and retrieves its
// trace through GET /api/debug/traces by the X-Trace-Id the response
// carried.
func TestRequestTraceRoundTrip(t *testing.T) {
	_, w, srv := apiFixture(t)
	art := w.Articles[0]
	rec, _ := doJSON(t, srv, "POST", "/api/assess",
		map[string]string{"html": art.RawHTML, "url": art.URL})
	if rec.Code != http.StatusOK {
		t.Fatalf("assess: %d", rec.Code)
	}
	id := rec.Header().Get("X-Trace-Id")
	if id == "" {
		t.Fatal("no X-Trace-Id header on the assess response")
	}

	trec, payload := doJSON(t, srv, "GET", "/api/debug/traces", nil)
	if trec.Code != http.StatusOK {
		t.Fatalf("traces: %d", trec.Code)
	}
	traces, ok := payload["traces"].([]any)
	if !ok || len(traces) == 0 {
		t.Fatalf("no traces in payload: %v", payload)
	}
	var found map[string]any
	for _, tr := range traces {
		m := tr.(map[string]any)
		if m["trace_id"] == id {
			found = m
			break
		}
	}
	if found == nil {
		t.Fatalf("trace %s not retained (got %d traces)", id, len(traces))
	}
	if found["name"] != "POST /api/assess" {
		t.Errorf("trace name = %v, want the matched route pattern", found["name"])
	}
	if found["status"] != float64(http.StatusOK) {
		t.Errorf("trace status = %v", found["status"])
	}
	spans, _ := found["spans"].([]any)
	names := map[string]bool{}
	for _, s := range spans {
		names[s.(map[string]any)["name"].(string)] = true
	}
	if !names["decode"] || !names["evaluate"] {
		t.Errorf("handler spans = %v, want decode and evaluate", names)
	}

	// min_ms filtering: an impossible threshold must hide every trace.
	_, filtered := doJSON(t, srv, "GET", "/api/debug/traces?min_ms=3600000", nil)
	if got := filtered["traces"].([]any); len(got) != 0 {
		t.Errorf("min_ms filter: %d traces leaked through", len(got))
	}
}

// TestVersionEndpoint checks the GET /api/version payload shape on both
// the main server and the standalone debug handler.
func TestVersionEndpoint(t *testing.T) {
	_, _, srv := apiFixture(t)
	for _, h := range []http.Handler{srv, DebugHandler(obs.NewRegistry())} {
		rec, payload := doJSON(t, h, "GET", "/api/version", nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("version: %d", rec.Code)
		}
		if payload["version"] == "" || payload["go_version"] == "" {
			t.Errorf("version payload incomplete: %v", payload)
		}
		if _, ok := payload["uptime_seconds"].(float64); !ok {
			t.Errorf("uptime_seconds missing: %v", payload)
		}
		if payload["start_time"] == "" {
			t.Errorf("start_time missing: %v", payload)
		}
	}
}

// TestDebugHandlerServesPprofAndMetrics pins the standalone debug
// surface: pprof index and /metrics are both reachable.
func TestDebugHandlerServesPprofAndMetrics(t *testing.T) {
	h := DebugHandler(obs.NewRegistry())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("pprof index: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("debug /metrics: %d", rec.Code)
	}
}

// TestFeedSubscriberStatsInAPI pins the per-subscriber drop accounting
// satellite: /api/stats carries one entry per live subscriber.
func TestFeedSubscriberStatsInAPI(t *testing.T) {
	p, _, srv := apiFixture(t)
	sub := p.Bus.Subscribe(4)
	defer sub.Cancel()

	_, payload := doJSON(t, srv, "GET", "/api/stats", nil)
	subs, ok := payload["feed_subscribers"].([]any)
	if !ok {
		t.Fatalf("feed_subscribers missing: %v", payload)
	}
	if len(subs) != 1 {
		t.Fatalf("feed_subscribers = %d entries, want 1", len(subs))
	}
	entry := subs[0].(map[string]any)
	if entry["capacity"] != float64(4) {
		t.Errorf("capacity = %v, want 4", entry["capacity"])
	}
	for _, key := range []string{"id", "dropped", "buffered"} {
		if _, ok := entry[key]; !ok {
			t.Errorf("subscriber entry missing %q: %v", key, entry)
		}
	}
}

// routeRequests sums the server's scilens_http_requests_total over status
// classes for one route label.
func routeRequests(srv *Server, route string) uint64 {
	var n uint64
	for _, class := range []string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
		n += srv.requests.With(route, class).Value()
	}
	return n
}

// TestRouteLabels drives one route of each endpoint group through the one
// mux: each request must count under its method-qualified pattern, and a
// wrong method or an unknown path under "unmatched".
func TestRouteLabels(t *testing.T) {
	_, w, srv := apiFixture(t)
	for _, c := range []struct{ method, path, body string }{
		{"GET", "/api/assess?id=" + w.Articles[0].ID, ""},
		{"GET", "/api/insights/activity?days=10", ""},
		{"POST", "/api/reviews", `{"article_id":"` + w.Articles[0].ID + `"}`},
		{"POST", "/api/checkpoint", ""},
		{"GET", "/api/stats", ""},
		{"GET", "/api/repl/manifest", ""},
	} {
		route := c.method + " " + strings.SplitN(c.path, "?", 2)[0]
		before := routeRequests(srv, route)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, strings.NewReader(c.body)))
		if rec.Code == http.StatusNotFound || rec.Code == http.StatusMethodNotAllowed {
			t.Errorf("%s: status %d, want the route to match", route, rec.Code)
		}
		if got := routeRequests(srv, route) - before; got != 1 {
			t.Errorf(`%s: route=%q counted %d requests, want 1`, route, route, got)
		}
	}

	for _, c := range []struct {
		method, path string
		code         int
	}{
		{"DELETE", "/api/assess", http.StatusMethodNotAllowed},
		{"GET", "/api/no-such-route", http.StatusNotFound},
		{"GET", "/api/insights", http.StatusNotFound}, // bare prefix: no redirect
	} {
		before, beforeOwn := routeRequests(srv, "unmatched"), routeRequests(srv, c.method+" "+c.path)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, nil))
		if rec.Code != c.code {
			t.Errorf("%s %s: status %d, want %d", c.method, c.path, rec.Code, c.code)
		}
		if got := routeRequests(srv, "unmatched") - before; got != 1 {
			t.Errorf(`%s %s: route="unmatched" counted %d requests, want 1`, c.method, c.path, got)
		}
		if routeRequests(srv, c.method+" "+c.path) != beforeOwn {
			t.Errorf("%s %s minted a route label of its own", c.method, c.path)
		}
	}
}

// TestUnmatchedRouteLabel: a 404 must fold into the "unmatched" route
// label, not mint a label per bogus URL.
func TestUnmatchedRouteLabel(t *testing.T) {
	_, _, srv := apiFixture(t)
	for _, path := range []string{"/nope/a", "/nope/b"} {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != http.StatusNotFound {
			t.Fatalf("%s: %d", path, rec.Code)
		}
	}
	if srv.requests.With("unmatched", "4xx").Value() < 2 {
		t.Error("unmatched requests not folded into the unmatched route label")
	}
}
