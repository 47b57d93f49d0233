// Package api implements the Indicators API of paper §3.3: the HTTP
// endpoints that compute and serve article quality indicators to the web
// application in real time.
//
// Server mounts every endpoint on one mux, each under a method-qualified
// pattern, grouped as
//
//   - assessment: single-article evaluation (paper Figure 3) — both
//     stored articles and arbitrary user-supplied documents;
//   - insights: aggregated topic insights (Figures 4 and 5);
//   - reviews: expert review submission and retrieval (§3.2);
//   - operations: corpus re-indexing and online checkpoints;
//   - streaming ingestion, the live feed and the pipeline counters.
//
// ReplService, the primary side of the replication link, is the one
// handler of its own: Server mounts it under /api/repl/, and a separate
// listener can serve it alone.
package api

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/analytics"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rdbms"
	"repro/internal/reviews"
	"repro/internal/synth"
)

// Request-body size limits per endpoint family. POST /api/assess carries a
// whole article document; the others are small control payloads.
const (
	maxAssessBody  = 4 << 20 // arbitrary-document evaluation (full HTML)
	maxControlBody = 1 << 20 // batch / review / admin requests
)

// maxURLBytes bounds the url of POST /api/assess and every event's
// article_url in POST /api/ingest: relative links resolve against it, so
// its length multiplies into every link of the document.
const maxURLBytes = 2 << 10

// maxBodyPrealloc caps the buffer readBody sizes from a declared
// Content-Length: past it the buffer grows with the bytes that arrive,
// so a client cannot make the server hold 4 MiB by declaring it.
const maxBodyPrealloc = 64 << 10

// readBody reads the whole request body, bounded by limit, into a buffer
// sized by the declared Content-Length. A body over the limit gets 413,
// whatever its content; a failed read gets 400. When it returns false the
// response has been written and the caller just returns.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, bool) {
	body := http.MaxBytesReader(w, r.Body, limit)
	size := int64(512)
	if n := r.ContentLength; n >= 0 {
		size = min(n, limit, maxBodyPrealloc) + 1 // room for the read that sees EOF
	}
	buf := make([]byte, 0, size)
	for {
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		switch {
		case err == io.EOF:
			return buf, true
		case err != nil:
			var maxErr *http.MaxBytesError
			if errors.As(err, &maxErr) {
				writeError(w, http.StatusRequestEntityTooLarge,
					fmt.Errorf("request body exceeds %d bytes", maxErr.Limit))
				return nil, false
			}
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
			return nil, false
		case len(buf) == cap(buf):
			buf = append(buf, 0)[:len(buf)]
		}
	}
}

// decodeJSON reads one JSON document from the request body into v, bounded
// by limit. Oversized bodies get 413, malformed JSON and trailing garbage
// after the document get 400; in every error case the response has already
// been written and the caller just returns.
func decodeJSON(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	return decodeJSONBody(w, r, limit, v, false)
}

// decodeJSONAllowEmpty is decodeJSON for endpoints where an absent body
// means "use defaults": a body that is empty or only whitespace (whatever
// the declared ContentLength — chunked requests report -1) leaves v
// untouched.
func decodeJSONAllowEmpty(w http.ResponseWriter, r *http.Request, limit int64, v any) bool {
	return decodeJSONBody(w, r, limit, v, true)
}

func decodeJSONBody(w http.ResponseWriter, r *http.Request, limit int64, v any, allowEmpty bool) bool {
	_, ok := decodeBody(w, r, limit, func(body []byte) (any, error) {
		if allowEmpty && len(bytes.TrimLeft(body, " \t\r\n")) == 0 {
			return nil, nil // empty body: caller's defaults stand
		}
		return nil, json.Unmarshal(body, v)
	})
	return ok
}

// decodeBody reads the bounded request body and decodes it with decode,
// answering 400 for a body that does not decode. When it returns false
// the response has been written and the caller just returns.
func decodeBody[T any](w http.ResponseWriter, r *http.Request, limit int64, decode func([]byte) (T, error)) (T, bool) {
	var v T
	body, ok := readBody(w, r, limit)
	if !ok {
		return v, false
	}
	v, err := decode(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return v, false
	}
	return v, true
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// Server serves the Indicators API of one platform: every route is a
// method-qualified pattern on one mux, wrapped by the telemetry
// middleware, so every request is traced and recorded into the per-route
// metric families (see telemetry.go).
type Server struct {
	platform *core.Platform
	handler  http.Handler

	// The HTTP families on the platform registry, and the handles each
	// matched route resolved from them (route -> *routeMetrics).
	requests                            *obs.CounterVec
	duration, requestBody, responseBody *obs.HistogramVec
	routes                              sync.Map
}

// NewServer mounts every endpoint for the platform.
func NewServer(p *core.Platform) *Server {
	s, mux := &Server{platform: p}, http.NewServeMux()
	s.registerHTTPFamilies(p.Metrics)
	// Assessment: single articles, stored or supplied (Figure 3).
	mux.HandleFunc("GET /api/assess", s.handleAssessStored)
	mux.HandleFunc("POST /api/assess", s.handleAssessDocument)
	mux.HandleFunc("POST /api/assess/batch", s.handleAssessBatch)
	mux.HandleFunc("GET /api/health", s.handleHealth)
	// Insights: aggregated topic analytics (Figures 4 and 5).
	mux.HandleFunc("GET /api/insights/activity", s.handleActivity)
	mux.HandleFunc("GET /api/insights/engagement", s.handleEngagement)
	mux.HandleFunc("GET /api/insights/evidence", s.handleEvidence)
	mux.HandleFunc("GET /api/insights/consensus", s.handleConsensus)
	mux.HandleFunc("GET /api/insights/outlets", s.handleOutletQuality)
	// Expert reviews (§3.2).
	mux.HandleFunc("POST /api/reviews", s.handleReviewSubmit)
	mux.HandleFunc("GET /api/reviews", s.handleReviewList)
	// Operations: the §3.3 maintenance loop triggered over HTTP.
	mux.HandleFunc("POST /api/reindex", s.handleReindex)
	mux.HandleFunc("POST /api/checkpoint", s.handleCheckpoint)
	// Streaming ingestion (stream.go).
	mux.HandleFunc("POST /api/ingest", s.handleIngest)
	mux.HandleFunc("POST /api/ingest/replay", s.handleReplay)
	mux.HandleFunc("GET /api/stream", s.handleStream)
	mux.HandleFunc("GET /api/stats", s.handleStats)
	// Replication stays a handler of its own: -repl-addr serves it alone.
	mux.Handle("/api/repl/", NewReplService(p))
	registerTelemetryRoutes(mux, p.Metrics)
	s.handler = s.observe(mux)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// handleHealth reports liveness plus the storage state machine. status
// mirrors core.StorageHealth.State: "ok" answers 200; "degraded" and
// "recovering" answer 503 Service Unavailable — writes are suspended, so
// load balancers should rotate the writer role away — while the body
// still carries the full health payload for operators.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	stats := s.platform.Stats()
	ss := s.platform.StreamStats()
	st := s.platform.StorageStats()
	sh := s.platform.StorageHealth()
	code := http.StatusOK
	if sh.State != core.StorageOK {
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":       sh.State,
		"postings":     stats.Postings,
		"reactions":    stats.Reactions,
		"queue_depth":  ss.QueueDepth,
		"queue_depths": ss.QueueDepths,
		"inflight":     ss.Inflight,
		"dead_letters": ss.DeadLetterBacklog,
		"storage": map[string]any{
			"durable":             st.Durable,
			"rows":                st.Rows,
			"partitions":          st.TablePartitions,
			"wal_records":         st.WALRecords,
			"wal_bytes":           st.WALBytes,
			"wal_fsync_policy":    st.WALFsyncPolicy,
			"wal_fsyncs":          st.WALFsyncs,
			"checkpoints":         st.Checkpoints,
			"last_checkpoint":     st.LastCheckpoint,
			"snapshot_generation": st.SnapshotGeneration,
			"delta_chain_length":  st.DeltaChainLength,
			"prune_failures":      st.PruneFailures,
		},
		"storage_health": sh,
	})
}

// handleAssessStored evaluates an ingested article by url or id.
func (s *Server) handleAssessStored(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	url, id := q.Get("url"), q.Get("id")
	var (
		a   *core.Assessment
		err error
	)
	switch {
	case url != "":
		a, err = s.platform.AssessURL(url)
	case id != "":
		a, err = s.platform.AssessID(id)
	default:
		writeError(w, http.StatusBadRequest, errors.New("url or id query parameter required"))
		return
	}
	if err != nil {
		if errors.Is(err, core.ErrNotIngested) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, a)
}

// assessRequest is the POST /api/assess body: an arbitrary document to
// evaluate in real time ("any arbitrary news article that a user wants to
// evaluate", §4.1).
type assessRequest struct {
	URL  string `json:"url"`
	HTML string `json:"html"`
}

// assessResponse is the real-time evaluation payload.
type assessResponse struct {
	Title           string               `json:"title"`
	Byline          string               `json:"byline,omitempty"`
	Clickbait       float64              `json:"clickbait"`
	Subjectivity    float64              `json:"subjectivity"`
	ReadingGrade    float64              `json:"reading_grade"`
	HasByline       bool                 `json:"has_byline"`
	InternalRefs    int                  `json:"internal_refs"`
	ExternalRefs    int                  `json:"external_refs"`
	ScientificRefs  int                  `json:"scientific_refs"`
	ScientificRatio float64              `json:"scientific_ratio"`
	SourceStrength  float64              `json:"source_strength"`
	Composite       float64              `json:"composite"`
	Topics          []assessTopicPayload `json:"topics,omitempty"`
}

type assessTopicPayload struct {
	Topic string  `json:"topic"`
	Prob  float64 `json:"prob"`
}

func (s *Server) handleAssessDocument(w http.ResponseWriter, r *http.Request) {
	sp := obs.StartSpan(r.Context(), "decode")
	req, ok := decodeBody(w, r, maxAssessBody, decodeAssessRequest)
	sp.End()
	if !ok {
		return
	}
	if req.HTML == "" {
		writeError(w, http.StatusBadRequest, errors.New("html field required"))
		return
	}
	if len(req.URL) > maxURLBytes {
		writeError(w, http.StatusBadRequest, fmt.Errorf("url exceeds %d bytes", maxURLBytes))
		return
	}
	sp = obs.StartSpan(r.Context(), "evaluate")
	report, err := s.platform.Engine.Evaluate(req.HTML, req.URL, nil)
	sp.End()
	if err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	resp := assessResponse{
		Title:           report.Article.Title,
		Byline:          report.Article.Byline,
		Clickbait:       report.Content.Clickbait,
		Subjectivity:    report.Content.Subjectivity,
		ReadingGrade:    report.Content.ReadingGrade,
		HasByline:       report.Content.HasByline,
		InternalRefs:    report.Context.InternalCount,
		ExternalRefs:    report.Context.ExternalCount,
		ScientificRefs:  report.Context.ScientificCount,
		ScientificRatio: report.Context.ScientificRatio,
		SourceStrength:  report.Context.SourceStrength,
		Composite:       report.Composite,
	}
	for _, t := range report.Topics {
		resp.Topics = append(resp.Topics, assessTopicPayload{Topic: t.Topic, Prob: t.Prob})
	}
	writeJSON(w, http.StatusOK, resp)
}

// batchRequest is the POST /api/assess/batch body: stored article IDs to
// assess in one round trip (the web app's list views).
type batchRequest struct {
	IDs []string `json:"ids"`
}

// batchResponse carries per-ID results; unknown IDs are reported in
// Missing rather than failing the whole batch. Duplicate requested IDs are
// assessed once and appear once, in first-occurrence request order.
type batchResponse struct {
	Assessments []*core.Assessment `json:"assessments"`
	Missing     []string           `json:"missing,omitempty"`
}

const maxBatchSize = 256

func (s *Server) handleAssessBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if !decodeJSON(w, r, maxControlBody, &req) {
		return
	}
	if len(req.IDs) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("ids field required"))
		return
	}
	if len(req.IDs) > maxBatchSize {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch too large: %d > %d", len(req.IDs), maxBatchSize))
		return
	}
	// Deduplicate, keeping first-occurrence order. Each lookup is a stored
	// read, so the batch runs them in order on this goroutine.
	seen := make(map[string]struct{}, len(req.IDs))
	resp := batchResponse{Assessments: make([]*core.Assessment, 0, len(req.IDs))}
	for _, id := range req.IDs {
		if _, dup := seen[id]; dup {
			continue
		}
		seen[id] = struct{}{}
		a, err := s.platform.AssessID(id)
		switch {
		case errors.Is(err, core.ErrNotIngested):
			resp.Missing = append(resp.Missing, id)
		case err != nil:
			writeError(w, http.StatusInternalServerError, err)
			return
		default:
			resp.Assessments = append(resp.Assessments, a)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// activityResponse is the Figure 4 payload.
type activityResponse struct {
	Start  time.Time            `json:"start"`
	Days   int                  `json:"days"`
	Series map[string][]float64 `json:"series"` // class label -> daily %
}

func (s *Server) handleActivity(w http.ResponseWriter, r *http.Request) {
	days, err := queryInt(r, "days", synth.WindowDays)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := synth.WindowStart
	if v := r.URL.Query().Get("start"); v != "" {
		t, err := time.Parse("2006-01-02", v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad start date: %w", err))
			return
		}
		start = t
	}
	series, err := s.platform.Figure4(start, days)
	if err != nil {
		if errors.Is(err, analytics.ErrNoData) {
			writeError(w, http.StatusNotFound, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	resp := activityResponse{Start: series.Start, Days: series.Days, Series: map[string][]float64{}}
	for c, vals := range series.MeanSharePct {
		resp.Series[c.String()] = vals
	}
	writeJSON(w, http.StatusOK, resp)
}

// densityResponse is one class's KDE payload.
type densityResponse struct {
	Class  string    `json:"class"`
	N      int       `json:"n"`
	Mean   float64   `json:"mean"`
	Std    float64   `json:"std"`
	P10    float64   `json:"p10"`
	Median float64   `json:"median"`
	P90    float64   `json:"p90"`
	X      []float64 `json:"x"`
	Y      []float64 `json:"y"`
}

func densitiesPayload(ds []analytics.ClassDensity) []densityResponse {
	out := make([]densityResponse, 0, len(ds))
	for _, d := range ds {
		out = append(out, densityResponse{
			Class: d.Class.String(), N: d.N, Mean: d.Mean, Std: d.Std,
			P10: d.P10, Median: d.P50, P90: d.P90, X: d.Grid.X, Y: d.Grid.Y,
		})
	}
	return out
}

func (s *Server) handleEngagement(w http.ResponseWriter, r *http.Request) {
	points, err := queryInt(r, "points", 128)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ds, err := s.platform.Figure5Engagement(points)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, densitiesPayload(ds))
}

func (s *Server) handleEvidence(w http.ResponseWriter, r *http.Request) {
	points, err := queryInt(r, "points", 128)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	ds, err := s.platform.Figure5Evidence(points)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, densitiesPayload(ds))
}

func (s *Server) handleConsensus(w http.ResponseWriter, r *http.Request) {
	raters, err := queryInt(r, "raters", 12)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	seed, err := queryInt(r, "seed", 1)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.platform.RunConsensusExperiment(analytics.ConsensusConfig{
		Raters: raters,
		Seed:   int64(seed),
	})
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"disagreement_without": res.DisagreementWithout,
		"disagreement_with":    res.DisagreementWith,
		"reduction":            res.DisagreementReduction(),
		"mae_without":          res.MAEWithout,
		"mae_with":             res.MAEWith,
		"accuracy_gain":        res.AccuracyGain(),
		"corr_without":         res.CorrWithout,
		"corr_with":            res.CorrWith,
		"articles":             res.Articles,
		"raters":               res.Raters,
	})
}

// outletQualityResponse is one outlet's review-derived quality.
type outletQualityResponse struct {
	OutletID string  `json:"outlet_id"`
	Score    float64 `json:"score"`
	Reviews  int     `json:"reviews"`
	Band     int     `json:"band"`
}

// handleOutletQuality serves the review-derived outlet quality
// segmentation (§3.3: outlet quality "computed using the expert reviews").
func (s *Server) handleOutletQuality(w http.ResponseWriter, r *http.Request) {
	bands, err := queryInt(r, "bands", 5)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	segments, err := s.platform.SegmentOutletsByReviewQuality(bands)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	var out []outletQualityResponse
	for band, segment := range segments {
		for _, oq := range segment {
			out = append(out, outletQualityResponse{
				OutletID: oq.OutletID, Score: oq.Score, Reviews: oq.Reviews, Band: band,
			})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// reviewRequest is the POST /api/reviews body.
type reviewRequest struct {
	ArticleID string `json:"article_id"`
	Reviewer  string `json:"reviewer"`
	// Scores maps criterion label to Likert score; all seven required.
	Scores map[string]int `json:"scores"`
	Text   string         `json:"text,omitempty"`
}

// criterionByLabel resolves the paper's criterion labels.
var criterionByLabel = func() map[string]reviews.Criterion {
	m := make(map[string]reviews.Criterion, reviews.NumCriteria)
	for c := reviews.Criterion(0); c < reviews.NumCriteria; c++ {
		m[c.String()] = c
	}
	return m
}()

func (s *Server) handleReviewSubmit(w http.ResponseWriter, r *http.Request) {
	var req reviewRequest
	if !decodeJSON(w, r, maxControlBody, &req) {
		return
	}
	if req.ArticleID == "" {
		writeError(w, http.StatusBadRequest, errors.New("article_id field required"))
		return
	}
	if req.Reviewer == "" {
		writeError(w, http.StatusBadRequest, errors.New("reviewer field required"))
		return
	}
	review := reviews.Review{
		ArticleID: req.ArticleID,
		Reviewer:  req.Reviewer,
		Text:      req.Text,
		Time:      s.platform.Clock(),
	}
	if len(req.Scores) != reviews.NumCriteria {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("all %d criteria required, got %d", reviews.NumCriteria, len(req.Scores)))
		return
	}
	for label, score := range req.Scores {
		c, ok := criterionByLabel[label]
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Errorf("unknown criterion %q", label))
			return
		}
		review.Scores[c] = score
	}
	id, err := s.platform.SubmitReview(review)
	if err != nil {
		switch {
		case errors.Is(err, reviews.ErrBadScore) || errors.Is(err, reviews.ErrIncomplete):
			writeError(w, http.StatusBadRequest, err)
		case errors.Is(err, core.ErrDegraded) || errors.Is(err, core.ErrFollower):
			writeError(w, http.StatusServiceUnavailable, err)
		default:
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": id})
}

func (s *Server) handleReviewList(w http.ResponseWriter, r *http.Request) {
	articleID := r.URL.Query().Get("article_id")
	if articleID == "" {
		writeError(w, http.StatusBadRequest, errors.New("article_id query parameter required"))
		return
	}
	agg, err := s.platform.ReviewAggregate(articleID)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	perCriterion := map[string]float64{}
	for c := reviews.Criterion(0); c < reviews.NumCriteria; c++ {
		perCriterion[c.String()] = agg.PerCriterion[c]
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"article_id":    articleID,
		"overall":       agg.Overall,
		"count":         agg.Count,
		"per_criterion": perCriterion,
		"texts":         agg.Texts,
	})
}

// reindexRequest is the optional POST /api/reindex body.
type reindexRequest struct {
	// Force re-evaluates every row, ignoring the model-generation
	// watermark that normally skips rows already current under the live
	// models.
	Force bool `json:"force"`
}

// reindexResponse reports one corpus re-evaluation run.
type reindexResponse struct {
	Articles      int     `json:"articles"`
	Changed       int     `json:"changed"`
	Failed        int     `json:"failed"`
	Skipped       int     `json:"skipped"`
	Replies       int     `json:"replies"`
	StanceChanged int     `json:"stance_changed"`
	RowsPerSec    float64 `json:"rows_per_sec"`
	DurationMS    float64 `json:"duration_ms"`
}

// handleReindex runs a synchronous corpus re-evaluation under the current
// models — the batch half of the retrain → re-index maintenance loop.
func (s *Server) handleReindex(w http.ResponseWriter, r *http.Request) {
	var req reindexRequest
	// An empty body — whatever the declared ContentLength — means
	// "default run"; anything present must be valid.
	if !decodeJSONAllowEmpty(w, r, maxControlBody, &req) {
		return
	}
	var opts []core.ReindexOption
	if req.Force {
		opts = append(opts, core.ReindexForce())
	}
	rep, err := s.platform.ReindexCorpus(s.platform.Compute, opts...)
	if err != nil {
		if errors.Is(err, core.ErrDegraded) || errors.Is(err, core.ErrFollower) {
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, reindexResponse{
		Articles:      rep.Articles,
		Changed:       rep.Changed,
		Failed:        rep.Failed,
		Skipped:       rep.Skipped,
		Replies:       rep.Replies,
		StanceChanged: rep.StanceChanged,
		RowsPerSec:    rep.RowsPerSec,
		DurationMS:    float64(rep.Duration.Microseconds()) / 1000,
	})
}

// checkpointResponse reports one online checkpoint. Generation is 0 when
// nothing was dirty (no generation written); Full marks a base generation
// (first checkpoint or delta-chain compaction).
type checkpointResponse struct {
	Tables            int     `json:"tables"`
	Rows              int     `json:"rows"`
	SnapshotBytes     int64   `json:"snapshot_bytes"`
	Generation        int     `json:"generation"`
	Full              bool    `json:"full"`
	PartitionsWritten int     `json:"partitions_written"`
	DeltaChain        int     `json:"delta_chain"`
	SegmentsPruned    int     `json:"segments_pruned"`
	PruneFailures     int     `json:"prune_failures"`
	WALSegment        int     `json:"wal_segment"`
	DurationMS        float64 `json:"duration_ms"`
}

// handleCheckpoint persists the store online: WAL rotation + snapshot +
// segment prune, while the real-time paths keep serving. Platforms without
// a data directory answer 409 — there is nothing durable to write to.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	st, err := s.platform.Checkpoint()
	if err != nil {
		if errors.Is(err, rdbms.ErrNoDir) {
			writeError(w, http.StatusConflict,
				errors.New("platform has no data directory (start with Config.DataDir / -data-dir)"))
			return
		}
		if errors.Is(err, core.ErrDegraded) {
			// The recovery supervisor owns checkpointing while degraded
			// (the call above nudged it); the operator just waits.
			writeError(w, http.StatusServiceUnavailable, err)
			return
		}
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, checkpointResponse{
		Tables:            st.Tables,
		Rows:              st.Rows,
		SnapshotBytes:     st.SnapshotBytes,
		Generation:        st.Generation,
		Full:              st.Full,
		PartitionsWritten: st.PartitionsWritten,
		DeltaChain:        st.DeltaChainLen,
		SegmentsPruned:    st.SegmentsPruned,
		PruneFailures:     st.PruneFailures,
		WALSegment:        st.WALSegment,
		DurationMS:        float64(st.Duration.Microseconds()) / 1000,
	})
}

// queryInt parses an optional integer query parameter. A missing parameter
// yields def; malformed, overflowing or negative values yield an error
// (the handlers answer 400). An explicit 0 is passed through unchanged —
// the jobs behind these parameters define their own zero semantics
// (ErrNoData for an empty window, built-in defaults for grid sizes and
// rater pools) instead of the parameter being silently unrepresentable.
func queryInt(r *http.Request, key string, def int) (int, error) {
	v := r.URL.Query().Get(key)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q: not a valid integer", key, v)
	}
	if n < 0 {
		return 0, fmt.Errorf("parameter %s=%d: must be non-negative", key, n)
	}
	return n, nil
}
