package indicators

import (
	"repro/internal/compute"
)

// Batch evaluation: the offline half of the paper's §3.3 loop. After a
// periodic model retraining the platform re-evaluates every stored document
// so the web application never serves indicator scores computed by a
// retired model. The batch path reuses the exact real-time pipeline — the
// shared textutil.Analysis single pass and the same indicator families —
// fanned out in parallel on a compute.Pool, so a batch result is
// bit-identical to what Evaluate would return for the same document.

// BatchDoc is one stored document fed to EvaluateBatch. ID is an opaque
// caller correlation key echoed on the matching BatchResult.
type BatchDoc struct {
	ID   string
	HTML string
	URL  string
}

// BatchResult is the outcome for one BatchDoc. Err is set when the
// document failed to parse (wrapping ErrNoArticle); a per-document failure
// never fails the batch.
type BatchResult struct {
	ID     string
	Report *Report
	Err    error
}

// EvaluateBatch evaluates the documents through the cascade-independent
// indicator pipeline, in parallel on pool (nil pool evaluates
// sequentially). Results are returned in input order, each evaluated under
// the models attached at call time.
func (e *Engine) EvaluateBatch(pool *compute.Pool, docs []BatchDoc) ([]BatchResult, error) {
	if len(docs) == 0 {
		return nil, nil
	}
	eval := func(d BatchDoc) (BatchResult, error) {
		rep, err := e.computeBase(d.HTML, d.URL)
		return BatchResult{ID: d.ID, Report: rep, Err: err}, nil
	}
	if pool == nil {
		out := make([]BatchResult, len(docs))
		for i, d := range docs {
			out[i], _ = eval(d)
		}
		return out, nil
	}
	return compute.Map(pool, docs, eval)
}
