package repltest

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/synth"
)

// serve answers one request from h.
func serve(h http.Handler, method, path string, body []byte) (int, []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// TestReviewsReplicate: expert reviews are rows of the replicated store.
// Reviews submitted on the primary reach the follower, whose assessment,
// review and outlet-quality reads then answer byte for byte as the
// primary's; the follower itself refuses a review with 503.
func TestReviewsReplicate(t *testing.T) {
	pair := NewPair(t, nil, nil)
	w := synth.GenerateWorld(synth.Config{Seed: 7, Days: 3, RateScale: 0.2, ReactionScale: 0.2})
	if _, err := pair.Primary.Platform.IngestWorld(w); err != nil {
		t.Fatal(err)
	}
	primary, follower := api.NewServer(pair.Primary.Platform), api.NewServer(pair.Follower.Platform)
	var other string // an article of a second outlet
	for _, a := range w.Articles {
		if a.OutletID != w.Articles[0].OutletID {
			other = a.ID
			break
		}
	}
	if other == "" {
		t.Fatal("fixture has one outlet")
	}
	review := func(articleID, reviewer string, score int) []byte {
		scores := map[string]int{}
		for _, c := range []string{"factual-accuracy", "scientific-understanding", "logic-reasoning",
			"precision-clarity", "sources-quality", "fairness", "clickbaitness"} {
			scores[c] = score
		}
		body, _ := json.Marshal(map[string]any{
			"article_id": articleID, "reviewer": reviewer, "scores": scores, "text": reviewer + " says so",
		})
		return body
	}
	for _, r := range [][]byte{
		review(w.Articles[0].ID, "dr-a", 5),
		review(w.Articles[0].ID, "dr-b", 4),
		review(other, "dr-c", 2),
	} {
		if code, body := serve(primary, "POST", "/api/reviews", r); code != http.StatusCreated {
			t.Fatalf("review on primary: %d %s", code, body)
		}
	}
	WaitConvergedPair(t, pair, 30*time.Second)
	TablesEqual(t, pair.Primary.Platform.DB, pair.Follower.Platform.DB)

	for _, path := range []string{
		"/api/assess?id=" + w.Articles[0].ID,
		"/api/reviews?article_id=" + w.Articles[0].ID,
		"/api/insights/outlets",
	} {
		pc, pb := serve(primary, "GET", path, nil)
		fc, fb := serve(follower, "GET", path, nil)
		if pc != http.StatusOK || fc != pc || !bytes.Equal(pb, fb) {
			t.Errorf("GET %s: primary %d %s\nfollower %d %s", path, pc, pb, fc, fb)
		}
	}
	_, body := serve(follower, "GET", "/api/assess?id="+w.Articles[0].ID, nil)
	var a struct {
		ExpertOverall float64
		ExpertCount   int
	}
	if err := json.Unmarshal(body, &a); err != nil || a.ExpertCount != 2 || a.ExpertOverall != 4.5 {
		t.Errorf("follower assessment expert fields: %+v (%v)", a, err)
	}
	if code, body := serve(follower, "POST", "/api/reviews", review(other, "dr-d", 3)); code != http.StatusServiceUnavailable {
		t.Errorf("review on follower: %d %s", code, body)
	}
}
