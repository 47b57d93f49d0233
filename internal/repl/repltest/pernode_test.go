package repltest

import (
	"bufio"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/api"
	"repro/internal/core"
	"repro/internal/synth"
)

// counter scrapes one unlabeled series from a platform's own GET /metrics.
func counter(t *testing.T, p *core.Platform, name string) uint64 {
	t.Helper()
	rec := httptest.NewRecorder()
	api.DebugHandler(p.Metrics).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, err := strconv.ParseUint(v, 10, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return n
		}
	}
	t.Fatalf("%s missing from /metrics", name)
	return 0
}

// TestPerNodeMetrics: a primary and its follower in one process each
// serve their own registry. The follower's replication counters are the
// ones its Status reports; the primary, which applies nothing, reads 0
// on them, and the follower, which serves no one, has sent nothing.
func TestPerNodeMetrics(t *testing.T) {
	pair := NewPair(t, nil, nil)
	w := synth.GenerateWorld(synth.Config{Seed: 7, Days: 3, RateScale: 0.2, ReactionScale: 0.2})
	if _, err := pair.Primary.Platform.IngestWorld(w); err != nil {
		t.Fatal(err)
	}
	WaitConvergedPair(t, pair, 30*time.Second)
	primary, follower := pair.Primary.Platform, pair.Follower.Platform

	st := follower.ReplicationStatus()
	if st.RecordsApplied == 0 || st.FullResyncs != 1 {
		t.Fatalf("follower status %+v: want records applied and the one bootstrap resync", st)
	}
	for name, want := range map[string]uint64{
		"scilens_repl_records_applied_total": st.RecordsApplied,
		"scilens_repl_full_resyncs_total":    st.FullResyncs,
		"scilens_repl_bytes_received_total":  st.BytesReceived,
		"scilens_repl_bytes_sent_total":      0,
	} {
		if got := counter(t, follower, name); got != want {
			t.Errorf("follower %s = %d, Status says %d", name, got, want)
		}
	}
	for _, name := range []string{"scilens_repl_records_applied_total", "scilens_repl_full_resyncs_total", "scilens_repl_bytes_received_total"} {
		if got := counter(t, primary, name); got != 0 {
			t.Errorf("primary %s = %d, want 0", name, got)
		}
	}
	if counter(t, primary, "scilens_repl_bytes_sent_total") == 0 {
		t.Error("primary scilens_repl_bytes_sent_total = 0 after shipping a world")
	}
}
