package core

import "testing"

// TestAssessIDAllocations guards the stored-read path of paper Figure 3:
// an unreviewed article's assessment allocates the Assessment and nothing
// else — the social row and the reviews-table miss are read in place.
func TestAssessIDAllocations(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage counters change what the compiler inlines and keeps on the stack")
	}
	p, w := testPlatform(t, 71, 2, 0.2)
	defer p.Close()
	id := w.Articles[0].ID
	if _, err := p.ReviewAggregate(id); err == nil {
		t.Fatal("fixture article has reviews")
	}
	if n := testing.AllocsPerRun(200, func() {
		if _, err := p.AssessID(id); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("AssessID of an unreviewed article allocates %v times, want 1", n)
	}
}
