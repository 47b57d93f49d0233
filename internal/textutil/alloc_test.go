// Under -race, sync.Pool drops a quarter of its Puts at random, so an
// allocation count through the pool means nothing there.

//go:build !race

package textutil

import "testing"

// TestAnalysisReuseAllocatesOnlyStems: in steady state, analysing a
// lower-case paragraph on a pooled analysis allocates nothing while the
// form table holds its words, and one string, the stems, when the table
// is full of other forms. Tokens, words, forms, the distinct-form map and
// the stem arena are all reused.
func TestAnalysisReuseAllocatesOnlyStems(t *testing.T) {
	const paragraph = "the researchers reported that the vaccine trial, which enrolled " +
		"thousands of volunteers, reduced hospitalisations. independent scientists " +
		"cautioned that the findings were preliminary and needed replication! " +
		"the agency said it would review the data before approving the vaccine."
	for _, full := range []bool{false, true} {
		resetFormTable()
		want := 0.0
		if full {
			fillFormTable(t)
			want = 1
		}
		NewAnalysis(paragraph).Release()
		if n := testing.AllocsPerRun(100, func() { NewAnalysis(paragraph).Release() }); n > want {
			t.Errorf("full form table %v: NewAnalysis+Release of a pooled analysis allocates %v times, want at most %v", full, n, want)
		}
	}
}
