package textutil

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// resetFormTable empties the process-wide form table. Only a test that
// runs alone may call it: the table is not meant to shrink under readers.
func resetFormTable() {
	for i := range forms.slots {
		forms.slots[i].Store(nil)
	}
	forms.n.Store(0)
}

// fillFormTable admits filler forms, none of them a word of a test text,
// until the table is full.
func fillFormTable(t testing.TB) {
	for k := 0; forms.n.Load() < formTableCap; k++ {
		if k > 4*formTableSlots {
			t.Fatal("the form table does not fill")
		}
		forms.admit("qfill" + letterForm(k))
	}
}

// letterForm spells k in base 26 with the letters a–z.
func letterForm(k int) string {
	var b []byte
	for {
		b = append(b, byte('a'+k%26))
		k /= 26
		if k == 0 {
			return string(b)
		}
	}
}

// tableEntries returns every entry the form table holds.
func tableEntries() []*formEntry {
	var out []*formEntry
	for i := range forms.slots {
		if e := forms.slots[i].Load(); e != nil {
			out = append(out, e)
		}
	}
	return out
}

// checkEntry fails t unless e holds what the table-free functions give
// for its form.
func checkEntry(t *testing.T, e *formEntry) {
	t.Helper()
	if e.stem != porterStem(e.form) || int(e.syll) != SyllableCount(e.form) || e.stop != IsStopword(e.form) {
		t.Fatalf("form table entry %+v, want stem %q, %d syllables, stop %v",
			e, porterStem(e.form), SyllableCount(e.form), IsStopword(e.form))
	}
}

// TestFormTableDoesNotPinDocument: after NewAnalysis and Release, no key
// or stem in the form table points into the analysed document, whether a
// form entered the table from a lower-case token (a substring of the
// document) or from a capitalised one.
func TestFormTableDoesNotPinDocument(t *testing.T) {
	resetFormTable()
	doc := strings.Clone("Pinned researchers REPORTED pinned findings; the pinning trial " +
		"replicated earlier trials. Unpinned reviewers disagreed, unpinned and unconvinced.")
	NewAnalysis(doc).Release()
	entries := tableEntries()
	if len(entries) == 0 {
		t.Fatal("the analysis admitted no form")
	}
	start := uintptr(unsafe.Pointer(unsafe.StringData(doc)))
	for _, e := range entries {
		checkEntry(t, e)
		for _, s := range []string{e.form, e.stem} {
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p >= start && p < start+uintptr(len(doc)) {
				t.Fatalf("form table entry %+v points into the document", e)
			}
		}
	}
}

// TestFormTableAdmitsOnlyLetterForms: the table takes lower-case a–z forms
// of 3 to 24 letters and nothing else, and serves what it took.
func TestFormTableAdmitsOnlyLetterForms(t *testing.T) {
	resetFormTable()
	for _, form := range []string{"ab", "don't", "über", "Running", "covid19", strings.Repeat("x", maxFormLen+1)} {
		if e := forms.admit(form); e != nil {
			t.Errorf("admitted %q", form)
		}
	}
	for _, form := range []string{"the", "running", strings.Repeat("x", maxFormLen)} {
		e := forms.admit(form)
		if e == nil || forms.lookup(form) != e || forms.admit(form) != e {
			t.Fatalf("%q: admitted %+v, looked up %+v", form, e, forms.lookup(form))
		}
		checkEntry(t, e)
	}
	if n := forms.n.Load(); n != 3 {
		t.Fatalf("table counts %d forms, want 3", n)
	}
}

// TestFormTableConcurrentFill: goroutines analysing documents over
// overlapping vocabularies, together far more forms than the table takes,
// fill it to its cap and no further, and every stem any of them sees is
// the Porter stem of its word.
func TestFormTableConcurrentFill(t *testing.T) {
	resetFormTable()
	suffixes := []string{"", "s", "ing", "ed", "ational", "ness", "ly", "ies", "ement"}
	const goroutines, vocab, docWords = 4, 6000, 400
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Goroutine g walks the vocabulary from its own offset, so
			// every form is met by several goroutines in different orders.
			for d := 0; d*docWords < vocab; d++ {
				var sb strings.Builder
				for w := range docWords {
					k := (g*vocab/goroutines + d*docWords + w) % vocab
					word := "w" + letterForm(k) + suffixes[k%len(suffixes)]
					if k%5 == 0 {
						word = strings.ToUpper(word[:1]) + word[1:]
					}
					sb.WriteString(word + " ")
				}
				a := NewAnalysis(sb.String())
				for _, w := range a.Words {
					if want := porterStem(w.Lower); w.Stem != want {
						errs <- fmt.Sprintf("%q: stem %q, want %q", w.Lower, w.Stem, want)
						return
					}
				}
				a.Release()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	entries := tableEntries()
	if n := forms.n.Load(); n != formTableCap || len(entries) != formTableCap {
		t.Fatalf("table counts %d forms and holds %d, want %d", n, len(entries), formTableCap)
	}
	seen := map[string]bool{}
	for _, e := range entries {
		if seen[e.form] {
			t.Fatalf("form %q held twice", e.form)
		}
		seen[e.form] = true
		checkEntry(t, e)
	}
}

// BenchmarkAnalysisVocabulary measures NewAnalysis + Release on two
// vocabularies: corpus, 48 synthetic articles (title and body, the
// checked-in testdata/corpus.txt) whose forms the table holds after the
// first pass; and unseen, 256 documents of 300 distinct letter forms
// each, none of which the table holds: it is full of other forms and
// admits nothing.
func BenchmarkAnalysisVocabulary(b *testing.B) {
	raw, err := os.ReadFile("testdata/corpus.txt")
	if err != nil {
		b.Fatal(err)
	}
	corpus := strings.Split(strings.TrimSuffix(string(raw), "\n\f\n"), "\n\f\n")
	b.Run("corpus", func(b *testing.B) {
		resetFormTable()
		for _, doc := range corpus {
			NewAnalysis(doc).Release()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewAnalysis(corpus[i%len(corpus)]).Release()
		}
	})
	b.Run("unseen", func(b *testing.B) {
		fillFormTable(b)
		const docs, words = 256, 300
		unseen := make([]string, docs)
		for d := range unseen {
			var sb strings.Builder
			for w := range words {
				sb.WriteString("zu" + letterForm(d*words+w) + "ing ")
			}
			unseen[d] = sb.String()
		}
		NewAnalysis(unseen[0]).Release()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			NewAnalysis(unseen[i%docs]).Release()
		}
	})
}
