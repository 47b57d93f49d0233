package textutil

import (
	"hash/maphash"
	"strings"
	"sync/atomic"
)

// The form table memoises, process-wide, the word-level facts of a
// lower-case word form: its Porter stem, its syllable estimate and its
// stop-word flag. All three are pure functions of the form, and news prose
// draws on a small vocabulary, so most forms a document holds were stemmed
// for an earlier document already.
//
// The table is an open-addressed array of atomic pointers to immutable
// entries. A reader probes it without a lock and without allocating; a
// writer claims an empty slot with a compare-and-swap. It never evicts: it
// admits forms until it holds formTableCap of them and then admits none,
// so past that point a miss costs one probe sequence and nothing more.
// Every entry owns its bytes (the form and the stem are copied), so the
// table pins no document.
const (
	// formTableCap is the most forms the table admits.
	formTableCap = 4096
	// formTableSlots keeps the table at most a quarter full: a probe for
	// a form the table does not hold then meets an empty slot first
	// three times in four, and dereferences an entry a third of a time
	// on average.
	formTableSlots = 4 * formTableCap
	// minFormLen and maxFormLen bound the forms the table admits. A
	// shorter word is its own stem; a longer one is rare enough that it
	// is not worth a slot.
	minFormLen, maxFormLen = 3, 24
)

// formEntry is what the table holds for one form.
type formEntry struct {
	form, stem string
	syll       int32
	stop       bool
}

// formTable is the process-wide table; forms is its one instance.
type formTable struct {
	seed  maphash.Seed
	n     atomic.Int32 // slots claimed or reserved, at most formTableCap once settled
	slots [formTableSlots]atomic.Pointer[formEntry]
}

var forms = formTable{seed: maphash.MakeSeed()}

// lookup returns the entry held for form, or nil.
func (t *formTable) lookup(form string) *formEntry {
	if len(form) < minFormLen || len(form) > maxFormLen {
		return nil
	}
	for i := maphash.String(t.seed, form); ; i++ {
		e := t.slots[i%formTableSlots].Load()
		if e == nil || e.form == form {
			return e
		}
	}
}

// admit adds form, which must be lower-cased, and returns its entry. It
// returns nil, and adds nothing, when form is not 3–24 letters a–z or the
// table is full.
func (t *formTable) admit(form string) *formEntry {
	if len(form) < minFormLen || len(form) > maxFormLen || t.n.Load() >= formTableCap {
		return nil
	}
	for i := 0; i < len(form); i++ {
		if form[i] < 'a' || form[i] > 'z' {
			return nil
		}
	}
	if t.n.Add(1) > formTableCap {
		t.n.Add(-1)
		return nil
	}
	e := &formEntry{
		form: strings.Clone(form),
		syll: int32(syllablesOfStripped(form)),
		stop: IsStopwordLower(form),
	}
	var buf [maxFormLen]byte
	stem := appendStem(buf[:0], form)
	if strings.HasPrefix(e.form, string(stem)) {
		e.stem = e.form[:len(stem)]
	} else {
		e.stem = string(stem)
	}
	for i := maphash.String(t.seed, form); ; i++ {
		slot := &t.slots[i%formTableSlots]
		if slot.CompareAndSwap(nil, e) {
			return e
		}
		if old := slot.Load(); old.form == form {
			// Another goroutine admitted the same form first.
			t.n.Add(-1)
			return old
		}
	}
}
