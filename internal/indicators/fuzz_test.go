package indicators

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/compute"
	"repro/internal/socialind"
)

// evaluateAllocBytesPerInputByte and evaluateAllocSlack bound what one
// cold evaluation allocates: extraction (at most 128 B per input byte,
// see FuzzExtractParse), the token, word and form slices of the two
// analyses and the report's references are each linear in the input, and
// the topic assignment and the report are a fixed overhead.
const (
	evaluateAllocBytesPerInputByte = 512
	evaluateAllocSlack             = 16 << 10
)

// fuzzNeighbour is the document analysed just before, or beside, the one
// under test: a short article whose common words ("the", "study",
// "patients", "trial") overlap most inputs, so scratch a released
// analysis failed to reset shows up in the next one.
const fuzzNeighbour = `<html><head><title>Trial results SHOCK doctors</title></head><body>
<p>The study followed patients in a clinical trial, researchers reported. The trial
was small and the patients were few, so the results remain preliminary!</p>
<p>See <a href="https://www.nature.com/articles/x">the paper</a> and <a href="/more">more</a>.</p>
</body></html>`

// fuzzReplies are the reply texts fuzzCascade draws from: support, denial
// and neutral comment.
var fuzzReplies = []string{
	"Great accurate reporting, so true.",
	"This is fake news, totally false and misleading.",
	"Is there a source for this claim?",
	"Interesting study, thanks for sharing",
	"Debunked nonsense, doctors disagree",
}

// fuzzCascade builds a small cascade from seed: an original share of url
// and up to seven reactions whose kinds, parents and texts follow the
// seed's bits.
func fuzzCascade(seed uint8, url string) []socialind.Post {
	if seed == 0 {
		return nil
	}
	t0 := time.Unix(1_600_000_000, 0)
	posts := []socialind.Post{{ID: "p0", Kind: socialind.Original, UserID: "outlet", ArticleURL: url, Time: t0}}
	for i := range int(seed % 8) {
		bits := int(seed) >> (i % 5)
		p := socialind.Post{
			ID:       fmt.Sprint("p", i+1),
			ParentID: fmt.Sprint("p", i/2),
			Kind:     []socialind.PostKind{socialind.Reply, socialind.Reply, socialind.Reshare, socialind.Like}[bits%4],
			UserID:   fmt.Sprint("u", bits%3),
			Time:     t0.Add(time.Duration(i+1) * time.Minute),
		}
		if p.Kind == socialind.Reply {
			p.Text = fuzzReplies[(bits+i)%len(fuzzReplies)]
		}
		posts = append(posts, p)
	}
	return posts
}

// floatBits appends the bits of every float in v, depth first.
func floatBits(v reflect.Value, out []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		out = append(out, math.Float64bits(v.Float()))
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			out = floatBits(v.Elem(), out)
		}
	case reflect.Struct:
		for i := range v.NumField() {
			out = floatBits(v.Field(i), out)
		}
	case reflect.Slice, reflect.Array:
		for i := range v.Len() {
			out = floatBits(v.Index(i), out)
		}
	case reflect.Map:
		panic("floatBits: maps are not compared")
	}
	return out
}

// outcome is what one path gave for a document.
type outcome struct {
	r   *Report
	err error
}

// checkSame fails t unless got and want are the same outcome: both errors
// with the same text, or reports that reflect.DeepEqual takes as equal and
// whose floats have the same bits.
func checkSame(t *testing.T, path string, got, want outcome) {
	t.Helper()
	switch {
	case (got.err == nil) != (want.err == nil):
		t.Fatalf("%s: error %v, want %v", path, got.err, want.err)
	case got.err != nil:
		if got.err.Error() != want.err.Error() {
			t.Fatalf("%s: error %q, want %q", path, got.err, want.err)
		}
	case !reflect.DeepEqual(got.r, want.r) ||
		!reflect.DeepEqual(floatBits(reflect.ValueOf(got.r), nil), floatBits(reflect.ValueOf(want.r), nil)):
		t.Fatalf("%s: report\n%+v\nwant\n%+v", path, got.r, want.r)
	}
}

func evaluate(e *Engine, doc, url string, cascade []socialind.Post) outcome {
	r, err := e.Evaluate(doc, url, cascade)
	return outcome{r, err}
}

// FuzzEvaluatePaths evaluates one document, under one URL and one cascade,
// down every path that produces an indicator report, and checks they agree.
// The paths share the pooled text analyses and the process-wide form
// table, which is where a defect that only some inputs or some orders reach
// would hide. For markup doc, url and cascade seed c:
//
//   - nothing panics, and an evaluation allocates at most
//     evaluateAllocBytesPerInputByte per input byte plus
//     evaluateAllocSlack;
//   - an engine that has evaluated other documents, a fresh engine, and
//     EvaluateBatch on pools of 1 and 2 workers give the same report
//     (reflect.DeepEqual, and every float the same bits), also right after
//     another document was analysed and released, and while another is
//     analysed on a second goroutine;
//   - an engine first asked for the same document under another URL gives
//     the report for url;
//   - an engine first asked with another cascade gives what a fresh
//     engine gives for c.
//
// The seeds under testdata/fuzz/FuzzEvaluatePaths are synthetic articles of
// three outlet classes, markup with relative and scientific links, text
// with capitalised, non-ASCII and invalid UTF-8 words, a document with no
// article and a long document of unseen words.
func FuzzEvaluatePaths(f *testing.F) {
	e := NewEngine(Config{})
	pool1, pool2 := compute.NewPool(1, nil), compute.NewPool(2, nil)
	f.Fuzz(func(t *testing.T, markup []byte, url string, c uint8) {
		doc := string(markup)
		cascade := fuzzCascade(c, url)

		// After a different document, and after this one.
		evaluate(e, fuzzNeighbour, "https://neighbour.example/a", nil)
		want := evaluate(e, doc, url, cascade)
		checkSame(t, "after itself", evaluate(e, doc, url, cascade), want)
		base := evaluate(e, doc, url, nil)

		allocated := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, _ = e.Evaluate(doc, url, nil)
			runtime.ReadMemStats(&after)
			if n := after.TotalAlloc - before.TotalAlloc; n < allocated {
				allocated = n
			}
		}
		if limit := uint64(evaluateAllocBytesPerInputByte*(len(doc)+len(url)) + evaluateAllocSlack); allocated > limit {
			t.Fatalf("evaluating %d + %d bytes allocated %d B, limit %d", len(doc), len(url), allocated, limit)
		}

		checkSame(t, "fresh engine", evaluate(NewEngine(Config{}), doc, url, cascade), want)

		other := url + "/other"
		byURL := NewEngine(Config{})
		evaluate(byURL, doc, other, nil)
		checkSame(t, "after another URL", evaluate(byURL, doc, url, nil), base)

		layered := NewEngine(Config{})
		evaluate(layered, doc, url, fuzzCascade(c+1, url))
		checkSame(t, "after another cascade", evaluate(layered, doc, url, cascade),
			evaluate(NewEngine(Config{}), doc, url, cascade))

		docs := []BatchDoc{{ID: "neighbour", HTML: fuzzNeighbour, URL: other}, {ID: "doc", HTML: doc, URL: url}}
		for workers, pool := range []*compute.Pool{1: pool1, 2: pool2} {
			if pool == nil {
				continue
			}
			res, err := e.EvaluateBatch(pool, docs)
			if err != nil {
				t.Fatal(err)
			}
			checkSame(t, fmt.Sprint("batch on ", workers, " workers"), outcome{res[1].Report, res[1].Err}, base)
		}

		// Beside a second goroutine that analyses other documents.
		stop := make(chan struct{})
		var wg sync.WaitGroup
		defer func() {
			close(stop)
			wg.Wait()
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			beside := NewEngine(Config{})
			for {
				select {
				case <-stop:
					return
				default:
					evaluate(beside, fuzzNeighbour, other, nil)
				}
			}
		}()
		for range 4 {
			checkSame(t, "beside another evaluation", evaluate(e, doc, url, cascade), want)
		}
	})
}
