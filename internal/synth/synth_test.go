package synth

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/extract"
	"repro/internal/outlets"
	"repro/internal/refind"
	"repro/internal/socialind"
)

func smallWorld(t *testing.T, seed int64) *World {
	t.Helper()
	return GenerateWorld(Config{Seed: seed, Days: 12, RateScale: 0.4, ReactionScale: 0.5})
}

func TestGenerateWorldDeterministic(t *testing.T) {
	a := smallWorld(t, 42)
	b := smallWorld(t, 42)
	if len(a.Articles) != len(b.Articles) {
		t.Fatalf("article counts differ: %d vs %d", len(a.Articles), len(b.Articles))
	}
	for i := range a.Articles {
		if a.Articles[i].ID != b.Articles[i].ID || a.Articles[i].RawHTML != b.Articles[i].RawHTML {
			t.Fatalf("article %d differs", i)
		}
	}
	c := smallWorld(t, 43)
	if len(a.Articles) == len(c.Articles) && a.Articles[0].RawHTML == c.Articles[0].RawHTML {
		t.Error("different seeds should differ")
	}
}

func TestGenerateWorldShape(t *testing.T) {
	w := smallWorld(t, 1)
	if len(w.Articles) == 0 {
		t.Fatal("no articles")
	}
	// Sorted by time.
	for i := 1; i < len(w.Articles); i++ {
		if w.Articles[i].Published.Before(w.Articles[i-1].Published) {
			t.Fatal("articles not time-sorted")
		}
	}
	// Every article has a cascade with exactly one original.
	for _, a := range w.Articles {
		cascade := w.Cascades[a.ID]
		if len(cascade) == 0 {
			t.Fatalf("article %s has no cascade", a.ID)
		}
		originals := 0
		for _, p := range cascade {
			if p.Kind == socialind.Original {
				originals++
				if p.ArticleURL != a.URL {
					t.Fatalf("original post URL mismatch for %s", a.ID)
				}
			}
		}
		if originals != 1 {
			t.Fatalf("article %s has %d originals", a.ID, originals)
		}
	}
}

func TestArticlesParseCleanly(t *testing.T) {
	w := smallWorld(t, 2)
	cls := refind.NewClassifier(w.Registry)
	parsed := 0
	withBylineGen := 0
	withBylineExtracted := 0
	for _, a := range w.Articles {
		art, err := extract.Parse(a.RawHTML, a.URL)
		if err != nil {
			t.Fatalf("parse %s: %v", a.ID, err)
		}
		parsed++
		if art.Title != a.Title {
			t.Fatalf("title mismatch: %q vs %q", art.Title, a.Title)
		}
		if strings.Contains(a.RawHTML, "meta name=\"author\"") {
			withBylineGen++
			if art.HasByline() {
				withBylineExtracted++
			}
		}
		// References classify without error and internal links resolve.
		ind := cls.Analyze(art)
		if len(art.Links) != len(ind.References) {
			t.Fatalf("reference count mismatch for %s", a.ID)
		}
	}
	if parsed == 0 {
		t.Fatal("nothing parsed")
	}
	if withBylineExtracted != withBylineGen {
		t.Errorf("bylines: extracted %d of %d", withBylineExtracted, withBylineGen)
	}
}

func TestTopicShareMechanism(t *testing.T) {
	// The per-class logistic curves must satisfy the paper's two claims
	// *at parameter level*: similar starts, diverging ends.
	pExc := Params(outlets.Excellent)
	pVP := Params(outlets.VeryPoor)
	startGap := pVP.TopicShareAt(0) - pExc.TopicShareAt(0)
	endGap := pVP.TopicShareAt(59) - pExc.TopicShareAt(59)
	if startGap > 0.05 {
		t.Errorf("start gap too wide: %v", startGap)
	}
	if endGap < 0.2 {
		t.Errorf("end gap too small: %v", endGap)
	}
	// Monotone ordering of end shares across classes.
	prev := -1.0
	for c := outlets.Excellent; c <= outlets.VeryPoor; c++ {
		end := Params(c).TopicShareAt(59)
		if end <= prev {
			t.Fatalf("class %v end share %v not increasing", c, end)
		}
		prev = end
	}
}

func TestSciRefProbOrdering(t *testing.T) {
	prev := 2.0
	for c := outlets.Excellent; c <= outlets.VeryPoor; c++ {
		p := Params(c).SciRefProb
		if p >= prev {
			t.Fatalf("class %v sci-ref prob %v not decreasing", c, p)
		}
		prev = p
	}
}

func TestMeasuredSciRatioSeparatesClasses(t *testing.T) {
	// End-to-end: extract + classify references of generated articles and
	// verify the measured ratio ordering (Figure 5 right shape).
	w := GenerateWorld(Config{Seed: 3, Days: 20, RateScale: 0.5})
	cls := refind.NewClassifier(w.Registry)
	sums := make(map[outlets.RatingClass]float64)
	counts := make(map[outlets.RatingClass]int)
	for _, a := range w.Articles {
		art, err := extract.Parse(a.RawHTML, a.URL)
		if err != nil {
			t.Fatal(err)
		}
		ind := cls.Analyze(art)
		if len(ind.References) == 0 {
			continue
		}
		sums[a.Rating] += ind.ScientificRatio
		counts[a.Rating]++
	}
	excMean := sums[outlets.Excellent] / float64(counts[outlets.Excellent])
	vpMean := sums[outlets.VeryPoor] / float64(counts[outlets.VeryPoor])
	if excMean <= vpMean+0.2 {
		t.Errorf("measured sci ratio: excellent %v should clearly exceed very-poor %v", excMean, vpMean)
	}
}

func TestCascadeStanceShares(t *testing.T) {
	w := GenerateWorld(Config{Seed: 4, Days: 15, RateScale: 0.5})
	sc := socialind.NewStanceClassifier()
	denyRatio := make(map[outlets.RatingClass][]float64)
	for _, a := range w.Articles {
		mix := sc.AnalyzeStances(w.Cascades[a.ID])
		if mix.Total() < 3 {
			continue
		}
		denyRatio[a.Rating] = append(denyRatio[a.Rating], float64(mix.Deny)/float64(mix.Total()))
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		if len(xs) == 0 {
			return 0
		}
		return s / float64(len(xs))
	}
	if len(denyRatio[outlets.VeryPoor]) == 0 || len(denyRatio[outlets.Excellent]) == 0 {
		t.Skip("not enough cascades with replies")
	}
	if mean(denyRatio[outlets.VeryPoor]) <= mean(denyRatio[outlets.Excellent]) {
		t.Errorf("very-poor deny ratio %v should exceed excellent %v",
			mean(denyRatio[outlets.VeryPoor]), mean(denyRatio[outlets.Excellent]))
	}
}

func TestEventsRoundTrip(t *testing.T) {
	w := smallWorld(t, 5)
	events := w.Events()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	// Time-ordered.
	for i := 1; i < len(events); i++ {
		if events[i].Time.Before(events[i-1].Time) {
			t.Fatal("events not time-ordered")
		}
	}
	postings := 0
	for _, e := range events {
		if e.Type == EventTypePosting {
			postings++
			if e.ArticleHTML == "" || e.OutletID == "" || e.ArticleID == "" {
				t.Fatalf("posting missing fields: %+v", e.PostID)
			}
		} else if e.ArticleHTML != "" {
			t.Fatal("reaction should not carry article HTML")
		}
	}
	if postings != len(w.Articles) {
		t.Errorf("postings %d != articles %d", postings, len(w.Articles))
	}
	// JSON round trip.
	payload, err := events[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeEvent(payload)
	if err != nil {
		t.Fatal(err)
	}
	if back.PostID != events[0].PostID || !back.Time.Equal(events[0].Time) {
		t.Errorf("round trip: %+v", back)
	}
	if _, err := DecodeEvent([]byte("{bad json")); err == nil {
		t.Error("bad json should fail")
	}
}

func TestGenBodyAndTitleProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, topic := range append([]Topic{TopicCovid}, BackgroundTopics...) {
		title := GenTitle(rng, topic, true)
		if title == "" {
			t.Fatalf("empty clickbait title for %s", topic)
		}
		title = GenTitle(rng, topic, false)
		if title == "" {
			t.Fatalf("empty serious title for %s", topic)
		}
		body := GenBody(rng, topic, 5, 0.2, 0.3)
		if len(strings.Split(body, ". ")) < 4 {
			t.Fatalf("body too short for %s: %q", topic, body)
		}
	}
}

func TestPoissonAndLognormal(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	if poisson(rng, 0) != 0 {
		t.Error("lambda 0")
	}
	sum := 0
	const n = 5000
	for i := 0; i < n; i++ {
		sum += poisson(rng, 4)
	}
	meanP := float64(sum) / n
	if meanP < 3.7 || meanP > 4.3 {
		t.Errorf("poisson mean: %v", meanP)
	}
	var logSum float64
	for i := 0; i < n; i++ {
		v := lognormal(rng, 2, 0.5)
		if v <= 0 {
			t.Fatal("lognormal must be positive")
		}
		logSum += v
	}
}
