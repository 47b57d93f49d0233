package contentind

import (
	"math/rand"
	"testing"

	"repro/internal/classify"
	"repro/internal/extract"
	"repro/internal/textutil"
)

var clickbaitTitles = []string{
	"You Won't Believe What This Doctor Found In Your Food",
	"SHOCKING: This One Weird Trick Cures Everything!!!",
	"Doctors HATE her! The secret they don't want you to know",
	"10 Unbelievable Facts That Will Blow Your Mind",
	"What Happens Next Will Leave You Speechless",
	"The Miracle Cure Big Pharma Is Hiding From You",
	"This Is Why You Should NEVER Eat Bananas Again",
	"Wait Until You See What Scientists Found — INSANE",
}

var seriousTitles = []string{
	"Phase 3 trial reports 62% efficacy for candidate vaccine",
	"WHO issues updated guidance on mask usage in public spaces",
	"Researchers publish genome analysis of novel coronavirus",
	"Hospital admissions decline for third consecutive week",
	"Peer review finds methodological flaws in hydroxychloroquine study",
	"Antibody survey suggests wider spread than confirmed cases indicate",
	"University consortium launches vaccine distribution modelling effort",
	"Clinical data shows modest benefit of early intervention",
}

func TestLexiconClickbaitSeparates(t *testing.T) {
	for _, title := range clickbaitTitles {
		if s := LexiconClickbaitScore(title); s < 0.5 {
			t.Errorf("clickbait %q scored %v", title, s)
		}
	}
	for _, title := range seriousTitles {
		if s := LexiconClickbaitScore(title); s > 0.45 {
			t.Errorf("serious %q scored %v", title, s)
		}
	}
}

func TestLexiconClickbaitBounds(t *testing.T) {
	if s := LexiconClickbaitScore(""); s != 0 {
		t.Errorf("empty: %v", s)
	}
	huge := ""
	for i := 0; i < 50; i++ {
		huge += "SHOCKING unbelievable miracle!!! "
	}
	if s := LexiconClickbaitScore(huge); s > 1 {
		t.Errorf("score above 1: %v", s)
	}
}

func TestSubjectivityScore(t *testing.T) {
	objective := `The trial enrolled 3000 participants across 12 sites.
	Results were published on Thursday. The protocol was registered in 2019.`
	subjective := `This amazing, incredible result is absolutely wonderful
	news. Critics spread terrible, shocking lies but the brilliant authors
	love this fantastic outcome. It is perfect, remarkable and stunning.`
	so := SubjectivityScore(objective)
	ss := SubjectivityScore(subjective)
	if so >= ss {
		t.Errorf("objective %v should score below subjective %v", so, ss)
	}
	if ss < 0.8 {
		t.Errorf("dense subjective text: %v", ss)
	}
	if so > 0.25 {
		t.Errorf("objective text: %v", so)
	}
	if SubjectivityScore("") != 0 {
		t.Error("empty body")
	}
}

func TestAnalyzeEndToEnd(t *testing.T) {
	a := NewAnalyzer()
	art := &extract.Article{
		Title:  "You Won't Believe This Miracle Cure!!!",
		Body:   "This amazing and incredible discovery is absolutely wonderful. Shocking critics hate it.",
		Byline: "Jane Doe",
	}
	ind := a.AnalyzeDoc(art, textutil.NewAnalysis(art.Title), textutil.NewAnalysis(art.Body))
	if ind.Clickbait < 0.5 {
		t.Errorf("clickbait: %v", ind.Clickbait)
	}
	if ind.Subjectivity < 0.5 {
		t.Errorf("subjectivity: %v", ind.Subjectivity)
	}
	if !ind.HasByline {
		t.Error("byline")
	}
	if ind.ReadingGrade == 0 {
		t.Error("grade should be non-zero for real text")
	}
}

func TestFeatureExtractorShape(t *testing.T) {
	f := NewFeatureExtractor()
	v := f.Extract("10 SHOCKING Facts You Won't Believe!")
	for idx := range v {
		if idx < 0 || idx >= f.Dim() {
			t.Fatalf("feature index %d out of range %d", idx, f.Dim())
		}
	}
	if v[hashDim+featPhraseHits] == 0 {
		t.Error("phrase hits feature not set")
	}
	if v[hashDim+featExclaims] == 0 {
		t.Error("exclaim feature not set")
	}
	if v[hashDim+featNumbers] == 0 {
		t.Error("number feature not set")
	}
}

func TestTrainedModelImprovesOrMatchesLexicon(t *testing.T) {
	// Build a labelled set from the fixtures plus noise variants.
	rng := rand.New(rand.NewSource(11))
	var titles []string
	var labels []bool
	decorations := []string{"", " today", " - report", " (updated)", " this week"}
	for i := 0; i < 10; i++ {
		for _, title := range clickbaitTitles {
			titles = append(titles, title+decorations[rng.Intn(len(decorations))])
			labels = append(labels, true)
		}
		for _, title := range seriousTitles {
			titles = append(titles, title+decorations[rng.Intn(len(decorations))])
			labels = append(labels, false)
		}
	}
	f := NewFeatureExtractor()
	data := make([]classify.Example, len(titles))
	for i, title := range titles {
		data[i] = classify.Example{X: f.Extract(title), Y: labels[i]}
	}
	model, err := classify.TrainLogReg(data, classify.LogRegConfig{Dim: f.Dim(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := NewAnalyzer()
	a.SetClickbaitModel(model)

	correct := 0
	for i, title := range titles {
		pred := a.ClickbaitScoreDoc(textutil.NewAnalysis(title)) >= 0.5
		if pred == labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(titles))
	if acc < 0.95 {
		t.Errorf("blended accuracy on training distribution: %v", acc)
	}
}

func TestAnalyzerWithoutModelStillWorks(t *testing.T) {
	a := NewAnalyzer()
	if s := a.ClickbaitScoreDoc(textutil.NewAnalysis("Plain headline about budget policy")); s > 0.3 {
		t.Errorf("plain headline: %v", s)
	}
}
