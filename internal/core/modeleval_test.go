package core

import (
	"math"
	"testing"

	"repro/internal/compute"
	"repro/internal/contentind"
	"repro/internal/rdbms"
)

// confusion counts binary-classification outcomes.
type confusion struct{ tp, fp, tn, fn int }

func (m confusion) accuracy() float64 {
	return float64(m.tp+m.tn) / float64(m.tp+m.fp+m.tn+m.fn)
}

func (m confusion) f1() float64 {
	if m.tp == 0 {
		return 0
	}
	precision := float64(m.tp) / float64(m.tp+m.fp)
	recall := float64(m.tp) / float64(m.tp+m.fn)
	return 2 * precision * recall / (precision + recall)
}

// scoreClickbait tabulates the trained clickbait model's verdict on every
// stored article with a gold label against that label. The stored
// indicator of a re-indexed article is the mean of the model's
// probability and the title's lexicon score, so the model's probability
// is twice the indicator less the lexicon score; the model says
// "clickbait" at 0.5 and above. Without a model the indicator is the
// lexicon score itself, which the helper refuses.
func scoreClickbait(t *testing.T, p *Platform, gold map[string]bool) confusion {
	t.Helper()
	var m confusion
	modelled := false
	p.articles.Scan(func(r rdbms.Row) bool {
		label, ok := gold[r[0].Str()]
		if !ok {
			return true
		}
		lex := contentind.LexiconClickbaitScore(r[4].Str())
		prob := 2*r[6].Float() - lex
		modelled = modelled || math.Abs(prob-lex) > 1e-9
		switch pred := prob >= 0.5; {
		case pred && label:
			m.tp++
		case pred:
			m.fp++
		case label:
			m.fn++
		default:
			m.tn++
		}
		return true
	})
	if m.tp+m.fp+m.tn+m.fn == 0 {
		t.Fatal("no stored article has a gold label")
	}
	if !modelled {
		t.Fatal("every stored clickbait score is the lexicon score: no trained model is attached")
	}
	return m
}

// TestEvaluateClickbaitModelAgainstGroundTruth trains on lexicon weak
// labels and scores the trained model against the synthetic ground truth
// (which titles used a clickbait template). Distant supervision must
// recover the signal far above chance.
func TestEvaluateClickbaitModelAgainstGroundTruth(t *testing.T) {
	p, w := testPlatform(t, 60, 15, 0.5)
	gold := make(map[string]bool, len(w.Articles))
	positives := 0
	for _, a := range w.Articles {
		gold[a.ID] = a.Clickbait
		if a.Clickbait {
			positives++
		}
	}
	pool := compute.NewPool(4, nil)
	if _, err := p.TrainClickbaitModel(pool, 7); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReindexCorpus(pool); err != nil {
		t.Fatal(err)
	}
	m := scoreClickbait(t, p, gold)
	if n := m.tp + m.fp + m.tn + m.fn; n != len(w.Articles) {
		t.Errorf("labelled %d of %d", n, len(w.Articles))
	}
	if m.tp+m.fn != positives {
		t.Errorf("gold positives mismatch: %+v vs %d", m, positives)
	}
	// Majority-class baseline: predicting "not clickbait" everywhere.
	baseline := 1 - float64(positives)/float64(len(w.Articles))
	if m.accuracy() <= baseline {
		t.Errorf("accuracy %.3f does not beat baseline %.3f", m.accuracy(), baseline)
	}
	if m.f1() < 0.5 {
		t.Errorf("F1 too low: %.3f (confusion %+v)", m.f1(), m)
	}
}
