package core

import (
	"errors"
	"testing"

	"repro/internal/compute"
)

func TestEvaluateClickbaitModelAgainstGroundTruth(t *testing.T) {
	// Train on lexicon weak labels, evaluate against the synthetic
	// ground truth (which titles used a clickbait template). Distant
	// supervision must recover the signal far above chance.
	p, w := testPlatform(t, 60, 15, 0.5)
	pool := compute.NewPool(4, nil)
	if _, err := p.TrainClickbaitModel(pool, 7); err != nil {
		t.Fatal(err)
	}
	gold := make(map[string]bool, len(w.Articles))
	positives := 0
	for _, a := range w.Articles {
		gold[a.ID] = a.Clickbait
		if a.Clickbait {
			positives++
		}
	}
	rep, err := p.EvaluateClickbaitModel(gold)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Labelled != len(w.Articles) {
		t.Errorf("labelled %d of %d", rep.Labelled, len(w.Articles))
	}
	// Majority-class baseline: predicting "not clickbait" everywhere.
	baseline := 1 - float64(positives)/float64(len(w.Articles))
	if rep.Accuracy <= baseline {
		t.Errorf("accuracy %.3f does not beat baseline %.3f", rep.Accuracy, baseline)
	}
	if rep.F1 < 0.5 {
		t.Errorf("F1 too low: %.3f (confusion %+v)", rep.F1, rep.Confusion)
	}
	if rep.Confusion.TP+rep.Confusion.FN != positives {
		t.Errorf("gold positives mismatch: %+v vs %d", rep.Confusion, positives)
	}
}

func TestEvaluateClickbaitModelRequiresTraining(t *testing.T) {
	p, w := testPlatform(t, 61, 3, 0.2)
	gold := map[string]bool{w.Articles[0].ID: true}
	if _, err := p.EvaluateClickbaitModel(gold); !errors.Is(err, ErrNotIngested) {
		t.Errorf("untrained engine: %v", err)
	}
}

func TestEvaluateClickbaitModelNoLabels(t *testing.T) {
	p, _ := testPlatform(t, 62, 5, 0.3)
	pool := compute.NewPool(2, nil)
	if _, err := p.TrainClickbaitModel(pool, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.EvaluateClickbaitModel(map[string]bool{"ghost": true}); !errors.Is(err, ErrNotIngested) {
		t.Errorf("no labelled overlap: %v", err)
	}
}
