package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/compute"
)

// DailyReport summarises one RunDaily cycle.
type DailyReport struct {
	// Date is the snapshot date.
	Date time.Time
	// MigratedRows is the row count of the daily snapshot.
	MigratedRows int
	// Clickbait, Stance and Topics are the training reports (nil for a
	// stage that was skipped because its input was empty).
	Clickbait, Stance *TrainReport
	// Topics is the topic-discovery report (nil when skipped).
	Topics *TopicModelReport
	// Reindex is the corpus re-evaluation that follows a successful
	// retrain, so stored assessments never serve retired-model scores
	// (nil when no model was retrained this cycle).
	Reindex *ReindexReport
}

// TopicMaxDepth is the depth limit of the topic tree RunDaily discovers:
// generic topics at depth 1, at most two levels of sub-topics below them.
const TopicMaxDepth = 3

// RunDaily executes the platform's daily maintenance cycle (paper §3.3):
// the RDBMS → warehouse migration, then the periodic model
// training jobs over the warehoused history on the compute pool. Training
// stages whose input is empty (no replies yet, say) are skipped rather
// than failing the cycle; the returned report records what ran.
func (p *Platform) RunDaily(pool *compute.Pool, date time.Time) (*DailyReport, error) {
	rep := &DailyReport{Date: date}

	migrated, err := p.RunDailyMigration(date)
	if err != nil {
		return nil, fmt.Errorf("daily migration: %w", err)
	}
	rep.MigratedRows = migrated

	rep.Clickbait, err = p.TrainClickbaitModel(pool, date.Unix())
	if err != nil && !errors.Is(err, ErrNotIngested) {
		return rep, fmt.Errorf("clickbait training: %w", err)
	}
	rep.Stance, err = p.TrainStanceModel(pool)
	if err != nil && !errors.Is(err, ErrNotIngested) {
		return rep, fmt.Errorf("stance training: %w", err)
	}
	rep.Topics, err = p.TrainTopicModel(pool, date, cluster.HierarchyConfig{
		Branch: 2, MaxDepth: TopicMaxDepth, MinLeaf: 16, Seed: date.Unix(),
	})
	if err != nil && !errors.Is(err, ErrNotIngested) {
		return rep, fmt.Errorf("topic training: %w", err)
	}
	// Any retrain leaves the stored per-article indicator columns stale
	// (they were computed by the now-retired models at ingest time): one
	// corpus re-index after all training stages brings the store current.
	if rep.Clickbait != nil || rep.Stance != nil {
		rep.Reindex, err = p.ReindexCorpus(pool)
		if err != nil {
			return rep, fmt.Errorf("corpus reindex: %w", err)
		}
	}
	return rep, nil
}
