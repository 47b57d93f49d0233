// Runnable godoc examples for the durable platform lifecycle. go test
// executes these, so the documented snippets cannot rot.
package scilens_test

import (
	"fmt"
	"os"
	"time"

	scilens "repro"
)

// ExamplePlatform_Checkpoint demonstrates the operator loop of a durable
// platform: assemble with Config.DataDir, persist online with Checkpoint
// (incremental: only partitions dirtied since the last checkpoint are
// re-serialised), observe it in StorageStats, and shut down with Close
// (drains the pipeline, writes a final checkpoint, releases the store).
func ExamplePlatform_Checkpoint() {
	dir, err := os.MkdirTemp("", "scilens-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)

	platform, err := scilens.New(scilens.Config{
		DataDir:        dir,
		WALFsyncPolicy: "interval:25ms", // bound the power-loss window
	})
	if err != nil {
		panic(err)
	}

	st, err := platform.Checkpoint() // first checkpoint: a full base
	if err != nil {
		panic(err)
	}
	fmt.Printf("checkpoint: tables=%d full=%v\n", st.Tables, st.Full)

	ss := platform.StorageStats()
	fmt.Printf("storage: durable=%v generation=%d fsync=%s\n",
		ss.Durable, ss.SnapshotGeneration, ss.WALFsyncPolicy)

	if err := platform.Close(); err != nil {
		panic(err)
	}
	// Output:
	// checkpoint: tables=6 full=true
	// storage: durable=true generation=1 fsync=interval
}

// ExamplePlatform_SubmitReview shows that expert reviews (paper §3.2) are
// stored like every other row: three experts review one article on a
// durable platform, the platform closes, and the reopened platform serves
// the same weighted, time-sensitive aggregate — newer reviews weigh more
// (30-day half-life) and the free-text reviews come newest first.
func ExamplePlatform_SubmitReview() {
	dir, err := os.MkdirTemp("", "scilens-example")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	now := time.Date(2020, 3, 31, 0, 0, 0, 0, time.UTC)
	cfg := scilens.Config{DataDir: dir, Clock: func() time.Time { return now }}

	platform, err := scilens.New(cfg)
	if err != nil {
		panic(err)
	}
	for _, r := range []struct {
		reviewer string
		age      time.Duration
		scores   [scilens.NumCriteria]int
		text     string
	}{
		{"dr-epidemiology", 45 * 24 * time.Hour, [...]int{4, 4, 4, 3, 4, 4, 4}, "Solid sourcing, imprecise on mechanisms."},
		{"dr-virology", 10 * 24 * time.Hour, [...]int{5, 4, 5, 4, 5, 4, 5}, "Accurately reflects the preprint it cites."},
		{"science-desk", 24 * time.Hour, [...]int{4, 5, 4, 4, 5, 5, 4}, ""},
	} {
		review := scilens.Review{
			ArticleID: "art-000001", Reviewer: r.reviewer,
			Scores: r.scores, Text: r.text, Time: now.Add(-r.age),
		}
		if _, err := platform.SubmitReview(review); err != nil {
			panic(err)
		}
	}
	if err := platform.Close(); err != nil {
		panic(err)
	}

	reopened, err := scilens.New(cfg)
	if err != nil {
		panic(err)
	}
	defer reopened.Close()
	agg, err := reopened.ReviewAggregate("art-000001")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d reviews, overall %.2f / 5\n", agg.Count, agg.Overall)
	for c := scilens.Criterion(0); c < scilens.NumCriteria; c++ {
		fmt.Printf("  %-25s %.2f\n", c, agg.PerCriterion[c])
	}
	for _, text := range agg.Texts {
		fmt.Printf("  %q\n", text)
	}
	// Output:
	// 3 reviews, overall 4.39 / 5
	//   factual-accuracy          4.37
	//   scientific-understanding  4.46
	//   logic-reasoning           4.37
	//   precision-clarity         3.83
	//   sources-quality           4.83
	//   fairness                  4.46
	//   clickbaitness             4.37
	//   "Accurately reflects the preprint it cites."
	//   "Solid sourcing, imprecise on mechanisms."
}
