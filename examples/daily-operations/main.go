// daily-operations walks the platform's §3.3 back-office day: stream the
// firehose in, run the daily RDBMS → warehouse migration, train the ML
// models over the warehoused history on the compute pool, evaluate the
// trained clickbait model against ground truth, and replay the warehouse
// snapshot into historical analytics.
//
// Run with:
//
//	go run ./examples/daily-operations
package main

import (
	"fmt"
	"log"

	scilens "repro"
)

func main() {
	// Day 0: the streaming path populates the hot store.
	platform, world, err := scilens.Bootstrap(scilens.BootstrapConfig{
		Seed: 17, Days: 15, RateScale: 0.4, ReactionScale: 0.3,
	})
	if err != nil {
		log.Fatal(err)
	}
	stats := platform.Stats()
	fmt.Printf("ingested: %d postings, %d reactions\n\n", stats.Postings, stats.Reactions)

	// Nightly cron: migration + model training (skips empty stages).
	pool := scilens.NewComputePool(4)
	date := world.Start.AddDate(0, 0, world.Days)
	daily, err := platform.RunDaily(pool, date)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("daily cycle:")
	fmt.Printf("  snapshot rows:   %d\n", daily.MigratedRows)
	fmt.Printf("  clickbait model: %d weak labels (train acc %.2f)\n",
		daily.Clickbait.Examples, daily.Clickbait.TrainAccuracy)
	fmt.Printf("  stance model:    %d replies (train acc %.2f)\n",
		daily.Stance.Examples, daily.Stance.TrainAccuracy)
	fmt.Printf("  topic model:     %d nodes / %d leaves over %d documents\n\n",
		daily.Topics.Nodes, daily.Topics.Leaves, daily.Topics.Documents)

	// Score the trained clickbait model against the generator's ground
	// truth (which titles used a clickbait template).
	gold := make(map[string]bool, len(world.Articles))
	for _, a := range world.Articles {
		gold[a.ID] = a.Clickbait
	}
	eval, err := platform.EvaluateClickbaitModel(gold)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("clickbait model vs ground truth (%d articles):\n", eval.Labelled)
	fmt.Printf("  accuracy %.3f  precision %.3f  recall %.3f  F1 %.3f\n\n",
		eval.Accuracy, eval.Precision, eval.Recall, eval.F1)

	// Historical analytics replayed from the warehouse snapshot — the
	// "ad-hoc querying on historical data" path, without touching the
	// real-time store.
	facts, err := platform.BuildFactsFromWarehouse(date)
	if err != nil {
		log.Fatal(err)
	}
	byClass := map[scilens.RatingClass]int{}
	for _, f := range facts {
		byClass[f.Rating]++
	}
	fmt.Printf("warehouse replay: %d article facts\n", len(facts))
	for c := scilens.Excellent; c <= scilens.VeryPoor; c++ {
		fmt.Printf("  %-10s %5d articles\n", c, byClass[c])
	}
}
