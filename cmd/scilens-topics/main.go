// Command scilens-topics runs the platform's daily maintenance cycle
// (paper §3.3) over a synthetic corpus: the RDBMS → warehouse migration
// (held in memory here), the periodic model-training jobs, and the unsupervised
// probabilistic hierarchical topic discovery. It then prints the
// discovered topic tree with term labels and tags a few held-out
// documents, demonstrating the generic→specific segmentation the paper
// describes ("Health" → "COVID-19").
//
// Usage:
//
//	scilens-topics [-seed N] [-days N] [-scale F] [-depth N] [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"

	scilens "repro"
	"repro/internal/cluster"
)

func main() {
	var (
		seed    = flag.Int64("seed", 1, "world seed")
		days    = flag.Int("days", 20, "collection window length in days")
		scale   = flag.Float64("scale", 0.5, "outlet posting-rate scale")
		depth   = flag.Int("depth", 3, "maximum hierarchy depth")
		workers = flag.Int("workers", 4, "compute pool workers")
	)
	flag.Parse()
	if err := run(*seed, *days, *scale, *depth, *workers); err != nil {
		fmt.Fprintln(os.Stderr, "scilens-topics:", err)
		os.Exit(1)
	}
}

func run(seed int64, days int, scale float64, depth, workers int) error {
	platform, world, err := scilens.Bootstrap(scilens.BootstrapConfig{
		Seed: seed, Days: days, RateScale: scale, ReactionScale: 0.2,
	})
	if err != nil {
		return err
	}
	fmt.Printf("corpus: %d articles over %d days\n\n", len(world.Articles), world.Days)

	pool := scilens.NewComputePool(workers)
	date := world.Start.AddDate(0, 0, world.Days)
	daily, err := platform.RunDaily(pool, date)
	if err != nil {
		return err
	}
	fmt.Println("daily maintenance cycle (§3.3):")
	fmt.Printf("  migrated rows:      %d\n", daily.MigratedRows)
	if daily.Clickbait != nil {
		fmt.Printf("  clickbait model:    %d weak labels, train accuracy %.3f\n",
			daily.Clickbait.Examples, daily.Clickbait.TrainAccuracy)
	}
	if daily.Stance != nil {
		fmt.Printf("  stance model:       %d replies, train accuracy %.3f\n",
			daily.Stance.Examples, daily.Stance.TrainAccuracy)
	}
	if daily.Topics == nil {
		return fmt.Errorf("topic discovery did not run")
	}
	fmt.Printf("  topic model:        %d documents, %d nodes, %d leaves\n\n",
		daily.Topics.Documents, daily.Topics.Nodes, daily.Topics.Leaves)

	fmt.Printf("discovered topic hierarchy (depth ≤ %d, labels = top centroid terms):\n", depth)
	printTree(daily.Topics, daily.Topics.Root, "")
	fmt.Println()

	fmt.Println("tagging held-out documents:")
	samples := []string{
		"New coronavirus vaccine trial reports strong antibody response in patients",
		"Telescope survey maps distant galaxies and their rotation curves",
		"Study links ultra-processed diet to heart disease risk",
	}
	for _, doc := range samples {
		fmt.Printf("  %q\n", doc)
		tags := daily.Topics.Tagger.Tag(doc)
		if len(tags) == 0 {
			fmt.Println("    (no discovered topic above threshold)")
			continue
		}
		for i, a := range tags {
			if i == 3 {
				break
			}
			fmt.Printf("    %-28s p=%.2f (depth %d)\n", a.Label, a.Prob, a.Depth)
		}
	}
	return nil
}

func printTree(rep *scilens.TopicModelReport, n *cluster.TopicNode, indent string) {
	label := rep.Tagger.Label(n.ID)
	fmt.Printf("%s%-30s %5d articles\n", indent, label, len(n.Members))
	for _, c := range n.Children {
		printTree(rep, c, indent+"  ")
	}
}
