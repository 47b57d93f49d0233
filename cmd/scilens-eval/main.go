// Command scilens-eval regenerates the data behind every evaluation
// artifact of the paper — Figure 3 (single-article assessment), Figure 4
// (newsroom activity), Figure 5 (engagement and evidence KDEs) and the two
// prose claims C1 (ingestion throughput) and C2 (indicator-assisted
// consensus) — as aligned text tables on stdout. -fig topics runs the
// daily maintenance cycle of §3.3 over the corpus (warehouse migration,
// model training, hierarchical topic discovery) and prints the discovered
// topic tree with term labels and the tags of a few held-out documents:
// the generic→specific segmentation the paper describes ("Health" →
// "COVID-19"). It retrains and re-indexes the store, so it runs last.
//
// Usage:
//
//	scilens-eval [-fig 3|4|5|c1|c2|topics|all] [-seed N] [-days N] [-scale F] [-reactions F]
//	             [-points N] [-raters N] [-csv DIR]
//
// The corpus is deterministic for a fixed seed, so every run of the same
// configuration prints byte-identical output on stdout. Wall-clock figures
// (the ingest time and claim C1's rate) go to stderr.
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	scilens "repro"
	"repro/internal/cluster"
)

// figures are the values -fig accepts; -fig all prints the others in this
// order.
var figures = []string{"3", "4", "5", "c1", "c2", "topics", "all"}

func main() {
	var (
		fig       = flag.String("fig", "all", "artifact to regenerate: "+strings.Join(figures, ", "))
		seed      = flag.Int64("seed", 1, "world seed")
		days      = flag.Int("days", scilens.WindowDays, "collection window length in days")
		scale     = flag.Float64("scale", 1.0, "outlet posting-rate scale")
		reactions = flag.Float64("reactions", 0.5, "social cascade size scale")
		points    = flag.Int("points", 64, "KDE grid points")
		raters    = flag.Int("raters", 12, "consensus experiment rater-pool size")
		csvDir    = flag.String("csv", "", "also write each figure's series as CSV files into this directory")
	)
	flag.Parse()
	if !slices.Contains(figures, *fig) {
		fmt.Fprintf(os.Stderr, "scilens-eval: unknown -fig %q; valid: %s\n", *fig, strings.Join(figures, "|"))
		os.Exit(2)
	}

	if err := run(*fig, *seed, *days, *scale, *reactions, *points, *raters, *csvDir); err != nil {
		fmt.Fprintln(os.Stderr, "scilens-eval:", err)
		os.Exit(1)
	}
}

func run(fig string, seed int64, days int, scale, reactions float64, points, raters int, csvDir string) error {
	fmt.Printf("SciLens evaluation — seed=%d days=%d rate-scale=%.2f reaction-scale=%.2f\n",
		seed, days, scale, reactions)

	start := time.Now()
	platform, world, err := scilens.Bootstrap(scilens.BootstrapConfig{
		Seed: seed, Days: days, RateScale: scale, ReactionScale: reactions,
	})
	if err != nil {
		return err
	}
	ingestWall := time.Since(start)
	events := len(world.Events())
	fmt.Printf("corpus: %d articles, %d events\n\n", len(world.Articles), events)
	fmt.Fprintf(os.Stderr, "ingested in %v\n", ingestWall.Round(time.Millisecond))

	want := func(name string) bool { return fig == "all" || fig == name }

	if want("3") {
		if err := printFigure3(platform, world); err != nil {
			return fmt.Errorf("figure 3: %w", err)
		}
	}
	if want("4") {
		if err := printFigure4(platform, world, days); err != nil {
			return fmt.Errorf("figure 4: %w", err)
		}
		if csvDir != "" {
			if err := writeFigure4CSV(platform, world, days, csvDir); err != nil {
				return fmt.Errorf("figure 4 csv: %w", err)
			}
		}
	}
	if want("5") {
		if err := printFigure5(platform, points); err != nil {
			return fmt.Errorf("figure 5: %w", err)
		}
		if csvDir != "" {
			if err := writeFigure5CSV(platform, points, csvDir); err != nil {
				return fmt.Errorf("figure 5 csv: %w", err)
			}
		}
	}
	if want("c1") {
		printClaimC1(events, ingestWall)
	}
	if want("c2") {
		if err := printClaimC2(platform, seed, raters); err != nil {
			return fmt.Errorf("claim c2: %w", err)
		}
	}
	if want("topics") {
		if err := printTopics(platform, world); err != nil {
			return fmt.Errorf("topics: %w", err)
		}
	}
	return nil
}

// printFigure3 prints the single-article assessment panel for one article
// per rating class — the data behind the paper's UI exhibit.
func printFigure3(p *scilens.Platform, w *scilens.World) error {
	fmt.Println("=== Figure 3 — single-article assessment (one article per rating class) ===")
	fmt.Printf("%-10s  %-9s  %9s  %12s  %7s  %6s  %8s  %9s  %9s\n",
		"class", "article", "clickbait", "subjectivity", "grade", "byline",
		"sci-refs", "reactions", "composite")
	printed := map[scilens.RatingClass]bool{}
	for _, art := range w.Articles {
		a, err := p.AssessID(art.ID)
		if err != nil {
			return err
		}
		if printed[a.Rating] {
			continue
		}
		printed[a.Rating] = true
		fmt.Printf("%-10s  %-9s  %9.3f  %12.3f  %7.1f  %6v  %8d  %9d  %9.3f\n",
			a.Rating, a.ArticleID, a.Clickbait, a.Subjectivity, a.ReadingGrade,
			a.HasByline, a.SciRefs, a.Reactions, a.Composite)
		if len(printed) == scilens.NumClasses {
			break
		}
	}
	fmt.Println()
	return nil
}

// printFigure4 prints the newsroom-activity series: mean percentage of
// daily posts on the topic per rating class, 7-day smoothed like the
// published curves.
func printFigure4(p *scilens.Platform, w *scilens.World, days int) error {
	series, err := p.Figure4(w.Start, days)
	if err != nil {
		return err
	}
	fmt.Println("=== Figure 4 — mean % of daily posts on COVID-19 per rating class (7-day smoothed) ===")
	classes := []scilens.RatingClass{
		scilens.Excellent, scilens.Good, scilens.Mixed, scilens.Poor, scilens.VeryPoor,
	}
	fmt.Printf("%-5s", "day")
	for _, c := range classes {
		fmt.Printf("  %10s", c)
	}
	fmt.Println()
	for d := 0; d < series.Days; d++ {
		fmt.Printf("%-5d", d)
		for _, c := range classes {
			fmt.Printf("  %10.2f", series.MeanSharePct[c][d])
		}
		fmt.Println()
	}
	fmt.Println()
	fmt.Println("window means (paper shape: classes start close, low quality pulls ahead):")
	third := series.Days / 3
	fmt.Printf("%-10s  %12s  %12s  %12s\n", "class", "early third", "mid third", "late third")
	for _, c := range classes {
		fmt.Printf("%-10s  %12.2f  %12.2f  %12.2f\n", c,
			series.MeanOver(c, 0, third),
			series.MeanOver(c, third, 2*third),
			series.MeanOver(c, 2*third, series.Days))
	}
	fmt.Println()
	return nil
}

// printFigure5 prints both KDE panels: social-media reactions (left) and
// scientific-reference ratio (right).
func printFigure5(p *scilens.Platform, points int) error {
	eng, err := p.Figure5Engagement(points)
	if err != nil {
		return err
	}
	fmt.Println("=== Figure 5 (left) — KDE of social media reactions (log10 axis) ===")
	printDensities(eng)

	ev, err := p.Figure5Evidence(points)
	if err != nil {
		return err
	}
	fmt.Println("=== Figure 5 (right) — KDE of scientific-reference ratio ===")
	printDensities(ev)
	return nil
}

func printDensities(ds []scilens.ClassDensity) {
	sort.Slice(ds, func(i, j int) bool { return ds[i].Class < ds[j].Class })
	fmt.Printf("%-10s  %6s  %8s  %8s  %8s  %8s  %8s  %8s\n",
		"class", "n", "mean", "std", "p10", "median", "p90", "spread")
	for _, d := range ds {
		fmt.Printf("%-10s  %6d  %8.3f  %8.3f  %8.3f  %8.3f  %8.3f  %8.3f\n",
			d.Class, d.N, d.Mean, d.Std, d.P10, d.P50, d.P90, d.Spread())
	}
	fmt.Println()
	fmt.Println("density curves (y per grid x, sparkline per class):")
	for _, d := range ds {
		fmt.Printf("%-10s  %s\n", d.Class, sparkline(d.Grid.Y))
	}
	fmt.Println()
}

// sparkline renders a density curve with eight shade levels.
func sparkline(ys []float64) string {
	if len(ys) == 0 {
		return ""
	}
	max := ys[0]
	for _, y := range ys {
		if y > max {
			max = y
		}
	}
	if max == 0 {
		max = 1
	}
	levels := []rune("▁▂▃▄▅▆▇█")
	out := make([]rune, len(ys))
	for i, y := range ys {
		idx := int(y / max * float64(len(levels)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(levels) {
			idx = len(levels) - 1
		}
		out[i] = levels[idx]
	}
	return string(out)
}

// printClaimC1 reports ingestion throughput against the paper's "daily
// thousands of news articles" operating point. The event count goes to
// stdout; the measured time and rate, which differ run to run, to stderr.
func printClaimC1(events int, wall time.Duration) {
	perSec := float64(events) / wall.Seconds()
	fmt.Println("=== Claim C1 — \"runs operationally handling daily thousands of news articles\" ===")
	fmt.Printf("events ingested:        %d\n", events)
	fmt.Fprintf(os.Stderr, "wall time:              %v\n", wall.Round(time.Millisecond))
	fmt.Fprintf(os.Stderr, "throughput:             %.0f events/s\n", perSec)
	fmt.Fprintf(os.Stderr, "daily capacity:         %.2e events/day (paper operating point: thousands of articles/day)\n",
		perSec*86400)
	fmt.Println()
}

// printClaimC2 runs the indicator-assisted consensus experiment.
func printClaimC2(p *scilens.Platform, seed int64, raters int) error {
	res, err := p.RunConsensusExperiment(scilens.ConsensusConfig{Seed: seed, Raters: raters})
	if err != nil {
		return err
	}
	fmt.Println("=== Claim C2 — indicators \"helped the platform users to have a better consensus\" ===")
	fmt.Printf("articles=%d raters=%d\n", res.Articles, res.Raters)
	fmt.Printf("%-28s  %10s  %10s\n", "metric", "without", "with")
	fmt.Printf("%-28s  %10.3f  %10.3f\n", "disagreement (mean std)", res.DisagreementWithout, res.DisagreementWith)
	fmt.Printf("%-28s  %10.3f  %10.3f\n", "per-rater MAE", res.MAEWithout, res.MAEWith)
	fmt.Printf("%-28s  %10.3f  %10.3f\n", "per-rater corr with truth", res.CorrWithout, res.CorrWith)
	fmt.Printf("disagreement reduction: %.1f%%   accuracy gain: %.1f%%\n",
		res.DisagreementReduction()*100, res.AccuracyGain()*100)
	fmt.Println()
	return nil
}

// printTopics runs the daily maintenance cycle (§3.3) on a pool as wide as
// GOMAXPROCS — the output does not depend on the width — and prints what
// it trained, the discovered topic tree and the discovered topics of three
// held-out documents.
func printTopics(p *scilens.Platform, w *scilens.World) error {
	pool := scilens.NewComputePool(runtime.GOMAXPROCS(0))
	daily, err := p.RunDaily(pool, w.Start.AddDate(0, 0, w.Days))
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

	fmt.Printf("discovered topic hierarchy (depth ≤ %d, labels = top centroid terms):\n", scilens.TopicMaxDepth)
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
		for _, a := range tags[:min(len(tags), 3)] {
			fmt.Printf("    %-28s p=%.2f (depth %d)\n", a.Label, a.Prob, a.Depth)
		}
	}
	return nil
}

func printTree(rep *scilens.TopicModelReport, n *cluster.TopicNode, indent string) {
	fmt.Printf("%s%-30s %5d articles\n", indent, rep.Tagger.Label(n.ID), len(n.Members))
	for _, c := range n.Children {
		printTree(rep, c, indent+"  ")
	}
}

// writeFigure4CSV writes the activity series as fig4_activity.csv
// (day, one column per rating class).
func writeFigure4CSV(p *scilens.Platform, w *scilens.World, days int, dir string) error {
	series, err := p.Figure4(w.Start, days)
	if err != nil {
		return err
	}
	classes := []scilens.RatingClass{
		scilens.Excellent, scilens.Good, scilens.Mixed, scilens.Poor, scilens.VeryPoor,
	}
	rows := [][]string{{"day", "excellent", "good", "mixed", "poor", "very_poor"}}
	for d := 0; d < series.Days; d++ {
		row := []string{strconv.Itoa(d)}
		for _, c := range classes {
			row = append(row, strconv.FormatFloat(series.MeanSharePct[c][d], 'f', 4, 64))
		}
		rows = append(rows, row)
	}
	return writeCSV(filepath.Join(dir, "fig4_activity.csv"), rows)
}

// writeFigure5CSV writes both KDE panels as fig5_engagement.csv and
// fig5_evidence.csv (class, x, y per grid point).
func writeFigure5CSV(p *scilens.Platform, points int, dir string) error {
	panels := []struct {
		name string
		get  func(int) ([]scilens.ClassDensity, error)
	}{
		{"fig5_engagement.csv", p.Figure5Engagement},
		{"fig5_evidence.csv", p.Figure5Evidence},
	}
	for _, panel := range panels {
		ds, err := panel.get(points)
		if err != nil {
			return err
		}
		rows := [][]string{{"class", "x", "density"}}
		for _, d := range ds {
			for i := range d.Grid.X {
				rows = append(rows, []string{
					d.Class.String(),
					strconv.FormatFloat(d.Grid.X[i], 'f', 6, 64),
					strconv.FormatFloat(d.Grid.Y[i], 'f', 6, 64),
				})
			}
		}
		if err := writeCSV(filepath.Join(dir, panel.name), rows); err != nil {
			return err
		}
	}
	return nil
}

func writeCSV(path string, rows [][]string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		_ = f.Close() // the write failure is the error worth reporting
		return err
	}
	w.Flush()
	if err := w.Error(); err != nil {
		_ = f.Close() // the flush failure is the error worth reporting
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(rows)-1)
	return f.Close()
}
