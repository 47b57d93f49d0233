package socialind

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/classify"
)

func cascadeFixture() []Post {
	base := time.Date(2020, 2, 1, 10, 0, 0, 0, time.UTC)
	return []Post{
		{ID: "root", Kind: Original, UserID: "outlet", Time: base, ArticleURL: "https://o.example/a"},
		{ID: "r1", ParentID: "root", Kind: Reply, UserID: "u1", Text: "Great article, so true!", Time: base.Add(5 * time.Minute)},
		{ID: "r2", ParentID: "root", Kind: Reply, UserID: "u2", Text: "This is fake news, debunked already.", Time: base.Add(10 * time.Minute)},
		{ID: "r3", ParentID: "r2", Kind: Reply, UserID: "u3", Text: "source? proof?", Time: base.Add(15 * time.Minute)},
		{ID: "s1", ParentID: "root", Kind: Reshare, UserID: "u4", Time: base.Add(20 * time.Minute)},
		{ID: "l1", ParentID: "root", Kind: Like, UserID: "u1", Time: base.Add(25 * time.Minute)},
		{ID: "l2", ParentID: "s1", Kind: Like, UserID: "u5", Time: base.Add(30 * time.Minute)},
	}
}

func TestComputeReach(t *testing.T) {
	r := ComputeReach(cascadeFixture())
	if r.Posts != 7 {
		t.Errorf("posts: %d", r.Posts)
	}
	if r.Reactions != 6 {
		t.Errorf("reactions: %d", r.Reactions)
	}
	if r.Replies != 3 || r.Reshares != 1 || r.Likes != 2 {
		t.Errorf("breakdown: %d %d %d", r.Replies, r.Reshares, r.Likes)
	}
	if r.UniqueUsers != 6 { // outlet, u1..u5 (u1 appears twice)
		t.Errorf("users: %d", r.UniqueUsers)
	}
	if r.MaxDepth != 2 {
		t.Errorf("depth: %d", r.MaxDepth)
	}
	if r.Span != 30*time.Minute {
		t.Errorf("span: %v", r.Span)
	}
}

func TestComputeReachEdgeCases(t *testing.T) {
	if r := ComputeReach(nil); r.Posts != 0 || r.Reactions != 0 {
		t.Errorf("empty: %+v", r)
	}
	// Orphan reaction (missing parent) counts at depth 1.
	posts := []Post{
		{ID: "root", Kind: Original, UserID: "o", Time: time.Unix(0, 0)},
		{ID: "x", ParentID: "ghost", Kind: Reply, UserID: "u", Text: "hello", Time: time.Unix(60, 0)},
	}
	r := ComputeReach(posts)
	if r.MaxDepth != 1 {
		t.Errorf("orphan depth: %d", r.MaxDepth)
	}
}

func TestPopularityScore(t *testing.T) {
	if s := PopularityScore(Reach{Reactions: 0}); s != 0 {
		t.Errorf("zero: %v", s)
	}
	mid := PopularityScore(Reach{Reactions: 30})
	if mid < 0.4 || mid > 0.6 {
		t.Errorf("mid: %v", mid)
	}
	if s := PopularityScore(Reach{Reactions: 100000}); s != 1 {
		t.Errorf("cap: %v", s)
	}
	// Monotonic.
	prev := -1.0
	for _, n := range []int{0, 1, 5, 20, 100, 500, 2000} {
		s := PopularityScore(Reach{Reactions: n})
		if s < prev {
			t.Fatalf("not monotonic at %d", n)
		}
		prev = s
	}
}

func TestStanceLexicon(t *testing.T) {
	c := NewStanceClassifier()
	cases := []struct {
		text string
		want Stance
	}{
		{"Great article, so true, thank you for sharing!", Support},
		{"Excellent reporting, very informative and trustworthy.", Support},
		{"This is fake news, total hoax.", Deny},
		{"Debunked misinformation, stop spreading lies.", Deny},
		{"source? any proof?", Deny},
		{"Interesting, reading it on the train now.", Comment},
		{"", Comment},
	}
	for _, tc := range cases {
		if got := c.Classify(tc.text); got != tc.want {
			t.Errorf("Classify(%q) = %v, want %v", tc.text, got, tc.want)
		}
	}
}

func TestStanceMixAndAnalyze(t *testing.T) {
	c := NewStanceClassifier()
	ind := c.Analyze(cascadeFixture())
	if ind.Stances.Support != 1 {
		t.Errorf("support: %d", ind.Stances.Support)
	}
	if ind.Stances.Deny != 2 {
		t.Errorf("deny: %d", ind.Stances.Deny)
	}
	if ind.Stances.Total() != 3 {
		t.Errorf("total: %d", ind.Stances.Total())
	}
	if math.Abs(ind.Stances.NetStance()-(-1.0/3)) > 1e-9 {
		t.Errorf("net: %v", ind.Stances.NetStance())
	}
	if ind.Popularity <= 0 {
		t.Errorf("popularity: %v", ind.Popularity)
	}
	if ind.Reach.Posts != 7 {
		t.Errorf("reach: %+v", ind.Reach)
	}
}

func TestStanceMixRatios(t *testing.T) {
	m := StanceMix{Support: 3, Deny: 1, Comment: 1}
	if math.Abs(m.NetStance()-0.4) > 1e-9 {
		t.Errorf("net stance: %v", m.NetStance())
	}
	var empty StanceMix
	if empty.NetStance() != 0 {
		t.Error("empty mix ratios")
	}
}

func TestTrainedStanceModel(t *testing.T) {
	var texts []string
	var labels []Stance
	supportTexts := []string{
		"great piece of journalism, love it",
		"so true, finally someone says it",
		"excellent and accurate reporting",
		"thank you, very helpful information",
	}
	denyTexts := []string{
		"complete garbage and lies",
		"this was debunked weeks ago",
		"fake clickbait nonsense",
		"propaganda, do not trust this outlet",
	}
	commentTexts := []string{
		"reading this on my commute",
		"saw this earlier today",
		"tagging my colleague here",
		"the weather is nice outside",
	}
	for i := 0; i < 5; i++ {
		for _, s := range supportTexts {
			texts = append(texts, fmt.Sprintf("%s %d", s, i))
			labels = append(labels, Support)
		}
		for _, s := range denyTexts {
			texts = append(texts, fmt.Sprintf("%s %d", s, i))
			labels = append(labels, Deny)
		}
		for _, s := range commentTexts {
			texts = append(texts, fmt.Sprintf("%s %d", s, i))
			labels = append(labels, Comment)
		}
	}
	nb := classify.NewNaiveBayes(0.5)
	for i, text := range texts {
		nb.Observe(Tokens(text), labels[i].String())
	}
	c := NewStanceClassifier()
	c.SetModel(nb)
	correct := 0
	for i, text := range texts {
		if c.Classify(text) == labels[i] {
			correct++
		}
	}
	acc := float64(correct) / float64(len(texts))
	if acc < 0.85 {
		t.Errorf("model-blended accuracy: %v", acc)
	}
}

func TestStanceAndKindStrings(t *testing.T) {
	if Support.String() != "support" || Deny.String() != "deny" || Comment.String() != "comment" {
		t.Error("stance strings")
	}
	if Stance(9).String() != "unknown" {
		t.Error("unknown stance")
	}
	kinds := map[PostKind]string{
		Original: "original", Reply: "reply", Reshare: "reshare",
		Like: "like", PostKind(9): "unknown",
	}
	for k, s := range kinds {
		if k.String() != s {
			t.Errorf("kind %d: %q", k, k.String())
		}
	}
}
