package topics

import (
	"sort"
	"strings"

	"repro/internal/cluster"
	"repro/internal/mlcore"
	"repro/internal/textutil"
)

// HierarchyTagger assigns discovered (unsupervised) topics to new
// documents: it pairs the topic tree from Discover with the TF-IDF space
// it was fitted in, labels every node by its most characteristic terms,
// and soft-assigns incoming articles along root-to-leaf paths — the
// "probabilistic hierarchical clustering ... assigns one or more topics"
// behaviour of paper §3.3 for segments that have no seeded taxonomy yet.
type HierarchyTagger struct {
	root   *cluster.TopicNode
	tfidf  *mlcore.TFIDF
	labels map[string]string // node ID -> label
}

const (
	// assignTau is the assignment softmax temperature.
	assignTau = 0.15
	// assignMinProb drops assignments below this probability.
	assignMinProb = 0.2
	// labelTerms is how many top terms form a node label.
	labelTerms = 3
)

// NewHierarchyTagger builds a tagger from a discovered hierarchy and the
// TF-IDF model it was trained in (both returned by Discover).
func NewHierarchyTagger(root *cluster.TopicNode, tfidf *mlcore.TFIDF) *HierarchyTagger {
	h := &HierarchyTagger{
		root: root, tfidf: tfidf,
		labels: make(map[string]string),
	}
	h.labelTree(root)
	return h
}

// labelTree names every node "term1+term2+term3" from its centroid's top
// terms; the root keeps the generic label "all".
func (h *HierarchyTagger) labelTree(n *cluster.TopicNode) {
	if n.Depth == 0 {
		h.labels[n.ID] = "all"
	} else {
		terms := n.TopTerms(labelTerms)
		parts := make([]string, 0, len(terms))
		for _, ti := range terms {
			parts = append(parts, h.tfidf.Vocab.Term(ti))
		}
		if len(parts) == 0 {
			parts = []string{"misc"}
		}
		h.labels[n.ID] = strings.Join(parts, "+")
	}
	for _, c := range n.Children {
		h.labelTree(c)
	}
}

// Label returns the human-readable label of a node ID ("" for unknown).
func (h *HierarchyTagger) Label(nodeID string) string { return h.labels[nodeID] }

// DiscoveredAssignment is one discovered-topic assignment for a document.
type DiscoveredAssignment struct {
	// NodeID is the stable tree-path ID of the assigned node.
	NodeID string
	// Label is the node's term label ("virus+vaccine+trial").
	Label string
	// Depth is the node depth (1 = most generic real topic).
	Depth int
	// Prob is the soft path probability.
	Prob float64
}

// Tag assigns discovered topics to a document, most probable first. The
// root ("all news") is never reported.
func (h *HierarchyTagger) Tag(text string) []DiscoveredAssignment {
	tokens := textutil.StemAll(textutil.ContentWords(text))
	v := h.tfidf.Transform(tokens)
	if len(v) == 0 {
		return nil
	}
	raw := cluster.Assign(h.root, v, assignTau, assignMinProb)
	out := make([]DiscoveredAssignment, 0, len(raw))
	for _, a := range raw {
		if a.Node.Depth == 0 {
			continue
		}
		out = append(out, DiscoveredAssignment{
			NodeID: a.Node.ID,
			Label:  h.labels[a.Node.ID],
			Depth:  a.Node.Depth,
			Prob:   a.Prob,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Prob != out[j].Prob {
			return out[i].Prob > out[j].Prob
		}
		return out[i].NodeID < out[j].NodeID
	})
	return out
}
