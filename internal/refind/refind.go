// Package refind computes the news-context quality indicators of paper
// §3.1: the strength of the connection between an article and its primary
// sources. References are classified into the paper's three classes —
// internal (same outlet), external (other outlets / potential primary
// sources) and scientific (academic repositories, peer-reviewed journals,
// grey literature and institutional sites) — and summarised into per-class
// counts, the scientific-reference ratio of Figure 5 (right), and a
// source-strength score.
package refind

import (
	"strings"

	"repro/internal/extract"
	"repro/internal/lexicon"
	"repro/internal/outlets"
)

// RefClass is the paper's reference taxonomy.
type RefClass uint8

// Reference classes.
const (
	// Internal references stay within the publishing outlet ("see also"
	// sections, in-body links to the same domain).
	Internal RefClass = iota
	// External references point to other outlets or arbitrary sites —
	// potential primary sources.
	External
	// Scientific references point to the predefined registry of academic
	// sources.
	Scientific
)

// String returns the class label.
func (c RefClass) String() string {
	switch c {
	case Internal:
		return "internal"
	case External:
		return "external"
	case Scientific:
		return "scientific"
	default:
		return "unknown"
	}
}

// Reference is one classified outgoing link.
type Reference struct {
	// URL is the absolute target URL.
	URL string
	// Host is the target host.
	Host string
	// Class is the reference class.
	Class RefClass
	// SciClass refines scientific references (repository, journal,
	// institution, grey literature); SciNone otherwise.
	SciClass lexicon.ScientificDomainClass
	// TargetOutlet is the referenced outlet's ID when the target domain
	// belongs to a registered outlet ("" otherwise).
	TargetOutlet string
}

// Indicators bundles the news-context indicators for one article.
type Indicators struct {
	// References are the classified outgoing links, in document order.
	References []Reference
	// InternalCount, ExternalCount and ScientificCount are per-class
	// totals.
	InternalCount, ExternalCount, ScientificCount int
	// ScientificRatio is ScientificCount / len(References); 0 for
	// articles without references. This is the Figure 5 (right) metric.
	ScientificRatio float64
	// SourceStrength scores the journalistic foundations in [0, 1]:
	// scientific references weigh 1, external 0.5, internal 0.1,
	// saturating at 4 weighted points.
	SourceStrength float64
}

// Classifier classifies article references. A nil registry disables
// outlet resolution (references to unknown domains become External).
type Classifier struct {
	registry *outlets.Registry
}

// NewClassifier returns a classifier resolving outlet domains through
// registry (may be nil).
func NewClassifier(registry *outlets.Registry) *Classifier {
	return &Classifier{registry: registry}
}

// outletID returns the ID of the registered outlet serving host, or ""
// when none does (or the classifier has no registry).
func (c *Classifier) outletID(host string) string {
	if c.registry == nil {
		return ""
	}
	o, _ := c.registry.ByDomain(host)
	return o.ID
}

// classifyURL classifies one link from an article published on
// articleHost by the outlet articleOutlet ("" when none is registered).
func (c *Classifier) classifyURL(rawURL, articleHost, articleOutlet string) Reference {
	host := extract.Host(rawURL)
	ref := Reference{URL: rawURL, Host: host}
	if sci := lexicon.ClassifyScientificDomain(host); sci != lexicon.SciNone {
		ref.Class = Scientific
		ref.SciClass = sci
		return ref
	}
	if sameRegistrableDomain(host, articleHost) {
		ref.Class = Internal
		return ref
	}
	ref.Class = External
	if ref.TargetOutlet = c.outletID(host); ref.TargetOutlet != "" && ref.TargetOutlet == articleOutlet {
		// A link to another registered outlet's domain is still external
		// unless it is the same outlet as the article.
		ref.Class = Internal
	}
	return ref
}

// Analyze classifies every link of the article and summarises them.
func (c *Classifier) Analyze(art *extract.Article) Indicators {
	articleHost := extract.Host(art.URL)
	articleOutlet := c.outletID(articleHost)
	ind := Indicators{}
	for _, link := range art.Links {
		ref := c.classifyURL(link, articleHost, articleOutlet)
		ind.References = append(ind.References, ref)
		switch ref.Class {
		case Internal:
			ind.InternalCount++
		case External:
			ind.ExternalCount++
		case Scientific:
			ind.ScientificCount++
		}
	}
	total := len(ind.References)
	if total > 0 {
		ind.ScientificRatio = float64(ind.ScientificCount) / float64(total)
	}
	weighted := float64(ind.ScientificCount)*1.0 +
		float64(ind.ExternalCount)*0.5 +
		float64(ind.InternalCount)*0.1
	ind.SourceStrength = weighted / 4
	if ind.SourceStrength > 1 {
		ind.SourceStrength = 1
	}
	return ind
}

// sameRegistrableDomain compares hosts on their last two labels
// ("edition.outlet.example" vs "outlet.example" → true).
func sameRegistrableDomain(a, b string) bool {
	if a == "" || b == "" {
		return false
	}
	return registrable(a) == registrable(b)
}

// registrable returns the last two dot-separated labels of a host (a
// pragmatic approximation of the public-suffix rules that is exact for the
// synthetic corpus and common news domains).
func registrable(host string) string {
	host = strings.TrimSuffix(strings.ToLower(host), ".")
	last := strings.LastIndexByte(host, '.')
	if last < 0 {
		return host
	}
	return host[strings.LastIndexByte(host[:last], '.')+1:]
}
