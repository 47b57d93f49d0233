// Package outlets implements the outlet registry and the quality-based
// segmentation of news sources (paper §3.3). The demo's COVID-19 segment
// uses a shortlist of 45 mainstream outlets ranked by the American Council
// on Science and Health [1]; this package reproduces the registry structure
// with a synthetic 45-outlet shortlist spanning the same five-band ranking.
package outlets

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Sentinel errors.
var (
	// ErrNotFound is returned for unknown outlets.
	ErrNotFound = errors.New("outlets: not found")
	// ErrExists is returned when registering a duplicate outlet.
	ErrExists = errors.New("outlets: already exists")
)

// RatingClass is the five-band outlet quality ranking used in the demo's
// ACSH-style shortlist.
type RatingClass uint8

// Rating classes, best first.
const (
	// Excellent outlets combine evidence-based reporting with compelling
	// writing (ACSH top band).
	Excellent RatingClass = iota
	// Good outlets are evidence-based but less rigorous.
	Good
	// Mixed outlets alternate solid and ideologically driven coverage.
	Mixed
	// Poor outlets frequently publish weakly sourced science stories.
	Poor
	// VeryPoor outlets are dominated by sensationalist, poorly sourced
	// content (ACSH bottom band).
	VeryPoor

	// NumClasses is the number of rating classes.
	NumClasses = 5
)

// String returns the class label used in figures and tables.
func (r RatingClass) String() string {
	switch r {
	case Excellent:
		return "excellent"
	case Good:
		return "good"
	case Mixed:
		return "mixed"
	case Poor:
		return "poor"
	case VeryPoor:
		return "very-poor"
	default:
		return "unknown"
	}
}

// Outlet describes one news source.
type Outlet struct {
	// ID is the stable outlet identifier (slug).
	ID string
	// Name is the display name.
	Name string
	// Domain is the web domain articles are published under.
	Domain string
	// Rating is the external quality ranking.
	Rating RatingClass
	// SocialHandle is the outlet's social-media account (stream key).
	SocialHandle string
}

// Registry holds the known outlets. Safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	byID     map[string]*Outlet
	byDomain map[string]*Outlet
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byID: make(map[string]*Outlet), byDomain: make(map[string]*Outlet)}
}

// Register adds an outlet.
func (r *Registry) Register(o Outlet) error {
	if o.ID == "" || o.Domain == "" {
		return fmt.Errorf("outlet needs id and domain: %w", ErrNotFound)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byID[o.ID]; dup {
		return fmt.Errorf("outlet %q: %w", o.ID, ErrExists)
	}
	if _, dup := r.byDomain[o.Domain]; dup {
		return fmt.Errorf("domain %q: %w", o.Domain, ErrExists)
	}
	cp := o
	r.byID[o.ID] = &cp
	r.byDomain[o.Domain] = &cp
	return nil
}

// ByID returns the outlet with the given id.
func (r *Registry) ByID(id string) (Outlet, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	o, ok := r.byID[id]
	if !ok {
		return Outlet{}, fmt.Errorf("outlet %q: %w", id, ErrNotFound)
	}
	return *o, nil
}

// ByDomain resolves a host name to its outlet; subdomains match
// ("edition.cnn-like.example" matches "cnn-like.example"). ok is false
// when no registered outlet serves the host.
func (r *Registry) ByDomain(host string) (o Outlet, ok bool) {
	h := strings.ToLower(strings.TrimPrefix(strings.TrimSuffix(host, "."), "www."))
	r.mu.RLock()
	defer r.mu.RUnlock()
	probe := h
	for {
		if o, ok := r.byDomain[probe]; ok {
			return *o, true
		}
		dot := strings.IndexByte(probe, '.')
		if dot < 0 {
			break
		}
		probe = probe[dot+1:]
	}
	return Outlet{}, false
}

// All returns every outlet, sorted by ID.
func (r *Registry) All() []Outlet {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Outlet, 0, len(r.byID))
	for _, o := range r.byID {
		out = append(out, *o)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// DemoShortlist builds the 45-outlet COVID-19 demo registry: nine outlets
// in each of the five rating classes, mirroring the ACSH shortlist
// structure (45 mainstream outlets with a quality ranking). The outlets
// are synthetic — the original list is a published infographic, and only
// the (outlet → class) mapping matters downstream.
func DemoShortlist() *Registry {
	r := NewRegistry()
	classes := []struct {
		rating RatingClass
		slug   string
	}{
		{Excellent, "excellent"},
		{Good, "good"},
		{Mixed, "mixed"},
		{Poor, "poor"},
		{VeryPoor, "verypoor"},
	}
	for _, c := range classes {
		for i := 1; i <= 9; i++ {
			id := fmt.Sprintf("%s-%d", c.slug, i)
			o := Outlet{
				ID:           id,
				Name:         fmt.Sprintf("The %s Times %d", titleCase(c.slug), i),
				Domain:       fmt.Sprintf("%s.example", id),
				Rating:       c.rating,
				SocialHandle: "@" + id,
			}
			if err := r.Register(o); err != nil {
				// Construction is deterministic; a failure is a programming
				// error worth failing fast on.
				panic(err)
			}
		}
	}
	return r
}

// titleCase upper-cases the first ASCII letter of s.
func titleCase(s string) string {
	if s == "" {
		return s
	}
	if s[0] >= 'a' && s[0] <= 'z' {
		return string(s[0]-'a'+'A') + s[1:]
	}
	return s
}
