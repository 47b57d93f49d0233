package outlets

import (
	"errors"
	"testing"
)

func TestRegistryRegisterLookup(t *testing.T) {
	r := NewRegistry()
	o := Outlet{ID: "daily-science", Name: "Daily Science", Domain: "dailyscience.example", Rating: Good}
	if err := r.Register(o); err != nil {
		t.Fatal(err)
	}
	got, err := r.ByID("daily-science")
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "Daily Science" || got.Rating != Good {
		t.Errorf("got %+v", got)
	}
	if _, err := r.ByID("nope"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing: %v", err)
	}
	if err := r.Register(o); !errors.Is(err, ErrExists) {
		t.Errorf("dup id: %v", err)
	}
	other := Outlet{ID: "other", Domain: "dailyscience.example"}
	if err := r.Register(other); !errors.Is(err, ErrExists) {
		t.Errorf("dup domain: %v", err)
	}
	if err := r.Register(Outlet{}); err == nil {
		t.Error("empty outlet accepted")
	}
}

func TestByDomainSubdomains(t *testing.T) {
	r := NewRegistry()
	r.Register(Outlet{ID: "x", Domain: "outlet.example", Rating: Mixed})
	cases := []string{
		"outlet.example", "www.outlet.example", "edition.outlet.example",
		"WWW.OUTLET.EXAMPLE",
	}
	for _, host := range cases {
		if _, err := r.ByDomain(host); err != nil {
			t.Errorf("ByDomain(%q): %v", host, err)
		}
	}
	if _, err := r.ByDomain("other.example"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown domain: %v", err)
	}
}

func TestRegistryMutationIsolation(t *testing.T) {
	r := NewRegistry()
	r.Register(Outlet{ID: "x", Domain: "x.example", Rating: Poor})
	got, _ := r.ByID("x")
	got.Rating = Excellent
	again, _ := r.ByID("x")
	if again.Rating != Poor {
		t.Error("returned outlet aliases registry state")
	}
}

func TestRatingClassStrings(t *testing.T) {
	want := map[RatingClass]string{
		Excellent: "excellent", Good: "good", Mixed: "mixed",
		Poor: "poor", VeryPoor: "very-poor", RatingClass(9): "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d: got %q want %q", c, c.String(), s)
		}
	}
}

func TestDemoShortlist(t *testing.T) {
	r := DemoShortlist()
	if n := len(r.All()); n != 45 {
		t.Fatalf("shortlist size: %d, want 45 (paper §4)", n)
	}
	byRating := map[RatingClass]int{}
	for _, o := range r.All() {
		byRating[o.Rating]++
	}
	for c := Excellent; c <= VeryPoor; c++ {
		if got := byRating[c]; got != 9 {
			t.Errorf("class %v: %d outlets, want 9", c, got)
		}
	}
	// Every outlet resolvable by domain and id.
	for _, o := range r.All() {
		if _, err := r.ByID(o.ID); err != nil {
			t.Errorf("by id %s: %v", o.ID, err)
		}
		if _, err := r.ByDomain(o.Domain); err != nil {
			t.Errorf("by domain %s: %v", o.Domain, err)
		}
		if o.SocialHandle == "" {
			t.Errorf("outlet %s missing social handle", o.ID)
		}
	}
	// All() is sorted by ID.
	all := r.All()
	for i := 1; i < len(all); i++ {
		if all[i].ID <= all[i-1].ID {
			t.Fatal("All() not sorted")
		}
	}
}
