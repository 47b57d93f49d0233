package lexicon

import "strings"

// ScientificDomainClass describes why a domain counts as scientific.
type ScientificDomainClass uint8

// Scientific domain classes, mirroring §3.1 of the paper: "references to a
// predefined list of academic repositories, grey-literature and
// peer-reviewed journals and institutional websites".
const (
	// SciNone means the domain is not a recognised scientific source.
	SciNone ScientificDomainClass = iota
	// SciRepository is an academic repository or preprint server.
	SciRepository
	// SciJournal is a peer-reviewed journal or publisher.
	SciJournal
	// SciInstitution is a university, research institute or health agency.
	SciInstitution
	// SciGreyLiterature is grey literature (reports, working papers).
	SciGreyLiterature
)

// String returns the class name.
func (c ScientificDomainClass) String() string {
	switch c {
	case SciRepository:
		return "repository"
	case SciJournal:
		return "journal"
	case SciInstitution:
		return "institution"
	case SciGreyLiterature:
		return "grey-literature"
	default:
		return "none"
	}
}

// scientificDomains is the predefined registry of exact scientific domains
// (matched on the registrable domain and its subdomains).
var scientificDomains = map[string]ScientificDomainClass{
	// Repositories and preprint servers.
	"arxiv.org":            SciRepository,
	"biorxiv.org":          SciRepository,
	"medrxiv.org":          SciRepository,
	"ssrn.com":             SciRepository,
	"pubmed.gov":           SciRepository,
	"ncbi.nlm.nih.gov":     SciRepository,
	"pmc.ncbi.nlm.nih.gov": SciRepository,
	"europepmc.org":        SciRepository,
	"semanticscholar.org":  SciRepository,
	"researchgate.net":     SciRepository,
	"zenodo.org":           SciRepository,
	"osf.io":               SciRepository,

	// Peer-reviewed journals and publishers.
	"nature.com":              SciJournal,
	"science.org":             SciJournal,
	"sciencemag.org":          SciJournal,
	"thelancet.com":           SciJournal,
	"nejm.org":                SciJournal,
	"bmj.com":                 SciJournal,
	"jamanetwork.com":         SciJournal,
	"cell.com":                SciJournal,
	"pnas.org":                SciJournal,
	"plos.org":                SciJournal,
	"journals.plos.org":       SciJournal,
	"sciencedirect.com":       SciJournal,
	"springer.com":            SciJournal,
	"link.springer.com":       SciJournal,
	"wiley.com":               SciJournal,
	"onlinelibrary.wiley.com": SciJournal,
	"tandfonline.com":         SciJournal,
	"academic.oup.com":        SciJournal,
	"frontiersin.org":         SciJournal,
	"mdpi.com":                SciJournal,
	"acs.org":                 SciJournal,
	"ieee.org":                SciJournal,
	"acm.org":                 SciJournal,
	"dl.acm.org":              SciJournal,
	"annualreviews.org":       SciJournal,
	"elifesciences.org":       SciJournal,

	// Institutions and health agencies.
	"who.int":             SciInstitution,
	"cdc.gov":             SciInstitution,
	"nih.gov":             SciInstitution,
	"fda.gov":             SciInstitution,
	"ecdc.europa.eu":      SciInstitution,
	"epfl.ch":             SciInstitution,
	"ethz.ch":             SciInstitution,
	"mit.edu":             SciInstitution,
	"stanford.edu":        SciInstitution,
	"harvard.edu":         SciInstitution,
	"ox.ac.uk":            SciInstitution,
	"cam.ac.uk":           SciInstitution,
	"jhu.edu":             SciInstitution,
	"coronavirus.jhu.edu": SciInstitution,
	"imperial.ac.uk":      SciInstitution,
	"upf.edu":             SciInstitution,

	// Grey literature.
	"nber.org":        SciGreyLiterature,
	"rand.org":        SciGreyLiterature,
	"pewresearch.org": SciGreyLiterature,
	"cochrane.org":    SciGreyLiterature,
	"oecd.org":        SciGreyLiterature,
	"worldbank.org":   SciGreyLiterature,
}

// academicSuffixes classify whole TLD families as institutional.
var academicSuffixes = []string{".edu", ".ac.uk", ".ac.jp", ".edu.au", ".ac.in"}

// ClassifyScientificDomain returns the scientific class of a host name
// (case-insensitive; subdomains of registered domains match). SciNone means
// the host is not a recognised scientific source.
func ClassifyScientificDomain(host string) ScientificDomainClass {
	h := strings.ToLower(strings.TrimSuffix(host, "."))
	h = strings.TrimPrefix(h, "www.")
	// Exact and suffix match against the registry: "journals.plos.org"
	// matches both "journals.plos.org" and "plos.org".
	probe := h
	for {
		if c, ok := scientificDomains[probe]; ok {
			return c
		}
		dot := strings.IndexByte(probe, '.')
		if dot < 0 {
			break
		}
		probe = probe[dot+1:]
	}
	for _, suffix := range academicSuffixes {
		if strings.HasSuffix(h, suffix) {
			return SciInstitution
		}
	}
	return SciNone
}
