// Package location implements the Globe Location Service (paper §2.1.2).
//
// The location service maps location-independent OIDs onto contact
// addresses of object replicas. It is organized as a distributed search
// tree over a hierarchy of domains: at the lowest level there is one
// domain per site; sites form regions, regions form larger regions, up to
// a single root. An object is recorded at each site where it has a
// contact address and, recursively, in each enclosing region up to the
// root: site-level records hold the actual contact addresses, while
// records at higher levels hold pointers to the next lower level.
// Lookups proceed with expanding rings — local site first, then the
// enclosing regions, eventually the root — so a nearby replica is found
// without ever consulting distant parts of the tree.
//
// Crucially, the location service is NOT trusted (paper §3.1.2): a
// malicious node can at worst cause denial of service, because clients
// verify everything they retrieve against the object's self-certifying
// OID.
package location

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"globedoc/internal/enc"
	"globedoc/internal/globeid"
)

// Errors reported by the location service.
var (
	ErrUnknownSite = errors.New("location: unknown site")
	ErrNotFound    = errors.New("location: no contact addresses recorded")
	ErrBadSpec     = errors.New("location: invalid domain specification")
)

// ContactAddress tells a client where and how to contact an object
// replica. Address and Protocol identify the endpoint; Zone and Weight
// are advisory per-address metadata for client-side replica selection.
// Like everything the location service says, the metadata is UNTRUSTED:
// a forged zone or weight can at worst steer a client toward a slower
// (or dead) replica — the security pipeline still verifies whatever the
// replica serves, so misdirection is denial of service, never corruption.
type ContactAddress struct {
	// Address is the network address of the hosting object server, in
	// the simulator's "host:service" form.
	Address string
	// Protocol names the wire protocol spoken at the address.
	Protocol string
	// Zone labels the address's coarse network locality (the top-level
	// region of the site the address is recorded at, e.g. "europe").
	// Empty when unknown — pre-PR-8 services never report one.
	Zone string
	// Weight is the advertised capacity preference among otherwise
	// equivalent replicas; higher is preferred. Zero means unspecified.
	Weight uint32
}

// SameEndpoint reports whether b names the same replica endpoint,
// ignoring the advisory metadata.
func (a ContactAddress) SameEndpoint(b ContactAddress) bool {
	return a.Address == b.Address && a.Protocol == b.Protocol
}

// Marshal appends the address to w in the v1 wire form: endpoint only,
// no metadata. This layout is FROZEN — pre-PR-8 decoders reject trailing
// bytes (enc.Reader.Finish), so the extended form must travel on new wire
// operations (OpLookup2), never by appending here.
func (a ContactAddress) Marshal(w *enc.Writer) {
	w.String(a.Address)
	w.String(a.Protocol)
}

// UnmarshalContactAddress reads a v1 (endpoint-only) address from r.
func UnmarshalContactAddress(r *enc.Reader) ContactAddress {
	return ContactAddress{Address: r.String(), Protocol: r.String()}
}

// MarshalExt appends the address with its metadata — the extended form
// carried by the v2 lookup operation.
func (a ContactAddress) MarshalExt(w *enc.Writer) {
	w.String(a.Address)
	w.String(a.Protocol)
	w.String(a.Zone)
	w.Uvarint(uint64(a.Weight))
}

// UnmarshalContactAddressExt reads an extended address from r.
func UnmarshalContactAddressExt(r *enc.Reader) ContactAddress {
	return ContactAddress{
		Address:  r.String(),
		Protocol: r.String(),
		Zone:     r.String(),
		Weight:   r.Uvarint32(),
	}
}

// DomainSpec declares one node of the domain hierarchy. A node with no
// children is a site (leaf domain); anything else is a region.
type DomainSpec struct {
	Name     string
	Children []DomainSpec
}

// node is one domain in the search tree.
type node struct {
	name     string
	parent   *node
	children map[string]*node
	// addrs holds actual contact addresses; only populated at sites.
	addrs map[globeid.OID][]ContactAddress
	// pointers holds, per OID, the names of children whose subtree has a
	// record; only populated at regions.
	pointers map[globeid.OID]map[string]bool
}

func (n *node) isSite() bool { return len(n.children) == 0 }

// Tree is the in-memory search tree, shared by the per-domain service
// frontends. It is safe for concurrent use.
type Tree struct {
	mu    sync.RWMutex
	root  *node
	sites map[string]*node
}

// NewTree builds a search tree from spec. Every leaf name must be unique;
// leaf names are the site identifiers used by Insert and Lookup.
func NewTree(spec DomainSpec) (*Tree, error) {
	t := &Tree{sites: make(map[string]*node)}
	root, err := t.build(spec, nil)
	if err != nil {
		return nil, err
	}
	t.root = root
	if len(t.sites) == 0 {
		return nil, fmt.Errorf("%w: no sites", ErrBadSpec)
	}
	return t, nil
}

func (t *Tree) build(spec DomainSpec, parent *node) (*node, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("%w: empty domain name", ErrBadSpec)
	}
	n := &node{
		name:     spec.Name,
		parent:   parent,
		children: make(map[string]*node),
		addrs:    make(map[globeid.OID][]ContactAddress),
		pointers: make(map[globeid.OID]map[string]bool),
	}
	for _, child := range spec.Children {
		c, err := t.build(child, n)
		if err != nil {
			return nil, err
		}
		if _, dup := n.children[c.name]; dup {
			return nil, fmt.Errorf("%w: duplicate child %q under %q", ErrBadSpec, c.name, n.name)
		}
		n.children[c.name] = c
	}
	if n.isSite() {
		if _, dup := t.sites[n.name]; dup {
			return nil, fmt.Errorf("%w: duplicate site %q", ErrBadSpec, n.name)
		}
		t.sites[n.name] = n
	}
	return n, nil
}

// Sites returns the sorted site names.
func (t *Tree) Sites() []string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	names := make([]string, 0, len(t.sites))
	for name := range t.sites {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Insert records a contact address for oid at the given site and installs
// forwarding pointers in every enclosing region up to the root. The
// endpoint (Address, Protocol) is the record's identity: re-inserting an
// existing endpoint refreshes its metadata instead of duplicating it. An
// address inserted without a zone label inherits the site's zone, so
// every stored record carries locality metadata even when the registrar
// predates it.
func (t *Tree) Insert(site string, oid globeid.OID, addr ContactAddress) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sites[site]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSite, site)
	}
	if addr.Zone == "" {
		addr.Zone = zoneOfNode(s)
	}
	for i, existing := range s.addrs[oid] {
		if existing.SameEndpoint(addr) {
			s.addrs[oid][i] = addr // idempotent; refresh metadata
			return nil
		}
	}
	s.addrs[oid] = append(s.addrs[oid], addr)
	// Install pointers upward.
	for child, region := s, s.parent; region != nil; child, region = region, region.parent {
		set := region.pointers[oid]
		if set == nil {
			set = make(map[string]bool)
			region.pointers[oid] = set
		}
		set[child.name] = true
	}
	return nil
}

// Delete removes a contact address for oid at site and prunes pointers
// that no longer lead to any record. Matching is by endpoint: the caller
// does not need to know the stored metadata to remove a record.
func (t *Tree) Delete(site string, oid globeid.OID, addr ContactAddress) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.sites[site]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSite, site)
	}
	addrs := s.addrs[oid]
	kept := addrs[:0]
	removed := false
	for _, a := range addrs {
		if a.SameEndpoint(addr) {
			removed = true
			continue
		}
		kept = append(kept, a)
	}
	if !removed {
		return fmt.Errorf("%w: %s at %q", ErrNotFound, oid.Short(), site)
	}
	if len(kept) == 0 {
		delete(s.addrs, oid)
		// Prune pointers upward while the child subtree holds no record.
		for child, region := s, s.parent; region != nil; child, region = region, region.parent {
			if childHasRecord(child, oid) {
				break
			}
			set := region.pointers[oid]
			delete(set, child.name)
			if len(set) == 0 {
				delete(region.pointers, oid)
			}
		}
	} else {
		s.addrs[oid] = kept
	}
	return nil
}

func childHasRecord(n *node, oid globeid.OID) bool {
	if n.isSite() {
		return len(n.addrs[oid]) > 0
	}
	return len(n.pointers[oid]) > 0
}

// LookupResult carries the contact addresses found for an OID together
// with the number of tree levels the expanding-ring search had to climb
// (0 = found at the local site), a proxy for lookup locality.
type LookupResult struct {
	Addresses []ContactAddress
	Rings     int
}

// Lookup performs an expanding-ring search for oid starting at fromSite.
// The returned addresses are ordered nearest-first: addresses found in a
// smaller ring precede those from larger rings, and within a ring the
// site order is deterministic. Rings records the ring of the FIRST hit
// (0 = local site); outer rings are still collected so a client whose
// nearest replica is unreachable has fallback candidates.
func (t *Tree) Lookup(_ context.Context, fromSite string, oid globeid.OID) (LookupResult, error) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	start, ok := t.sites[fromSite]
	if !ok {
		return LookupResult{}, fmt.Errorf("%w: %q", ErrUnknownSite, fromSite)
	}
	result := LookupResult{Rings: -1}
	var visited *node
	for ring, n := 0, start; n != nil; ring, n = ring+1, n.parent {
		// Collect from the subtree, excluding the child we came from
		// (already searched in the previous rings).
		had := len(result.Addresses)
		result.Addresses = collect(result.Addresses, n, oid, visited)
		visited = n
		if result.Rings < 0 && len(result.Addresses) > had {
			result.Rings = ring
		}
	}
	if result.Rings < 0 {
		return LookupResult{}, fmt.Errorf("%w: %s from %q", ErrNotFound, oid.Short(), fromSite)
	}
	return result, nil
}

// collect appends to dst all contact addresses for oid in n's subtree,
// skipping the subtree rooted at exclude, in deterministic (sorted child
// name) order.
func collect(dst []ContactAddress, n *node, oid globeid.OID, exclude *node) []ContactAddress {
	if n.isSite() {
		return append(dst, n.addrs[oid]...)
	}
	set := n.pointers[oid]
	if len(set) == 0 {
		return dst
	}
	var room [8]string // a region's children holding oid, most often
	names := room[:0]
	for name := range set {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if child := n.children[name]; child != exclude {
			dst = collect(dst, child, oid, exclude)
		}
	}
	return dst
}

// AllAddresses returns every contact address recorded for oid anywhere in
// the tree, nearest-first is not defined here (root-down deterministic
// order). Used by administrative tooling.
func (t *Tree) AllAddresses(oid globeid.OID) []ContactAddress {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return collect(nil, t.root, oid, nil)
}

// SiteOf returns the site at which addr is recorded for oid, if any.
// Matching is by endpoint.
func (t *Tree) SiteOf(oid globeid.OID, addr ContactAddress) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for name, s := range t.sites {
		for _, a := range s.addrs[oid] {
			if a.SameEndpoint(addr) {
				return name, true
			}
		}
	}
	return "", false
}

// ZoneOf returns the zone label of a site: the name of the top-level
// region (child of the root) containing it, or the site's own name when
// the site hangs directly off the root.
func (t *Tree) ZoneOf(site string) (string, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	s, ok := t.sites[site]
	if !ok {
		return "", false
	}
	return zoneOfNode(s), true
}

// zoneOfNode walks up from n to the child of the root. Caller holds a
// tree lock.
func zoneOfNode(n *node) string {
	for n.parent != nil && n.parent.parent != nil {
		n = n.parent
	}
	return n.name
}

// String renders the tree structure, for debugging and the admin tool.
func (t *Tree) String() string {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var b strings.Builder
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		fmt.Fprintf(&b, "%s%s", strings.Repeat("  ", depth), n.name)
		if n.isSite() {
			fmt.Fprintf(&b, " [site, %d records]", len(n.addrs))
		}
		b.WriteByte('\n')
		names := make([]string, 0, len(n.children))
		for name := range n.children {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			walk(n.children[name], depth+1)
		}
	}
	walk(t.root, 0)
	return b.String()
}

// PaperDomains returns the domain hierarchy matching the paper's testbed:
// a world root, continental regions, and one site per testbed host city.
func PaperDomains() DomainSpec {
	return DomainSpec{
		Name: "world",
		Children: []DomainSpec{
			{Name: "europe", Children: []DomainSpec{
				{Name: "amsterdam-primary"},
				{Name: "amsterdam-secondary"},
				{Name: "paris"},
			}},
			{Name: "northamerica", Children: []DomainSpec{
				{Name: "ithaca"},
			}},
		},
	}
}
