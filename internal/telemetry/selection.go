package telemetry

import (
	"sort"
	"sync"
)

// Per-OID replica-selection rankings: the observable output of core's
// Selector, the control plane built on top of the HealthTracker data
// plane (DESIGN.md §14). Every time the Selector ranks the candidate
// addresses for an OID the result is recorded here, so /debugz (and
// cmd/globedoc-debugz) can show WHICH replica a client would try first
// and in what order — the health EWMAs alone only say how each address
// has behaved.

// SelectionSchema versions the selection snapshot format.
const SelectionSchema = "globedoc-selection/1"

// DefaultMaxSelections bounds how many OIDs a SelectionTracker retains;
// beyond it the least recently ranked OID is dropped.
const DefaultMaxSelections = 256

// SelectionRanking is the most recent ranking produced for one OID.
type SelectionRanking struct {
	// OID is the short form of the object identifier.
	OID string `json:"oid"`
	// Selector names the Selector implementation that produced the order.
	Selector string `json:"selector"`
	// Ranked lists the candidate contact addresses, best first.
	Ranked []string `json:"ranked"`
}

// SelectionSnapshot is the versioned /debugz selection section.
type SelectionSnapshot struct {
	Schema   string             `json:"schema"`
	Rankings []SelectionRanking `json:"rankings"`
}

// SelectionTracker retains the most recent ranking per OID, bounded to
// MaxOIDs entries. All methods are safe for concurrent use and safe on a
// nil tracker (no-ops).
type SelectionTracker struct {
	// MaxOIDs bounds retained OIDs (0 = DefaultMaxSelections). Set before
	// the first Record.
	MaxOIDs int

	mu      sync.Mutex
	byOID   map[string]*SelectionRanking
	recency []string // oldest first
}

// NewSelectionTracker returns an empty tracker.
func NewSelectionTracker() *SelectionTracker {
	return &SelectionTracker{byOID: make(map[string]*SelectionRanking)}
}

func (s *SelectionTracker) maxOIDs() int {
	if s.MaxOIDs > 0 {
		return s.MaxOIDs
	}
	return DefaultMaxSelections
}

// Record stores the ranking for oid, replacing any previous one. The
// ranked slice is copied.
func (s *SelectionTracker) Record(oid, selector string, ranked []string) {
	if s == nil || oid == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.byOID[oid]; ok {
		r.Selector = selector
		r.Ranked = append(r.Ranked[:0], ranked...)
		for i, o := range s.recency {
			if o == oid {
				s.recency = append(s.recency[:i], s.recency[i+1:]...)
				break
			}
		}
		s.recency = append(s.recency, oid)
		return
	}
	s.byOID[oid] = &SelectionRanking{
		OID:      oid,
		Selector: selector,
		Ranked:   append([]string(nil), ranked...),
	}
	s.recency = append(s.recency, oid)
	for len(s.byOID) > s.maxOIDs() {
		oldest := s.recency[0]
		s.recency = s.recency[1:]
		delete(s.byOID, oldest)
	}
}

// Snapshot exports every retained ranking, sorted by OID for stable
// output.
func (s *SelectionTracker) Snapshot() SelectionSnapshot {
	snap := SelectionSnapshot{Schema: SelectionSchema}
	if s == nil {
		return snap
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.byOID {
		snap.Rankings = append(snap.Rankings, SelectionRanking{
			OID:      r.OID,
			Selector: r.Selector,
			Ranked:   append([]string(nil), r.Ranked...),
		})
	}
	sort.Slice(snap.Rankings, func(i, j int) bool { return snap.Rankings[i].OID < snap.Rankings[j].OID })
	return snap
}

// MergeSelections folds selection snapshots from several processes into
// one view, keeping the first non-empty ranking seen per OID (snapshots
// are passed in priority order; distinct clients may legitimately rank
// the same OID differently from different vantage points).
func MergeSelections(snaps ...SelectionSnapshot) SelectionSnapshot {
	merged := SelectionSnapshot{Schema: SelectionSchema}
	seen := make(map[string]bool)
	for _, snap := range snaps {
		for _, r := range snap.Rankings {
			if seen[r.OID] {
				continue
			}
			seen[r.OID] = true
			merged.Rankings = append(merged.Rankings, r)
		}
	}
	sort.Slice(merged.Rankings, func(i, j int) bool { return merged.Rankings[i].OID < merged.Rankings[j].OID })
	return merged
}
