package telemetry

import (
	"math"
	"sort"
	"sync"
	"time"

	"globedoc/internal/clock"
)

// Per-address replica health: the data plane core's replica Selector
// ranks candidates on (DESIGN.md §14). Every RPC attempt against a
// contact address — success or failure, including a failed dial — feeds
// one sample here; core's failover ordering consumes the result as a
// tie-break, and /debugz surfaces it as the versioned globedoc-health/1
// snapshot.
//
// Both EWMAs are time-decayed rather than per-sample: the weight of the
// old average halves every HealthHalfLife regardless of traffic rate, so
// an address that failed hard an hour ago but has been quiet since is
// not forever condemned, and a burst of samples cannot flush history
// faster than real time passes.

// HealthSchema versions the health snapshot format.
const HealthSchema = "globedoc-health/1"

// HealthHalfLife is the default decay half-life for the RTT and
// error-rate EWMAs.
const HealthHalfLife = 30 * time.Second

// AddrHealth is the exported health state of one contact address.
type AddrHealth struct {
	Addr string `json:"addr"`
	// RTTMillis is the time-decayed EWMA of successful-call round-trip
	// times, in milliseconds. Zero until the first success.
	RTTMillis float64 `json:"rtt_ewma_ms"`
	// HasRTT reports whether RTTMillis is backed by at least one
	// successful call. A zero RTTMillis is ambiguous without it: an
	// address that has only ever failed has samples but no RTT estimate.
	HasRTT bool `json:"has_rtt"`
	// ErrorRate is the time-decayed EWMA of per-attempt failure (each
	// sample is 1 for a failure, 0 for a success), in [0, 1].
	ErrorRate float64 `json:"error_ewma"`
	// ConsecutiveFailures counts failures since the last success.
	ConsecutiveFailures int `json:"consecutive_failures"`
	// Samples counts every recorded attempt.
	Samples uint64 `json:"samples"`
}

// HealthSnapshot is the versioned /debugz health section.
type HealthSnapshot struct {
	Schema string       `json:"schema"`
	Addrs  []AddrHealth `json:"addrs"`
}

type addrState struct {
	rttMs   float64
	errRate float64
	consec  int
	samples uint64
	last    time.Time // when the EWMAs were last decayed
	hasRTT  bool
	hasErr  bool
}

// HealthTracker accumulates per-address health samples. All methods are
// safe for concurrent use and safe on a nil tracker (no-ops).
type HealthTracker struct {
	// HalfLife is the EWMA decay half-life (0 = HealthHalfLife). Set
	// before the first sample.
	HalfLife time.Duration

	clk   clock.Clock
	mu    sync.Mutex
	addrs map[string]*addrState
}

// NewHealthTracker returns a tracker over clk (nil = real clock).
func NewHealthTracker(clk clock.Clock) *HealthTracker {
	return &HealthTracker{clk: clk, addrs: make(map[string]*addrState)}
}

func (h *HealthTracker) now() time.Time {
	if h.clk != nil {
		return h.clk.Now()
	}
	return clock.Real.Now()
}

func (h *HealthTracker) halfLife() time.Duration {
	if h.HalfLife > 0 {
		return h.HalfLife
	}
	return HealthHalfLife
}

// state returns the (possibly new) state for addr with its EWMAs decayed
// to now. Caller holds h.mu.
func (h *HealthTracker) state(addr string, now time.Time) *addrState {
	st, ok := h.addrs[addr]
	if !ok {
		st = &addrState{last: now}
		h.addrs[addr] = st
		return st
	}
	if dt := now.Sub(st.last); dt > 0 {
		// Decay toward "no evidence": the error rate keeps weight
		// 0.5^(dt/halflife), so a quiet address heals with real time.
		// The RTT average holds its last estimate — stale latency data
		// is still the best guess, it just blends away at sample time.
		st.errRate *= math.Exp2(-float64(dt) / float64(h.halfLife()))
	}
	st.last = now
	return st
}

// sampleWeight is the weight a single new observation carries against
// the decayed history.
const sampleWeight = 0.2

// RecordSuccess records one successful call attempt against addr with
// the observed round-trip time.
func (h *HealthTracker) RecordSuccess(addr string, rtt time.Duration) {
	if h == nil || addr == "" {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state(addr, h.now())
	ms := float64(rtt) / float64(time.Millisecond)
	if !st.hasRTT {
		st.rttMs, st.hasRTT = ms, true
	} else {
		st.rttMs = st.rttMs*(1-sampleWeight) + ms*sampleWeight
	}
	if !st.hasErr {
		st.hasErr = true // first sample: error rate starts at exactly 0
	} else {
		st.errRate *= 1 - sampleWeight
	}
	st.consec = 0
	st.samples++
}

// RecordFailure records one failed call attempt (including a failed
// dial) against addr.
func (h *HealthTracker) RecordFailure(addr string) {
	if h == nil || addr == "" {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	st := h.state(addr, h.now())
	if !st.hasErr {
		st.errRate, st.hasErr = 1, true
	} else {
		st.errRate = st.errRate*(1-sampleWeight) + sampleWeight
	}
	st.consec++
	st.samples++
}

// Lookup returns the current health of addr, decayed to now.
func (h *HealthTracker) Lookup(addr string) (AddrHealth, bool) {
	if h == nil {
		return AddrHealth{}, false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.addrs[addr]; !ok {
		return AddrHealth{}, false
	}
	st := h.state(addr, h.now())
	return AddrHealth{
		Addr:                addr,
		RTTMillis:           st.rttMs,
		HasRTT:              st.hasRTT,
		ErrorRate:           st.errRate,
		ConsecutiveFailures: st.consec,
		Samples:             st.samples,
	}, true
}

// Penalty reduces addr's failure evidence to one ordinal: zero for an
// unknown or healthy address, dominated by consecutive failures, with
// the error-rate EWMA breaking ties among addresses that are equally
// failing right now. Lower is healthier. RTT deliberately does not
// contribute — core's HealthRankedSelector folds the same failure score
// together with the RTT EWMA and zone priors into its latency estimate;
// Penalty remains the RTT-free view for chaos assertions and tooling.
func (h *HealthTracker) Penalty(addr string) float64 {
	st, ok := h.Lookup(addr)
	if !ok {
		return 0
	}
	return float64(st.ConsecutiveFailures) + st.ErrorRate
}

// Snapshot exports every tracked address, decayed to now, sorted by
// address for stable output.
func (h *HealthTracker) Snapshot() HealthSnapshot {
	snap := HealthSnapshot{Schema: HealthSchema}
	if h == nil {
		return snap
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	now := h.now()
	for addr := range h.addrs {
		st := h.state(addr, now)
		snap.Addrs = append(snap.Addrs, AddrHealth{
			Addr:                addr,
			RTTMillis:           st.rttMs,
			HasRTT:              st.hasRTT,
			ErrorRate:           st.errRate,
			ConsecutiveFailures: st.consec,
			Samples:             st.samples,
		})
	}
	sort.Slice(snap.Addrs, func(i, j int) bool { return snap.Addrs[i].Addr < snap.Addrs[j].Addr })
	return snap
}

// MergeHealth folds several health snapshots — typically scraped from the
// /debugz endpoints of different processes — into one view. When the same
// contact address appears in more than one snapshot the entry backed by
// more samples wins: each process only knows about the replicas it talked
// to, so the richer history is the better estimate. Output is sorted by
// address like Snapshot.
func MergeHealth(snaps ...HealthSnapshot) HealthSnapshot {
	merged := HealthSnapshot{Schema: HealthSchema}
	best := make(map[string]AddrHealth)
	for _, snap := range snaps {
		for _, ah := range snap.Addrs {
			if prev, ok := best[ah.Addr]; !ok || ah.Samples > prev.Samples {
				best[ah.Addr] = ah
			}
		}
	}
	for _, ah := range best {
		merged.Addrs = append(merged.Addrs, ah)
	}
	sort.Slice(merged.Addrs, func(i, j int) bool { return merged.Addrs[i].Addr < merged.Addrs[j].Addr })
	return merged
}
