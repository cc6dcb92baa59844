package netsim

import (
	"fmt"
	"strings"
	"time"
)

// The fleet testbed models a multi-continent deployment on which to test
// replica selection (DESIGN.md §14): twelve object servers spread over
// three continents plus one client vantage host per continent, with RTT
// bands an order of magnitude apart so replica-selection policy
// differences show up unambiguously in fetch latency.
//
// The continent names are deliberately chosen so that lexicographic
// order (asia < europe < northamerica) does NOT match proximity order
// for any client: within one ring of the location tree's expanding-ring
// search, addresses surface in sorted child-name order, so a selector
// that trusts location order alone will routinely try the
// alphabetically-first FAR continent before a nearer one. That is the
// weakness the health-ranked selector exists to fix, and the placement
// benchmark measures.
const (
	ContinentAsia         = "asia"
	ContinentEurope       = "europe"
	ContinentNorthAmerica = "northamerica"
)

// FleetContinents lists the fleet's continents in sorted order.
var FleetContinents = []string{ContinentAsia, ContinentEurope, ContinentNorthAmerica}

// FleetServersPerContinent is how many object servers each continent
// hosts; the total fleet is 3x this.
const FleetServersPerContinent = 4

// Fleet link profiles. Latencies are one-way, so RTTs are double:
// ~2 ms within a continent, 40 ms Europe–North-America, 90 ms
// North-America–Asia, 120 ms Europe–Asia.
var (
	FleetIntraLink  = LinkProfile{Latency: 1 * time.Millisecond, Bandwidth: 6.0e6}
	FleetEuNaLink   = LinkProfile{Latency: 20 * time.Millisecond, Bandwidth: 1.0e6}
	FleetNaAsiaLink = LinkProfile{Latency: 45 * time.Millisecond, Bandwidth: 0.6e6}
	FleetEuAsiaLink = LinkProfile{Latency: 60 * time.Millisecond, Bandwidth: 0.5e6}
)

// FleetServers returns the twelve server host names, grouped by
// continent: asia-s1 … asia-s4, europe-s1 …, northamerica-s4.
func FleetServers() []string {
	out := make([]string, 0, len(FleetContinents)*FleetServersPerContinent)
	for _, c := range FleetContinents {
		for i := 1; i <= FleetServersPerContinent; i++ {
			out = append(out, fmt.Sprintf("%s-s%d", c, i))
		}
	}
	return out
}

// FleetClient returns the client vantage host of a continent
// (e.g. "europe-client").
func FleetClient(continent string) string { return continent + "-client" }

// FleetContinentOf maps any fleet host name back to its continent.
func FleetContinentOf(host string) string {
	if i := strings.IndexByte(host, '-'); i > 0 {
		return host[:i]
	}
	return host
}

// fleetLink picks the link profile between two fleet hosts.
func fleetLink(a, b string) LinkProfile {
	ca, cb := FleetContinentOf(a), FleetContinentOf(b)
	if ca == cb {
		return FleetIntraLink
	}
	if ca > cb {
		ca, cb = cb, ca
	}
	switch {
	case ca == ContinentEurope && cb == ContinentNorthAmerica:
		return FleetEuNaLink
	case ca == ContinentAsia && cb == ContinentNorthAmerica:
		return FleetNaAsiaLink
	default: // asia–europe
		return FleetEuAsiaLink
	}
}

// FleetTestbed builds the full-mesh fleet topology — twelve servers and
// three client hosts — at the given time scale (1.0 = full simulated
// latencies, 0 = latency-free).
func FleetTestbed(timeScale float64) *Network {
	n := NewNetwork()
	n.TimeScale = timeScale
	hosts := FleetServers()
	for _, c := range FleetContinents {
		hosts = append(hosts, FleetClient(c))
	}
	for i, a := range hosts {
		for _, b := range hosts[i+1:] {
			n.SetLink(a, b, fleetLink(a, b))
		}
	}
	return n
}
