package deploy_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/replication"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// fleetWorld stands up the twelve-server, three-continent fleet with a
// hardened client config and one shared telemetry.
func fleetWorld(t *testing.T) (*deploy.FleetWorld, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New(nil)
	w, err := deploy.NewFleetWorld(deploy.Options{
		TimeScale: 0,
		Client: transport.Config{
			DialTimeout: 300 * time.Millisecond,
			CallTimeout: 300 * time.Millisecond,
			Retry: &transport.RetryPolicy{
				MaxAttempts: 3,
				BaseDelay:   time.Millisecond,
				MaxDelay:    10 * time.Millisecond,
				Multiplier:  2,
			},
		},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w, tel
}

func fleetDoc(name string) *document.Document {
	doc := document.New()
	doc.Put(document.Element{Name: "index.html", ContentType: "text/html",
		Data: []byte("<html>" + name + "</html>")})
	return doc
}

func TestFleetWorldPlacedPublish(t *testing.T) {
	w, _ := fleetWorld(t)
	if got := len(w.Servers); got != 12 {
		t.Fatalf("fleet runs %d servers, want 12", got)
	}

	pub, err := w.PublishPlaced(fleetDoc("fleet"), deploy.PublishOptions{
		Name: "fleet.example", OwnerKey: keytest.RSA(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// The replicas live exactly where the placement says.
	sites := w.Placement.ServersFor(pub.OID)
	if len(sites) != deploy.FleetReplicationFactor {
		t.Fatalf("placement assigned %v", sites)
	}
	if pub.HomeSite != sites[0] {
		t.Errorf("HomeSite = %s, want placement home %s", pub.HomeSite, sites[0])
	}
	for _, site := range sites {
		if !w.Servers[site].Hosts(pub.OID) {
			t.Errorf("placement server %s does not host the object", site)
		}
	}
	hosting := 0
	for _, srv := range w.Servers {
		if srv.Hosts(pub.OID) {
			hosting++
		}
	}
	if hosting != deploy.FleetReplicationFactor {
		t.Errorf("%d servers host the object, want exactly %d", hosting, deploy.FleetReplicationFactor)
	}

	// Every continent's client can fetch and verify it, whatever the
	// placement chose; lookups surface zone-labelled addresses.
	for _, continent := range netsim.FleetContinents {
		client := w.NewSecureClient(netsim.FleetClient(continent))
		res, err := client.FetchNamed(context.Background(), "fleet.example", "index.html")
		if err != nil {
			t.Fatalf("fetch from %s: %v", continent, err)
		}
		if string(res.Element.Data) != "<html>fleet</html>" {
			t.Fatalf("fetch from %s returned %q", continent, res.Element.Data)
		}
		client.Close()
	}
	lookup, err := w.LocationTree.Lookup(context.Background(), netsim.FleetClient(netsim.ContinentEurope), pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range lookup.Addresses {
		if a.Zone == "" {
			t.Errorf("address %s carries no zone label", a.Address)
		}
	}
}

func TestFleetRebalanceMovesReplicas(t *testing.T) {
	w, _ := fleetWorld(t)
	var pubs []*deploy.Publication
	for i := 0; i < 4; i++ {
		pub, err := w.PublishPlaced(fleetDoc("doc"), deploy.PublishOptions{OwnerKey: keytest.RSA()})
		if err != nil {
			t.Fatal(err)
		}
		pubs = append(pubs, pub)
	}

	// Shrink the fleet by the last asia server and rebalance.
	removed := "asia-s4"
	var survivors []string
	for _, s := range netsim.FleetServers() {
		if s != removed {
			survivors = append(survivors, s)
		}
	}
	next, err := replication.NewPlacement(survivors, 0, deploy.FleetReplicationFactor)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ApplyRebalance(next, pubs...); err != nil {
		t.Fatal(err)
	}
	if w.Placement != next {
		t.Fatal("world did not switch to the new placement")
	}

	for _, pub := range pubs {
		sites := next.ServersFor(pub.OID)
		for _, site := range sites {
			if site == removed {
				t.Fatalf("new placement still assigns %s", removed)
			}
			if !w.Servers[site].Hosts(pub.OID) {
				t.Errorf("oid %s: post-rebalance server %s has no replica", pub.OID.Short(), site)
			}
		}
		// The withdrawn server is no longer discoverable.
		addrs := w.LocationTree.AllAddresses(pub.OID)
		for _, a := range addrs {
			if a.Address == removed+":"+deploy.ObjectService {
				t.Errorf("oid %s still locatable on removed server", pub.OID.Short())
			}
		}
		if len(addrs) != deploy.FleetReplicationFactor {
			t.Errorf("oid %s has %d location records, want %d", pub.OID.Short(), len(addrs), deploy.FleetReplicationFactor)
		}
	}
}

// TestFleetSelectorReranksAwayFromDegradedReplica is the fleet chaos
// scenario of replica selection (DESIGN.md §14): the replica a client
// is happily using dies mid-run; the selector must absorb exactly one
// failover, re-rank the dead address to the bottom on failure evidence,
// and keep every subsequent cold binding away from it.
func TestFleetSelectorReranksAwayFromDegradedReplica(t *testing.T) {
	w, tel := fleetWorld(t)
	pub, err := w.PublishPlaced(fleetDoc("degrade"), deploy.PublishOptions{
		Name: "degrade.example", OwnerKey: keytest.RSA(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// The client sits on the home replica's continent, so the bound
	// replica starts out both nearest and measured-fastest.
	home := pub.HomeSite
	client := w.NewSecureClient(netsim.FleetClient(netsim.FleetContinentOf(home)))
	t.Cleanup(client.Close)

	fetch := func(i int) string {
		t.Helper()
		res, err := client.FetchNamed(context.Background(), "degrade.example", "index.html")
		if err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
		if string(res.Element.Data) != "<html>degrade</html>" {
			t.Fatalf("fetch %d returned %q", i, res.Element.Data)
		}
		return res.ReplicaAddr
	}

	// Warm-up: bindings are flushed between fetches so every fetch runs
	// selection; the measured-fast home replica keeps winning.
	var bound string
	for i := 0; i < 3; i++ {
		bound = fetch(i)
		client.Close()
	}

	// Degrade: the bound replica dies. The next establishment still ranks
	// it first (it is measured-fast with no failure evidence), eats the
	// failover, and records the failure.
	w.Servers[strings.SplitN(bound, ":", 2)[0]].Close()
	baseFailovers := tel.Failovers.Value()

	const after = 6
	for i := 0; i < after; i++ {
		if got := fetch(100 + i); got == bound {
			t.Fatalf("fetch %d still served by dead replica %s", i, bound)
		}
		client.Close()
	}

	// Fetches kept succeeding; the failover cost is bounded: the retry
	// policy may spend a couple of attempts discovering the death, but
	// re-ranking must prevent per-fetch failovers forever after.
	extra := tel.Failovers.Value() - baseFailovers
	if extra == 0 {
		t.Error("failovers_total did not move; the dead replica was never tried")
	}
	if extra > 3 {
		t.Errorf("failovers_total rose by %d across %d fetches; re-ranking is not sticking", extra, after)
	}

	// Failure evidence drove the re-rank: error EWMA and consecutive
	// failures on the dead address.
	bad, ok := tel.Health.Lookup(bound)
	if !ok {
		t.Fatalf("no health state for dead replica %s", bound)
	}
	if bad.ConsecutiveFailures == 0 || bad.ErrorRate == 0 {
		t.Errorf("dead replica %s: consec %d, errRate %v; both must rise",
			bound, bad.ConsecutiveFailures, bad.ErrorRate)
	}

	// The retained selection ranking shows the dead address demoted.
	snap := tel.Selection.Snapshot()
	if snap.Schema != telemetry.SelectionSchema {
		t.Fatalf("selection schema = %q", snap.Schema)
	}
	found := false
	for _, r := range snap.Rankings {
		if r.OID != pub.OID.Short() {
			continue
		}
		found = true
		if r.Selector != "health-ranked" {
			t.Errorf("selector = %q, want health-ranked", r.Selector)
		}
		if len(r.Ranked) < 2 {
			t.Fatalf("ranking too short: %v", r.Ranked)
		}
		if r.Ranked[len(r.Ranked)-1] != bound {
			t.Errorf("dead replica %s not ranked last: %v", bound, r.Ranked)
		}
	}
	if !found {
		t.Errorf("no retained ranking for OID %s: %+v", pub.OID.Short(), snap.Rankings)
	}
}
