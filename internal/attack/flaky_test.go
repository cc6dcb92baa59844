package attack_test

// Flaky (crashed or lossy, NOT malicious) replicas. The paper's failover
// argument covers byzantine replicas; these tests prove the same
// machinery absorbs plain fail-stop and fail-slow behaviour: a replica
// that resets connections mid-transfer or silently swallows frames is
// skipped like a detected attacker, and an honest replica one ring out
// still serves a verified fetch within a bounded time.

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"globedoc/internal/attack"
	"globedoc/internal/core"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// startFlakyHonest starts an honest replica at host whose accepted
// connections are wrapped with the given fault plan (server side), so the
// replica is genuine but its transport misbehaves.
func startFlakyHonest(t *testing.T, n *netsim.Network, host, svc string, state attack.ReplicaState, plan netsim.FaultPlan) {
	t.Helper()
	l, err := n.Listen(host, svc)
	if err != nil {
		t.Fatal(err)
	}
	var wrapped net.Listener = netsim.FaultListener(l, plan, 7, nil)
	srv := attack.NewMaliciousServer(attack.Honest, state)
	srv.Start(wrapped)
	t.Cleanup(srv.Close)
}

// flakyClient builds a secure client at amsterdam-secondary that sees the
// replicas at addrs in order, with tight transport deadlines so a
// dead-air replica costs one timeout, not a hang.
func flakyClient(t *testing.T, n *netsim.Network, tel *telemetry.Telemetry, addrs ...string) *core.Client {
	t.Helper()
	return multiReplicaClient(t, n, tel, transport.Config{
		DialTimeout: 200 * time.Millisecond,
		CallTimeout: 200 * time.Millisecond,
	}, addrs...)
}

func TestFailoverPastCrashedMidTransferReplica(t *testing.T) {
	// The nearest replica is honest but crashes mid-transfer: after a
	// budget of response bytes its connections reset. The client must
	// treat that like a detected attack and recover via the healthy
	// replica — whether the crash comes while it binds or while the
	// elements transfer over an established binding.
	owner := keytest.RSA()
	page := bytes.Repeat([]byte("survives crashes "), 1<<10) // 17 KiB
	state := genuineState(t, owner, map[string][]byte{
		"index.html": page,
		"logo.png":   page[:12<<10],
	}, t0, time.Hour)
	crashes := []struct {
		name   string
		budget int64
	}{
		// Enough for the ping exchange, dead before the object key (an
		// RSA key alone overruns it) finishes transferring.
		{"while binding", 200},
		// The binding's key and certificate fit; no element does.
		{"while transferring an element", 8 << 10},
	}
	for _, crash := range crashes {
		for _, op := range fetchOps {
			t.Run(crash.name+"/"+op.name, func(t *testing.T) {
				n := netsim.PaperTestbed(0)
				t.Cleanup(n.Close)
				startFlakyHonest(t, n, netsim.Paris, "flaky", state, netsim.FaultPlan{ResetAfterBytes: crash.budget})
				honestL, err := n.Listen(netsim.AmsterdamPrimary, "honest")
				if err != nil {
					t.Fatal(err)
				}
				honest := attack.NewMaliciousServer(attack.Honest, state)
				honest.Start(honestL)
				t.Cleanup(honest.Close)

				tel := telemetry.New(nil)
				client := flakyClient(t, n, tel, "paris:flaky", "amsterdam-primary:honest")
				results, err := op.run(context.Background(), client, state.OID)
				if err != nil {
					t.Fatalf("fetch with healthy fallback failed: %v", err)
				}
				checkFailedOver(t, results, state, "amsterdam-primary:honest", tel)
			})
		}
	}
}

func TestFailoverPastFrameDroppingReplica(t *testing.T) {
	// The nearest replica swallows every response frame — dead air, not
	// an error. Only the client's deadlines can unstick it; failover must
	// then reach the healthy replica within a bounded time.
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{
		"index.html": []byte("still here"),
		"logo.png":   []byte("still here too"),
	}, t0, time.Hour)
	for _, op := range fetchOps {
		t.Run(op.name, func(t *testing.T) {
			n := netsim.PaperTestbed(0)
			t.Cleanup(n.Close)
			startFlakyHonest(t, n, netsim.Paris, "blackhole", state, netsim.FaultPlan{DropProb: 1})
			honestL, err := n.Listen(netsim.AmsterdamPrimary, "honest")
			if err != nil {
				t.Fatal(err)
			}
			honest := attack.NewMaliciousServer(attack.Honest, state)
			honest.Start(honestL)
			t.Cleanup(honest.Close)

			tel := telemetry.New(nil)
			client := flakyClient(t, n, tel, "paris:blackhole", "amsterdam-primary:honest")
			start := time.Now()
			results, err := op.run(context.Background(), client, state.OID)
			if err != nil {
				t.Fatalf("fetch past black-hole replica failed: %v", err)
			}
			checkFailedOver(t, results, state, "amsterdam-primary:honest", tel)
			if elapsed := time.Since(start); elapsed > 5*time.Second {
				t.Errorf("failover took %v; deadlines should bound it well under 5s", elapsed)
			}
		})
	}
}

func TestAllReplicasFlakyIsBoundedDoS(t *testing.T) {
	// Every replica crashes mid-transfer: the fetch must fail cleanly and
	// promptly — flaky infrastructure is at worst denial of service,
	// exactly like malicious infrastructure.
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{"index.html": []byte("unreachable")}, t0, time.Hour)

	n := netsim.PaperTestbed(0)
	t.Cleanup(n.Close)
	startFlakyHonest(t, n, netsim.Paris, "flaky", state, netsim.FaultPlan{ResetAfterBytes: 16})
	startFlakyHonest(t, n, netsim.AmsterdamPrimary, "flaky", state, netsim.FaultPlan{ResetAfterBytes: 16})

	client := flakyClient(t, n, telemetry.New(nil), "paris:flaky", "amsterdam-primary:flaky")
	start := time.Now()
	_, err := client.Fetch(context.Background(), state.OID, "index.html")
	if err == nil {
		t.Fatal("fetch succeeded with every replica crashing")
	}
	if errors.Is(err, core.ErrSecurityCheckFailed) {
		t.Errorf("crash-only replicas misreported as security failure: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("clean failure took %v, want prompt bounded error", elapsed)
	}
}
