package attack_test

// Adversarial coverage for the obj.bind path: every attack mode reaches a
// client whichever way it binds — in one obj.bind exchange or, against a
// replica that refuses it, with the step RPCs — and a genuine bind reply
// corrupted in any one field still ends at worst in denial of service.

import (
	"context"
	"testing"
	"time"

	"globedoc/internal/attack"
	"globedoc/internal/cert"
	"globedoc/internal/core"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/location"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// stepOps are the object operations a replica built before obj.bind
// serves.
var stepOps = []string{object.OpGetKey, object.OpGetCert, object.OpGetNameCerts, object.OpGetElement,
	object.OpGetElements, object.OpListElements, object.OpVersion, object.OpPing}

// startFront serves, at host:svc, a front that forwards ops to the
// replica at backend, passing every reply through rewrite when it is set.
func startFront(t *testing.T, n *netsim.Network, host, svc, backend string, ops []string, rewrite func(op string, reply []byte) []byte) {
	t.Helper()
	fwd := transport.NewClient(n.Dialer(host, backend)).Configure(transport.Config{Telemetry: telemetry.New(nil)})
	t.Cleanup(fwd.Close)
	front := transport.NewServer()
	front.Telemetry = telemetry.New(nil)
	for _, op := range ops {
		front.HandleCtx(op, func(ctx context.Context, body []byte) ([]byte, error) {
			reply, err := fwd.Call(ctx, op, body)
			if err == nil && rewrite != nil {
				reply = rewrite(op, reply)
			}
			return reply, err
		})
	}
	l, err := n.Listen(host, svc)
	if err != nil {
		t.Fatal(err)
	}
	front.Start(l)
	t.Cleanup(front.Close)
}

// modeServer builds mode's adversary around state, equipped as
// TestAllAttackModesAtMostDoS equips it.
func modeServer(t *testing.T, mode attack.Mode, state attack.ReplicaState) *attack.MaliciousServer {
	t.Helper()
	owner := keytest.RSA()
	srv := attack.NewMaliciousServer(mode, state)
	switch mode {
	case attack.StaleReplay:
		srv.SetStale(genuineState(t, owner, map[string][]byte{"index.html": []byte("ancient")}, t0.Add(-2*time.Hour), time.Hour))
	case attack.WrongObject:
		srv.SetDecoy(genuineState(t, keytest.Ed(), map[string][]byte{"index.html": []byte("decoy")}, t0, time.Hour))
	case attack.ForgeCertificate:
		attacker := keytest.Ed()
		forged := &cert.IntegrityCertificate{ObjectID: state.OID, Issued: t0}
		forged.Entries = []cert.ElementEntry{{Name: "index.html", Hash: globeid.HashElement([]byte("x")), Expires: t0.Add(time.Hour)}}
		if err := forged.Sign(attacker); err != nil {
			t.Fatal(err)
		}
		srv.SetForgery(attacker, forged)
	}
	return srv
}

// TestAllAttackModesAtMostDoSBothWays runs every attack mode against a
// victim that binds in one obj.bind exchange and against one whose
// replica refuses obj.bind, so the step-RPC fallback keeps its coverage:
// either way the victim gets the genuine bytes or an error, never
// anything else.
func TestAllAttackModesAtMostDoSBothWays(t *testing.T) {
	owner := keytest.RSA()
	genuineContent := []byte("the one true content")
	for _, mode := range attack.AllModes {
		for _, steps := range []bool{false, true} {
			name := mode.String() + "/bind"
			if steps {
				name = mode.String() + "/steps"
			}
			t.Run(name, func(t *testing.T) {
				state := genuineState(t, owner, map[string][]byte{
					"index.html": genuineContent,
					"other.html": []byte("another element"),
				}, t0, time.Hour)
				srv := modeServer(t, mode, state)
				n := netsim.PaperTestbed(0)
				t.Cleanup(n.Close)
				l, err := n.Listen(netsim.Paris, "backend")
				if err != nil {
					t.Fatal(err)
				}
				srv.Start(l)
				t.Cleanup(srv.Close)
				ops := append([]string{object.OpBind}, stepOps...)
				if steps {
					ops = stepOps
				}
				startFront(t, n, netsim.Paris, "evil", "paris:backend", ops, nil)

				tel := telemetry.New(nil)
				client, err := core.NewClient(&object.Binder{
					Locator: attack.MaliciousLocation{Rogue: location.ContactAddress{Address: "paris:evil", Protocol: object.Protocol}},
					Dial: func(addr string) transport.DialFunc {
						return n.Dialer(netsim.AmsterdamSecondary, addr)
					},
					Site:      netsim.AmsterdamSecondary,
					Transport: transport.Config{Telemetry: tel},
				}, core.Options{Now: func() time.Time { return t0.Add(time.Minute) }, Telemetry: tel})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(client.Close)

				res, err := client.Fetch(context.Background(), state.OID, "index.html")
				if err == nil && string(res.Element.Data) != string(genuineContent) {
					t.Fatalf("mode %s: client ACCEPTED wrong data %q", mode, res.Element.Data)
				}
				outcome := "ok"
				if steps {
					outcome = "error"
				}
				if got := tel.RPCCalls.With(object.OpBind, outcome).Value(); got != 1 {
					t.Errorf(`rpc_calls_total{op="obj.bind",outcome=%q} = %d, want 1`, outcome, got)
				}
			})
		}
	}
}

// TestCorruptedBindReplyAtMostDoS corrupts one field of a genuine obj.bind
// reply at a time, on the nearest of two replicas. Whatever the field,
// the victim — which requires a trusted identity certificate, so every
// section counts — rejects that replica, at the check that owns the field
// or as a malformed reply, and gets the genuine bytes from the other.
func TestCorruptedBindReplyAtMostDoS(t *testing.T) {
	owner := keytest.RSA()
	state := genuineState(t, owner, map[string][]byte{
		"index.html": []byte("the real thing"),
		"logo.png":   []byte("the real logo"),
	}, t0, time.Hour)
	ca := &cert.CA{Name: "Trusted CA", Key: keytest.Ed()}
	nc, err := ca.IssueNameCertificate(state.OID, "The Real Owner", t0, t0.Add(24*time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	state.NameCerts = []*cert.NameCertificate{nc}
	trust := cert.NewTrustStore()
	trust.TrustCA(ca.Name, ca.Key.Public())

	flip := func(b []byte) { b[len(b)/2] ^= 0xff }
	reencode := func(corrupt func(*object.BindReply)) func([]byte) []byte {
		return func(body []byte) []byte {
			reply, err := object.DecodeBindReply(body)
			if err != nil {
				t.Errorf("genuine bind reply does not decode: %v", err)
				return body
			}
			corrupt(&reply)
			items := make([]object.BatchWireItem, len(reply.Items))
			for i, it := range reply.Items {
				items[i] = object.BatchWireItem{Name: it.Name, Wire: object.EncodeElement(it.Element)}
			}
			return object.EncodeBindReply(reply.Key, reply.NameCerts, reply.Cert, items)
		}
	}
	fields := []struct {
		name    string
		rewrite func([]byte) []byte
		// phase is the binding check that must reject the field. It is ""
		// when the reply is malformed, and for the element check, whose
		// failover to the next replica counts no failure when that one
		// serves the element.
		phase string
	}{
		{"key", reencode(func(r *object.BindReply) { flip(r.Key) }), "self-certification"},
		{"name certificates", reencode(func(r *object.BindReply) { flip(r.NameCerts) }), "identity-certificate"},
		{"integrity certificate", reencode(func(r *object.BindReply) { flip(r.Cert) }), "integrity-certificate"},
		{"element bytes", reencode(func(r *object.BindReply) { r.Items[0].Element.Data[0] ^= 0xff }), ""},
		{"item name echo", reencode(func(r *object.BindReply) { r.Items[0].Name = "~" + r.Items[0].Name }), ""},
		{"item count", reencode(func(r *object.BindReply) { r.Items = append(r.Items, r.Items[len(r.Items)-1]) }), ""},
		{"truncated reply", func(body []byte) []byte { return body[:len(body)/2] }, ""},
		{"trailing bytes", func(body []byte) []byte { return append(body, 0) }, ""},
	}
	for _, field := range fields {
		for _, op := range fetchOps {
			t.Run(field.name+"/"+op.name, func(t *testing.T) {
				n := netsim.PaperTestbed(0)
				t.Cleanup(n.Close)
				for host, mode := range map[string]string{netsim.Paris: "genuine", netsim.AmsterdamPrimary: "honest"} {
					l, err := n.Listen(host, mode)
					if err != nil {
						t.Fatal(err)
					}
					srv := attack.NewMaliciousServer(attack.Honest, state)
					srv.Start(l)
					t.Cleanup(srv.Close)
				}
				startFront(t, n, netsim.Paris, "evil", "paris:genuine", append([]string{object.OpBind}, stepOps...), func(op string, reply []byte) []byte {
					if op != object.OpBind {
						return reply
					}
					return field.rewrite(reply)
				})

				tel := telemetry.New(nil)
				client, err := core.NewClient(&object.Binder{
					Locator: multiReplicaLocator{addrs: []location.ContactAddress{
						{Address: "paris:evil", Protocol: object.Protocol},
						{Address: "amsterdam-primary:honest", Protocol: object.Protocol},
					}},
					Dial: func(addr string) transport.DialFunc {
						return n.Dialer(netsim.AmsterdamSecondary, addr)
					},
					Site: netsim.AmsterdamSecondary,
				}, core.Options{
					Trust:           trust,
					RequireIdentity: true,
					Now:             func() time.Time { return t0.Add(time.Minute) },
					Telemetry:       tel,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(client.Close)

				results, err := op.run(context.Background(), client, state.OID)
				if err != nil {
					t.Fatalf("fetch with an honest replica behind the corrupted one failed: %v", err)
				}
				checkFailedOver(t, results, state, "amsterdam-primary:honest", tel)
				for _, phase := range []string{"self-certification", "identity-certificate", "integrity-certificate", "element"} {
					want := uint64(0)
					if phase == field.phase {
						want = 1
					}
					if got := tel.SecurityCheckFailures.With(phase).Value(); got != want {
						t.Errorf("security_check_failures_total{phase=%q} = %d, want %d", phase, got, want)
					}
				}
			})
		}
	}
}
