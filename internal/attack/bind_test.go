package attack_test

// Adversarial coverage for obj.bind, the one request a client sends a
// replica: every attack mode reaches a client that binds through it, a
// replica that refuses it is no replica to bind to, a genuine bind reply
// corrupted in any one field still ends at worst in denial of service,
// and so does a warm reply that lies about the version the replica holds.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"globedoc/internal/attack"
	"globedoc/internal/cert"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/location"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// startFront stands a deploy.StartFront front at host:svc in front of the
// replica at backend, closed when t ends.
func startFront(t *testing.T, n *netsim.Network, host, svc, backend string, serve func(object.BindRequest, func() ([]byte, error)) ([]byte, error)) {
	t.Helper()
	stop, err := deploy.StartFront(n, host, svc, backend, serve)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
}

// rewriting is a front's serve that passes each genuine reply through
// rewrite.
func rewriting(rewrite func(object.BindRequest, []byte) []byte) func(object.BindRequest, func() ([]byte, error)) ([]byte, error) {
	return func(req object.BindRequest, forward func() ([]byte, error)) ([]byte, error) {
		reply, err := forward()
		if err != nil {
			return nil, err
		}
		return rewrite(req, reply), nil
	}
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
// victim that binds through a front forwarding its obj.bind to the
// adversary, and against one whose replica serves only the step
// operations and refuses obj.bind — a replica the victim, whose one
// request shape is obj.bind, cannot bind to. Either way the victim gets
// the genuine bytes or an error, never anything else, after exactly one
// obj.bind.
func TestAllAttackModesAtMostDoSBothWays(t *testing.T) {
	owner := keytest.RSA()
	genuineContent := []byte("the one true content")
	refuse := func(object.BindRequest, func() ([]byte, error)) ([]byte, error) {
		return nil, fmt.Errorf("unknown operation %q", object.OpBind)
	}
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
				serve := func(_ object.BindRequest, forward func() ([]byte, error)) ([]byte, error) { return forward() }
				if steps {
					serve = refuse
				}
				startFront(t, n, netsim.Paris, "evil", "paris:backend", serve)

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
				if steps && err == nil {
					t.Fatalf("mode %s: client bound to a replica that refuses obj.bind", mode)
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

// reencode returns a rewrite that decodes a genuine bind reply, lets
// corrupt change it, and encodes the result.
func reencode(t *testing.T, corrupt func(*object.BindReply)) func([]byte) []byte {
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
			if it.Err != nil {
				items[i] = object.BatchWireItem{Name: it.Name, ErrMsg: it.Err.Error()}
			}
		}
		return object.EncodeBindReply(reply.Key, reply.NameCerts, reply.Cert, items)
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
	fields := []struct {
		name    string
		rewrite func([]byte) []byte
		// phase is the binding check that must reject the field. It is ""
		// when the reply is malformed, and for the element check, whose
		// failover to the next replica counts no failure when that one
		// serves the element.
		phase string
	}{
		{"key", reencode(t, func(r *object.BindReply) { flip(r.Key) }), "self-certification"},
		{"name certificates", reencode(t, func(r *object.BindReply) { flip(r.NameCerts) }), "identity-certificate"},
		{"integrity certificate", reencode(t, func(r *object.BindReply) { flip(r.Cert) }), "integrity-certificate"},
		{"element bytes", reencode(t, func(r *object.BindReply) { r.Items[0].Element.Data[0] ^= 0xff }), ""},
		{"item name echo", reencode(t, func(r *object.BindReply) { r.Items[0].Name = "~" + r.Items[0].Name }), ""},
		{"item count", reencode(t, func(r *object.BindReply) { r.Items = append(r.Items, r.Items[len(r.Items)-1]) }), ""},
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
				startFront(t, n, netsim.Paris, "evil", "paris:genuine", rewriting(func(_ object.BindRequest, reply []byte) []byte {
					return field.rewrite(reply)
				}))

				tel := telemetry.New(nil)
				client := frontedClient(t, n, core.Options{
					Trust:           trust,
					RequireIdentity: true,
					Now:             func() time.Time { return t0.Add(time.Minute) },
					Telemetry:       tel,
				})

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

// frontedClient is a victim at amsterdam-secondary that sees two
// replicas in order: the front at paris:evil, then an honest one at
// amsterdam-primary:honest.
func frontedClient(t *testing.T, n *netsim.Network, opts core.Options) *core.Client {
	t.Helper()
	client, err := core.NewClient(&object.Binder{
		Locator: multiReplicaLocator{addrs: []location.ContactAddress{
			{Address: "paris:evil", Protocol: object.Protocol},
			{Address: "amsterdam-primary:honest", Protocol: object.Protocol},
		}},
		Dial: func(addr string) transport.DialFunc {
			return n.Dialer(netsim.AmsterdamSecondary, addr)
		},
		Site: netsim.AmsterdamSecondary,
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	return client
}

// TestMovedLieAtMostDoS: a replica that binds a victim honestly, then
// lies in a warm reply about the version it holds, is rejected at the
// check the lie fails and abandoned for the honest replica behind it,
// whose genuine bytes the victim gets. The lies: a certificate older
// than the one the victim holds, one not signed by the object key, a
// newer genuine one that does not list the hash of the bytes served
// beside it, and "unchanged" beside a newer version's bytes.
func TestMovedLieAtMostDoS(t *testing.T) {
	owner := keytest.RSA()
	elems := func(tag string) map[string][]byte {
		return map[string][]byte{"index.html": []byte(tag + " index"), "logo.png": []byte(tag + " logo")}
	}
	var err error
	state := genuineState(t, owner, elems("current"), t0, time.Hour)
	older := genuineState(t, owner, elems("older"), t0.Add(-time.Minute), time.Hour)
	newer := genuineState(t, owner, elems("newer"), t0.Add(30*time.Second), time.Hour)
	forged := genuineState(t, owner, elems("forged"), t0.Add(30*time.Second), time.Hour)
	if forged.Cert, err = document.IssueCertificate(forged.Doc, state.OID, keytest.Ed(), t0.Add(30*time.Second), document.UniformTTL(time.Hour)); err != nil {
		t.Fatal(err)
	}

	// moved answers a warm request with cert (nil for "unchanged") and
	// the elements of doc in place of the genuine reply's.
	moved := func(icert *cert.IntegrityCertificate, doc *document.Document) func(object.BindRequest, []byte) []byte {
		return func(req object.BindRequest, reply []byte) []byte {
			if req.Have == ([globeid.Size]byte{}) {
				return reply
			}
			return reencode(t, func(r *object.BindReply) {
				r.Cert = nil
				if icert != nil {
					r.Cert = icert.Marshal()
				}
				for i, it := range r.Items {
					if e, err := doc.Get(it.Name); err == nil {
						r.Items[i].Element.Data = e.Data
					}
				}
			})(reply)
		}
	}
	// step is the check that rejects the lie. A rejected certificate is
	// counted in security_check_failures_total{phase="integrity-certificate"}
	// as a binding's is; an element check whose failover succeeds counts
	// nothing, so its rejection is read off the step's span.
	lies := []struct {
		name string
		lie  func(object.BindRequest, []byte) []byte
		step string
	}{
		{"older certificate", moved(older.Cert, older.Doc), core.StepCertVerify},
		{"certificate not signed by the object key", moved(forged.Cert, forged.Doc), core.StepCertVerify},
		{"certificate not listing the served hash", moved(newer.Cert, state.Doc), core.StepVerifyAuthenticity},
		{"unchanged beside new bytes", moved(nil, newer.Doc), core.StepVerifyAuthenticity},
	}
	for _, lie := range lies {
		t.Run(lie.name, func(t *testing.T) {
			n := netsim.PaperTestbed(0)
			t.Cleanup(n.Close)
			for host, svc := range map[string]string{netsim.Paris: "genuine", netsim.AmsterdamPrimary: "honest"} {
				l, err := n.Listen(host, svc)
				if err != nil {
					t.Fatal(err)
				}
				srv := attack.NewMaliciousServer(attack.Honest, state)
				srv.Start(l)
				t.Cleanup(srv.Close)
			}
			startFront(t, n, netsim.Paris, "evil", "paris:genuine", rewriting(lie.lie))
			tel := telemetry.New(nil)
			client := frontedClient(t, n, core.Options{
				CacheBindings: true,
				Now:           func() time.Time { return t0.Add(time.Minute) },
				Telemetry:     tel,
			})
			warm, err := client.Fetch(context.Background(), state.OID, "index.html")
			if err != nil || warm.ReplicaAddr != "paris:evil" {
				t.Fatalf("cold bind through the front: %v (from %q)", err, warm.ReplicaAddr)
			}

			res, err := client.Fetch(context.Background(), state.OID, "logo.png")
			if err != nil {
				t.Fatalf("fetch with an honest replica behind the liar failed: %v", err)
			}
			checkFailedOver(t, []core.FetchResult{res}, state, "amsterdam-primary:honest", tel)
			rejected := map[string]int{}
			for _, sp := range tel.Ring.Spans() {
				for _, a := range sp.Attrs {
					if a.Key == "error" {
						rejected[sp.Name]++
					}
				}
			}
			if rejected[lie.step] != 1 {
				t.Errorf("errored spans = %v, want one %s", rejected, lie.step)
			}
			want := uint64(0)
			if lie.step == core.StepCertVerify {
				want = 1
			}
			if got := tel.SecurityCheckFailures.With("integrity-certificate").Value(); got != want {
				t.Errorf(`security_check_failures_total{phase="integrity-certificate"} = %d, want %d`, got, want)
			}
			for _, phase := range []string{"self-certification", "element", "freshness"} {
				if got := tel.SecurityCheckFailures.With(phase).Value(); got != 0 {
					t.Errorf("security_check_failures_total{phase=%q} = %d, want 0", phase, got)
				}
			}
		})
	}
}
