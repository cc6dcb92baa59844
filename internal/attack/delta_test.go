package attack_test

// Poisoned-delta attacks: a compromised primary (or a man in the middle
// on the consistency channel) corrupts obj.getdelta replies. The
// invariant under test is the paper's at-worst-DoS claim extended to
// incremental transfers: every forged, truncated, lie-unchanged or
// rolled-back delta is rejected before any state commits, the puller asks once more from version 0, and the
// victim converges on state byte-identical to the genuine primary's
// wherever that full answer is honest. Its certificate version never
// decreases.

import (
	"bytes"
	"context"
	"strings"
	"testing"
	"time"

	"globedoc/internal/attack"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
)

// deltaVictim stands up a genuine primary+secondary pair at version 1,
// interposes a malicious delta primary over the genuine primary's state
// (a rollback attacker captures version 1 here), moves both replicas to
// version 2 and returns a puller on the secondary, wired to tel, that
// talks only to the attacker.
func deltaVictim(t *testing.T, mode attack.DeltaMode, tel *telemetry.Telemetry) (*deploy.World, *deploy.Publication, *server.Puller, *attack.MaliciousDeltaPrimary) {
	t.Helper()
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	primary, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	paris, err := w.StartServer(netsim.Paris, "srv-paris", nil, nil, server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	doc.Put(document.Element{Name: "index.html", Data: []byte("v1 body")})
	doc.Put(document.Element{Name: "style.css", Data: []byte("body{}")})
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "victim.nl", OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateTo(pub, netsim.Paris); err != nil {
		t.Fatal(err)
	}

	evil := attack.NewMaliciousDeltaPrimary(mode, primary)
	l, err := w.Net.Listen(netsim.AmsterdamPrimary, "evil")
	if err != nil {
		t.Fatal(err)
	}
	evil.Start(l)
	t.Cleanup(evil.Close)

	pub.Doc.Put(document.Element{Name: "style.css", Data: []byte("body{margin:0}")})
	if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}
	v2, err := primary.ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	if err := paris.Update(v2, "owner:victim.nl"); err != nil {
		t.Fatal(err)
	}

	puller := server.NewPuller(paris, pub.OID, "owner:victim.nl",
		netsim.AmsterdamPrimary+":evil", w.DialFrom(netsim.Paris), 10*time.Millisecond)
	puller.SetTelemetry(tel)
	t.Cleanup(puller.Stop)
	return w, pub, puller, evil
}

func TestPoisonedDeltaAtWorstDoS(t *testing.T) {
	for _, mode := range attack.AllDeltaModes {
		t.Run(mode.String(), func(t *testing.T) {
			tel := telemetry.New(nil)
			w, pub, puller, evil := deltaVictim(t, mode, tel)
			before, err := w.Servers[netsim.Paris].ExportBundle(pub.OID)
			if err != nil {
				t.Fatal(err)
			}
			pub.Doc.Put(document.Element{Name: "index.html", Data: []byte("v3 body")})
			if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
				t.Fatal(err)
			}
			pulled, err := puller.CheckOnce(context.Background())
			// Both reply shapes were served: the lying delta, then the
			// answer to the retry from version 0.
			if n := evil.DeltaServed(); n != 2 {
				t.Fatalf("attacker answered %d obj.getdelta requests, want the delta and the retry", n)
			}
			// The poisoned delta must have been rejected, not applied.
			if puller.DeltaPulls() != 0 {
				t.Fatalf("corrupted delta was accepted (%d delta pulls)", puller.DeltaPulls())
			}
			if puller.DeltaFallbacks() != 1 {
				t.Fatalf("fallbacks = %d, want the rejected delta asked for again once", puller.DeltaFallbacks())
			}
			sb, serr := w.Servers[netsim.Paris].ExportBundle(pub.OID)
			if serr != nil {
				t.Fatal(serr)
			}
			if vErr := sb.Validate(); vErr != nil {
				t.Fatalf("victim's final bundle does not validate: %v", vErr)
			}
			if sb.Cert.Version < before.Cert.Version {
				t.Fatalf("victim rolled back from certificate v%d to v%d", before.Cert.Version, sb.Cert.Version)
			}

			if mode == attack.DeltaRollback {
				// Both shapes carry superseded state: the check fails,
				// counted, and the victim keeps exactly what it held. The
				// full reply verifies, so the supersedes rule refuses it.
				if err == nil || pulled || !strings.Contains(err.Error(), "supersedes") {
					t.Fatalf("CheckOnce = %v, %v; want the rollback refused as superseded", pulled, err)
				}
				if v := tel.PullerFailures.Value(); v != 1 {
					t.Errorf("puller_failures_total = %d, want 1", v)
				}
				if !bytes.Equal(before.Marshal(), sb.Marshal()) {
					t.Fatal("victim state changed under a refused rollback")
				}
				return
			}
			if err != nil {
				t.Fatalf("CheckOnce: %v", err)
			}
			if !pulled {
				t.Fatal("victim did not converge at all (DoS exceeded: no fallback)")
			}
			if v := tel.PullerPulls.With("full").Value(); v != 1 {
				t.Fatalf("puller_pulls_total{full} = %d, want the retry to install the full state", v)
			}
			// At-worst-DoS: the final state is byte-identical to the
			// genuine primary's.
			pb, err := w.Servers[netsim.AmsterdamPrimary].ExportBundle(pub.OID)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(pb.Marshal(), sb.Marshal()) {
				t.Fatal("victim state differs from genuine primary: corruption survived")
			}
		})
	}
}

func TestHonestDeltaPrimaryControl(t *testing.T) {
	// The control case: the same wrapper with no lie must let the delta
	// path succeed, proving the attack tests exercise a working channel.
	tel := telemetry.New(nil)
	w, pub, puller, _ := deltaVictim(t, attack.DeltaHonest, tel)
	pub.Doc.Put(document.Element{Name: "index.html", Data: []byte("v3 body")})
	if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}
	pulled, err := puller.CheckOnce(context.Background())
	if err != nil {
		t.Fatalf("CheckOnce: %v", err)
	}
	if full := tel.PullerPulls.With("full").Value(); !pulled || puller.DeltaPulls() != 1 || full != 0 {
		t.Fatalf("pulled=%v delta=%d full=%d, want a clean delta pull",
			pulled, puller.DeltaPulls(), full)
	}
	pb, _ := w.Servers[netsim.AmsterdamPrimary].ExportBundle(pub.OID)
	sb, _ := w.Servers[netsim.Paris].ExportBundle(pub.OID)
	if !bytes.Equal(pb.Marshal(), sb.Marshal()) {
		t.Fatal("honest delta did not converge byte-identically")
	}
}
