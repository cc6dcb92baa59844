package deploy_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
)

func newWorld(t *testing.T) *deploy.World {
	t.Helper()
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

func simpleDoc(t *testing.T, content string) *document.Document {
	t.Helper()
	d := document.New()
	if err := d.Put(document.Element{Name: "index.html", Data: []byte(content)}); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestPublishRegistersEverything(t *testing.T) {
	w := newWorld(t)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	pub, err := w.Publish(simpleDoc(t, "x"), deploy.PublishOptions{
		Name: "a.nl", Subject: "A Corp", OwnerKey: keytest.RSA(),
	})
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	// Naming knows the name.
	chain, err := w.NamingAuthority.ResolveChain("a.nl")
	if err != nil || chain.Record.OID != pub.OID {
		t.Fatalf("naming: %v", err)
	}
	// Location knows the replica.
	res, err := w.LocationTree.Lookup(context.Background(), netsim.AmsterdamPrimary, pub.OID)
	if err != nil || len(res.Addresses) != 1 {
		t.Fatalf("location: %v %v", res, err)
	}
	// Server hosts it.
	if !w.Servers[netsim.AmsterdamPrimary].Hosts(pub.OID) {
		t.Fatal("home server does not host the object")
	}
	// Name certificate present.
	if pub.NameCert == nil || pub.NameCert.Subject != "A Corp" {
		t.Fatalf("NameCert = %+v", pub.NameCert)
	}
}

func TestPublishWithoutServerFails(t *testing.T) {
	w := newWorld(t)
	if _, err := w.Publish(simpleDoc(t, "x"), deploy.PublishOptions{Name: "a.nl", OwnerKey: keytest.Ed()}); err == nil {
		t.Fatal("Publish without a home server succeeded")
	}
}

func TestReissueAndPushUpdate(t *testing.T) {
	w := newWorld(t)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.StartServer(netsim.Paris, "srv-p", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	doc := simpleDoc(t, "v1")
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "a.nl", OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateTo(pub, netsim.Paris); err != nil {
		t.Fatal(err)
	}

	doc.Put(document.Element{Name: "index.html", Data: []byte("v2 content")})
	if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
		t.Fatalf("Reissue: %v", err)
	}
	if err := w.PushUpdate(pub, netsim.Paris); err != nil {
		t.Fatalf("PushUpdate: %v", err)
	}

	// A Paris client sees v2 from its local replica, fully verified.
	client := w.NewSecureClient(netsim.Paris)
	t.Cleanup(client.Close)
	res, err := client.Fetch(context.Background(), pub.OID, "index.html")
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Element.Data) != "v2 content" {
		t.Errorf("Data = %q", res.Element.Data)
	}
	if res.ReplicaAddr != "paris:"+deploy.ObjectService {
		t.Errorf("ReplicaAddr = %q", res.ReplicaAddr)
	}
}

// TestReissueWhilePutting: the owner keeps writing while it reissues.
// Each reissue's certificate and bundle come from one snapshot of the
// document, so the home replica accepts every one, and so does a
// replica PushUpdate sends the certified state to, however many writes
// land during the signature or between the two calls.
func TestReissueWhilePutting(t *testing.T) {
	w := newWorld(t)
	for site, name := range map[string]string{netsim.AmsterdamPrimary: "srv", netsim.Paris: "srv-p"} {
		if _, err := w.StartServer(site, name, nil, nil, server.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	doc := simpleDoc(t, "v0")
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "a.nl", OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateTo(pub, netsim.Paris); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := doc.Put(document.Element{Name: "index.html", Data: []byte(fmt.Sprintf("v%d", i))}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for i := 0; i < 20; i++ {
		if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
			t.Fatalf("reissue %d: %v", i, err)
		}
		if err := w.PushUpdate(pub, netsim.Paris); err != nil {
			t.Fatalf("push %d: %v", i, err)
		}
	}
}

func TestPushUpdateUnknownSite(t *testing.T) {
	w := newWorld(t)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	pub, err := w.Publish(simpleDoc(t, "x"), deploy.PublishOptions{Name: "a.nl", OwnerKey: keytest.Ed()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.PushUpdate(pub, "atlantis"); err == nil {
		t.Fatal("PushUpdate to unknown site succeeded")
	}
	if err := w.ReplicateTo(pub, "atlantis"); err == nil {
		t.Fatal("ReplicateTo unknown site succeeded")
	}
}

func TestPublishDefaultsAndAnonymous(t *testing.T) {
	w := newWorld(t)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	// No Name: the object exists only by OID (no naming registration).
	pub, err := w.Publish(simpleDoc(t, "anon"), deploy.PublishOptions{OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	if pub.NameCert != nil {
		t.Error("anonymous publish has a name certificate")
	}
	client := w.NewSecureClient(netsim.Ithaca)
	t.Cleanup(client.Close)
	if _, err := client.Fetch(context.Background(), pub.OID, "index.html"); err != nil {
		t.Fatalf("Fetch by OID: %v", err)
	}
}

func TestDuplicateServerSite(t *testing.T) {
	w := newWorld(t)
	if _, err := w.StartServer(netsim.Paris, "a", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.StartServer(netsim.Paris, "b", nil, nil, server.Limits{}); err == nil {
		t.Fatal("second server on same site/service succeeded")
	}
}
