package deploy_test

// Integration scenario crossing every subsystem: a publisher with two
// cross-linked documents, CA identity, an HTTP proxy serving a browser,
// dynamic replication under load, a replica crash, owner updates with
// pull consistency, and a poisoned location entry pointing at a malicious
// replica — all in one running world.

import (
	"context"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"globedoc/internal/attack"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/location"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/proxy"
	"globedoc/internal/server"
)

func TestGrandIntegrationScenario(t *testing.T) {
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)

	// --- Infrastructure: primary with push identity, paris peer. ---
	primaryKey := keytest.Ed()
	primary, err := w.StartServer(netsim.AmsterdamPrimary, "srv-ams", nil, primaryKey, server.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	peerKS := keys.NewKeystore()
	peerKS.Add("srv-ams", primaryKey.Public())
	parisSrv, err := w.StartServer(netsim.Paris, "srv-paris", peerKS, nil, server.Limits{MaxBytes: 10 << 20})
	if err != nil {
		t.Fatal(err)
	}

	// --- Publisher: two documents, the home page linking the story. ---
	home := document.New()
	home.Put(document.Element{Name: "index.html", ContentType: "text/html",
		Data: []byte(`<html><a href="/GlobeDoc/story.vu.nl/text.html">story</a></html>`)})
	if _, err := w.Publish(home, deploy.PublishOptions{
		Name: "home.vu.nl", Subject: "Vrije Universiteit", OwnerKey: keytest.RSA(),
	}); err != nil {
		t.Fatal(err)
	}
	story := document.New()
	story.Put(document.Element{Name: "text.html", ContentType: "text/html",
		Data: []byte("<html>breaking story v1</html>")})
	storyPub, err := w.Publish(story, deploy.PublishOptions{
		Name: "story.vu.nl", Subject: "Vrije Universiteit", OwnerKey: keytest.RSA(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// --- Dynamic replication reacting to paris demand. ---
	server.NewReplicator(primary,
		[]server.Peer{{Site: netsim.Paris, Addr: w.Addrs[netsim.Paris]}},
		w.DialFrom(netsim.AmsterdamPrimary), w.LocationTree, 2, time.Minute)

	// --- Browser-facing proxy for a paris user. ---
	secure, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(secure.Close)
	px := proxy.New(secure)
	pl, err := w.Net.Listen(netsim.Paris, "proxy")
	if err != nil {
		t.Fatal(err)
	}
	go px.Serve(pl)
	t.Cleanup(func() {
		if err := px.Shutdown(context.Background()); err != nil {
			t.Errorf("proxy Shutdown: %v", err)
		}
	})
	proxyURL, _ := url.Parse("http://paris-proxy")
	tr := &http.Transport{
		Proxy: http.ProxyURL(proxyURL),
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return w.Net.Dial(netsim.Paris, "paris:proxy")
		},
	}
	t.Cleanup(tr.CloseIdleConnections)
	browser := &http.Client{Transport: tr}

	fetch := func(objectName, element string) (*http.Response, string) {
		t.Helper()
		resp, err := browser.Get("http://gw" + proxy.HybridURL(objectName, element))
		if err != nil {
			t.Fatalf("browser GET %s/%s: %v", objectName, element, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, string(body)
	}

	// 1. Browse home; follow the extracted link to the story.
	resp, homeBody := fetch("home.vu.nl", "index.html")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("home status %s", resp.Status)
	}
	if resp.Header.Get(proxy.HeaderCertifiedAs) != "Vrije Universiteit" {
		t.Errorf("Certified-As = %q", resp.Header.Get(proxy.HeaderCertifiedAs))
	}
	links := document.ExtractLinks([]byte(homeBody))
	if len(links) != 1 || links[0].Hybrid == nil {
		t.Fatalf("links = %+v", links)
	}
	resp, storyBody := fetch(links[0].Hybrid.ObjectName, links[0].Hybrid.Element)
	if resp.StatusCode != http.StatusOK || !strings.Contains(storyBody, "v1") {
		t.Fatalf("story = %s %q", resp.Status, storyBody)
	}

	// 2. Paris demand triggers dynamic replication of the story.
	for i := 0; i < 3; i++ {
		if _, err := secure.Fetch(context.Background(), storyPub.OID, "text.html"); err != nil {
			t.Fatal(err)
		}
	}
	if !parisSrv.Hosts(storyPub.OID) {
		t.Fatal("story not dynamically replicated to paris")
	}

	// 3. Owner updates the story; the paris replica pulls the update.
	story.Put(document.Element{Name: "text.html", ContentType: "text/html",
		Data: []byte("<html>breaking story v2 — corrected</html>")})
	if err := w.Reissue(storyPub, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}
	puller := server.NewPuller(parisSrv, storyPub.OID, "srv-ams",
		w.Addrs[netsim.AmsterdamPrimary], w.DialFrom(netsim.Paris), time.Minute)
	t.Cleanup(puller.Stop)
	pulled, err := puller.CheckOnce(context.Background())
	if err != nil || !pulled {
		t.Fatalf("pull = %v, %v", pulled, err)
	}
	secure.Close() // drop the cached pre-update binding
	resp, storyBody = fetch("story.vu.nl", "text.html")
	if !strings.Contains(storyBody, "v2") {
		t.Fatalf("story after update = %q (from %s)", storyBody, resp.Header.Get(proxy.HeaderReplica))
	}

	// 4. Poison the location service with a malicious replica CLOSER
	// than any honest one (the client's own site); the proxy must still
	// serve genuine content via failover.
	evilState := attack.ReplicaState{
		OID: storyPub.OID, Key: storyPub.OwnerKey.Public(),
		Doc: storyPub.Doc, Cert: storyPub.Cert,
	}
	evil := attack.NewMaliciousServer(attack.TamperContent, evilState)
	el, err := w.Net.Listen(netsim.Paris, "evil")
	if err != nil {
		t.Fatal(err)
	}
	evil.Start(el)
	t.Cleanup(evil.Close)
	if err := w.LocationTree.Insert(netsim.Paris, storyPub.OID,
		location.ContactAddress{Address: "paris:evil", Protocol: object.Protocol}); err != nil {
		t.Fatal(err)
	}
	secure.Close()
	resp, storyBody = fetch("story.vu.nl", "text.html")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status with poisoned location = %s", resp.Status)
	}
	if !strings.Contains(storyBody, "v2") {
		t.Fatalf("tampered content leaked through: %q", storyBody)
	}

	// 5. The paris object server crashes; fetches transparently fail
	// over to the primary (and the evil replica keeps being rejected).
	parisSrv.Close()
	secure.Close()
	resp, storyBody = fetch("story.vu.nl", "text.html")
	if resp.StatusCode != http.StatusOK || !strings.Contains(storyBody, "v2") {
		t.Fatalf("after crash: %s %q", resp.Status, storyBody)
	}
	if got := resp.Header.Get(proxy.HeaderReplica); got != netsim.AmsterdamPrimary+":"+deploy.ObjectService {
		t.Errorf("served from %q, want primary", got)
	}

	// 6. Wholly unknown objects still produce the failure page, and the
	// proxy's counters reflect the session.
	resp, _ = fetch("ghost.vu.nl", "x.html")
	if resp.StatusCode == http.StatusOK {
		t.Fatal("ghost object served OK")
	}
	ok, failed, _ := px.Counters()
	if ok == 0 || failed == 0 {
		t.Errorf("counters ok=%d failed=%d", ok, failed)
	}
}
