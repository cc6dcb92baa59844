package proxy_test

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/httpbase"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/proxy"
	"globedoc/internal/server"
	"globedoc/internal/transport"
	"globedoc/internal/vcache"
)

// proxyWorld publishes a document and runs a proxy for a Paris user; it
// returns the world and an http.Client that routes everything through the
// proxy (as a browser configured with an HTTP proxy would).
func proxyWorld(t *testing.T) (*deploy.World, *proxy.Proxy, *http.Client) {
	t.Helper()
	return proxyWorldOpts(t, core.Options{CacheBindings: true})
}

// proxyWorldOpts is proxyWorld with caller-chosen secure-client options.
func proxyWorldOpts(t testing.TB, opts core.Options) (*deploy.World, *proxy.Proxy, *http.Client) {
	t.Helper()
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	doc.Put(document.Element{Name: "index.html", Data: []byte("<html>secure home</html>")})
	doc.Put(document.Element{Name: "img/logo.png", Data: []byte{1, 2, 3}})
	if _, err := w.Publish(doc, deploy.PublishOptions{
		Name: "home.vu.nl", Subject: "Vrije Universiteit", OwnerKey: keytest.RSA(),
	}); err != nil {
		t.Fatal(err)
	}

	secure, err := w.NewSecureClientOpts(netsim.Paris, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(secure.Close)
	p := proxy.New(secure)
	p.PassthroughDial = func(host string) transport.DialFunc {
		return w.Net.Dialer(netsim.Paris, host+":http")
	}

	pl, err := w.Net.Listen(netsim.Paris, "proxy")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- p.Serve(pl) }()
	t.Cleanup(func() {
		if err := p.Shutdown(context.Background()); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v after Shutdown, want http.ErrServerClosed", err)
		}
	})

	// The browser is configured to use the proxy for everything, like
	// the paper's wget runs: requests arrive in absolute-URI form.
	proxyURL, err := url.Parse("http://paris-proxy")
	if err != nil {
		t.Fatal(err)
	}
	tr := &http.Transport{
		Proxy: http.ProxyURL(proxyURL),
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return w.Net.Dial(netsim.Paris, "paris:proxy")
		},
	}
	t.Cleanup(tr.CloseIdleConnections)
	return w, p, &http.Client{Transport: tr}
}

func TestProxyServesVerifiedElement(t *testing.T) {
	_, p, browser := proxyWorld(t)
	resp, err := browser.Get("http://proxy" + proxy.HybridURL("home.vu.nl", "index.html"))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "<html>secure home</html>" {
		t.Errorf("body = %q", body)
	}
	if got := resp.Header.Get(proxy.HeaderCertifiedAs); got != "Vrije Universiteit" {
		t.Errorf("Certified-As = %q", got)
	}
	if resp.Header.Get(proxy.HeaderReplica) == "" {
		t.Error("Replica header missing")
	}
	ok, failed, _ := p.Counters()
	if ok != 1 || failed != 0 {
		t.Errorf("counters = %d ok, %d failed", ok, failed)
	}
}

func TestProxyCacheHeader(t *testing.T) {
	// With the verified-content cache enabled, the second request for the
	// same element is served from memory and marked X-GlobeDoc-Cache: hit.
	_, _, browser := proxyWorldOpts(t, core.Options{
		CacheBindings: true,
		VCache:        vcache.New(vcache.Config{}),
	})
	url := "http://proxy" + proxy.HybridURL("home.vu.nl", "index.html")

	first, err := browser.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	firstBody, _ := io.ReadAll(first.Body)
	first.Body.Close()
	if got := first.Header.Get(proxy.HeaderCache); got != "" {
		t.Errorf("cold request: %s = %q, want unset", proxy.HeaderCache, got)
	}

	second, err := browser.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if got := second.Header.Get(proxy.HeaderCache); got != "hit" {
		t.Errorf("warm request: %s = %q, want \"hit\"", proxy.HeaderCache, got)
	}
	secondBody, _ := io.ReadAll(second.Body)
	if string(secondBody) != string(firstBody) {
		t.Errorf("cached body %q differs from first fetch %q", secondBody, firstBody)
	}
}

func TestProxySlashElementName(t *testing.T) {
	_, _, browser := proxyWorld(t)
	resp, err := browser.Get("http://proxy" + proxy.HybridURL("home.vu.nl", "img/logo.png"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) != 3 {
		t.Errorf("body = %v", body)
	}
}

func TestProxySecurityFailedPage(t *testing.T) {
	_, p, browser := proxyWorld(t)
	// Unknown object: resolution fails; unknown element of a known
	// object would fail later in the pipeline.
	resp, err := browser.Get("http://proxy" + proxy.HybridURL("ghost.vu.nl", "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("unknown object served OK")
	}
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "GlobeDoc") {
		t.Errorf("error page = %q", body)
	}
	_, failed, _ := p.Counters()
	if failed != 1 {
		t.Errorf("failed counter = %d", failed)
	}
}

func TestProxyWarmBindingHeader(t *testing.T) {
	_, _, browser := proxyWorld(t)
	url := "http://proxy" + proxy.HybridURL("home.vu.nl", "index.html")
	first, err := browser.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	first.Body.Close()
	resp, err := browser.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get(proxy.HeaderWarm) != "true" {
		t.Error("second fetch not warm")
	}
}

func TestProxyPassthrough(t *testing.T) {
	w, p, browser := proxyWorld(t)
	// A plain HTTP origin at ithaca.
	origin := document.New()
	origin.Put(document.Element{Name: "plain.html", Data: []byte("plain old web")})
	ol, err := w.Net.Listen(netsim.Ithaca, "http")
	if err != nil {
		t.Fatal(err)
	}
	fs := httpbase.NewFileServer(origin)
	fs.Start(ol)
	t.Cleanup(fs.Close)

	resp, err := browser.Get("http://ithaca/plain.html")
	if err != nil {
		t.Fatalf("passthrough GET: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if string(body) != "plain old web" {
		t.Errorf("body = %q", body)
	}
	_, _, pass := p.Counters()
	if pass != 1 {
		t.Errorf("passthrough counter = %d", pass)
	}
}

func TestProxyRejectsRelativeNonHybrid(t *testing.T) {
	_, _, browser := proxyWorld(t)
	resp, err := browser.Get("http://proxy/not-globedoc.html")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("non-hybrid relative path served OK")
	}
}

func TestProxyObjectIndexPage(t *testing.T) {
	_, _, browser := proxyWorld(t)
	resp, err := browser.Get("http://proxy/GlobeDoc/home.vu.nl/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %s", resp.Status)
	}
	body, _ := io.ReadAll(resp.Body)
	html := string(body)
	for _, want := range []string{"Index of GlobeDoc object home.vu.nl", "index.html", "img/logo.png", "valid until"} {
		if !strings.Contains(html, want) {
			t.Errorf("index page missing %q:\n%s", want, html)
		}
	}
	// The index links must themselves be fetchable hybrid URLs.
	ref, ok := document.ParseHybrid(proxy.HybridURL("home.vu.nl", "img/logo.png"))
	if !ok || ref.Element != "img/logo.png" {
		t.Errorf("index link does not parse: %+v", ref)
	}
}

func TestProxyIndexUnknownObject(t *testing.T) {
	_, _, browser := proxyWorld(t)
	resp, err := browser.Get("http://proxy/GlobeDoc/ghost.vu.nl/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("index of unknown object served OK")
	}
}

func TestProxyConditionalGet(t *testing.T) {
	_, _, browser := proxyWorld(t)
	url := "http://proxy" + proxy.HybridURL("home.vu.nl", "index.html")
	first, err := browser.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, first.Body)
	first.Body.Close()
	etag := first.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on verified response")
	}

	req, _ := http.NewRequest(http.MethodGet, url, nil)
	req.Header.Set("If-None-Match", etag)
	second, err := browser.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Body.Close()
	if second.StatusCode != http.StatusNotModified {
		t.Fatalf("status = %s, want 304", second.Status)
	}
	body, _ := io.ReadAll(second.Body)
	if len(body) != 0 {
		t.Errorf("304 carried a body: %q", body)
	}

	// A stale ETag gets the full body again.
	req2, _ := http.NewRequest(http.MethodGet, url, nil)
	req2.Header.Set("If-None-Match", `"deadbeef"`)
	third, err := browser.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer third.Body.Close()
	if third.StatusCode != http.StatusOK {
		t.Fatalf("status = %s, want 200", third.Status)
	}
}

// TestProxyETagIsTheVerifiedHash is the golden test for the ETag now
// that it is the hash core verified and no longer a second SHA-1 of the
// body: on a content-cache miss, on a hit, and on an element that entered
// the cache through FetchAll's batch prefetch, it is byte for byte what
// the old fmt.Sprintf("%q", fmt.Sprintf("%x", sha1(body))) produced, and
// If-None-Match on it answers 304.
func TestProxyETagIsTheVerifiedHash(t *testing.T) {
	w, p, browser := proxyWorldOpts(t, core.Options{
		CacheBindings: true,
		VCache:        vcache.New(vcache.Config{}),
	})
	album := document.New()
	album.Put(document.Element{Name: "a.jpg", Data: []byte("first photograph")})
	album.Put(document.Element{Name: "b.jpg", Data: []byte("second photograph")})
	pub, err := w.Publish(album, deploy.PublishOptions{Name: "album.vu.nl", OwnerKey: keytest.Ed()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Secure.FetchAll(context.Background(), pub.OID); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		what, object, element, body, cache string
	}{
		{"content-cache miss", "home.vu.nl", "index.html", "<html>secure home</html>", ""},
		{"content-cache hit", "home.vu.nl", "index.html", "<html>secure home</html>", "hit"},
		{"FetchAll-prefetched element", "album.vu.nl", "b.jpg", "second photograph", "hit"},
	} {
		url := "http://proxy" + proxy.HybridURL(tc.object, tc.element)
		resp, err := browser.Get(url)
		if err != nil {
			t.Fatalf("%s: %v", tc.what, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || string(body) != tc.body {
			t.Fatalf("%s: %s, body %q", tc.what, resp.Status, body)
		}
		if got := resp.Header.Get(proxy.HeaderCache); got != tc.cache {
			t.Errorf("%s: %s = %q, want %q", tc.what, proxy.HeaderCache, got, tc.cache)
		}
		golden := fmt.Sprintf("%q", fmt.Sprintf("%x", globeid.HashElement(body)))
		if got := resp.Header.Get("ETag"); got != golden {
			t.Errorf("%s: ETag = %s, want %s", tc.what, got, golden)
		}
		req, _ := http.NewRequest(http.MethodGet, url, nil)
		req.Header.Set("If-None-Match", golden)
		cond, err := browser.Do(req)
		if err != nil {
			t.Fatalf("%s: conditional GET: %v", tc.what, err)
		}
		cond.Body.Close()
		if cond.StatusCode != http.StatusNotModified {
			t.Errorf("%s: If-None-Match answered %s, want 304", tc.what, cond.Status)
		}
	}
}

func TestHybridURLHelper(t *testing.T) {
	if got := proxy.HybridURL("a.nl", "x.html"); got != "/GlobeDoc/a.nl/x.html" {
		t.Errorf("HybridURL = %q", got)
	}
	if got := proxy.HybridURL("a.nl", "img/x.png"); got != "/GlobeDoc/a.nl!img/x.png" {
		t.Errorf("HybridURL = %q", got)
	}
	for _, c := range []struct{ obj, elem string }{
		{"a.nl", "x.html"}, {"a.nl", "img/x.png"}, {"deep/name", "e.css"},
	} {
		ref, ok := document.ParseHybrid(proxy.HybridURL(c.obj, c.elem))
		if !ok || ref.ObjectName != c.obj || ref.Element != c.elem {
			t.Errorf("round trip %v -> %+v ok=%v", c, ref, ok)
		}
	}
}

// TestProxyShutdownStopsServe: Shutdown makes a running Serve return
// http.ErrServerClosed with a keep-alive connection left idle, and a
// Serve after it returns the same at once, closing its listener.
func TestProxyShutdownStopsServe(t *testing.T) {
	w, p, browser := proxyWorld(t)
	resp, err := browser.Get("http://proxy" + proxy.HybridURL("home.vu.nl", "index.html"))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := p.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown with an idle keep-alive connection: %v", err)
	}
	l, err := w.Net.Listen(netsim.Paris, "proxy-late")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Serve(l); err != http.ErrServerClosed {
		t.Fatalf("Serve after Shutdown = %v, want http.ErrServerClosed", err)
	}
	if _, err := l.Accept(); err == nil {
		t.Error("Serve after Shutdown left its listener open")
	}
}
