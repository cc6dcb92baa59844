package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"globedoc/internal/cliflags"
	"globedoc/internal/keyfile"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/leakcheck"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// TestMain fails the package when a test leaves a goroutine running: a
// drain that left the proxy, its secure client or a service connection
// behind.
func TestMain(m *testing.M) { leakcheck.Main(m) }

// TestRunDrainsOnCancel: ending run's context — what SIGINT and SIGTERM
// do — while a browser request is in flight stops the proxy accepting,
// lets that request finish with a complete response, and only then
// returns, without error.
func TestRunDrainsOnCancel(t *testing.T) {
	// A naming service that holds every resolve until released: the
	// request is in flight from the moment the proxy dials it.
	naming, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { naming.Close() })
	arrived, release := make(chan struct{}, 1), make(chan struct{})
	releaseAll := sync.OnceFunc(func() { close(release) })
	t.Cleanup(releaseAll)
	go func() {
		for {
			c, err := naming.Accept()
			if err != nil {
				return
			}
			select {
			case arrived <- struct{}{}:
			default:
			}
			go func() { <-release; c.Close() }()
		}
	}()

	rootKey := filepath.Join(t.TempDir(), "root.pub")
	if err := keyfile.SavePublicKey(rootKey, keytest.Ed().Public()); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New(nil)
	cfg := config{
		namingAddr: naming.Addr().String(), rootKey: rootKey, locAddr: naming.Addr().String(),
		warm: true, client: transport.Config{Telemetry: tel}, cache: &cliflags.CacheFlags{},
		fetchTimeout: 10 * time.Second, tel: tel, debug: &cliflags.DebugFlags{TraceSample: 1},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- run(ctx, l, cfg) }()

	type reply struct {
		status int
		err    error
	}
	got := make(chan reply, 1)
	browser := &http.Transport{}
	t.Cleanup(browser.CloseIdleConnections)
	go func() {
		resp, err := (&http.Client{Transport: browser}).Get("http://" + l.Addr().String() + "/GlobeDoc/home.vu.nl/index.html")
		if err != nil {
			got <- reply{err: err}
			return
		}
		_, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		got <- reply{status: resp.StatusCode, err: err}
	}()
	<-arrived
	cancel()
	// The drain has begun once the proxy refuses new connections.
	for {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			break
		}
		c.Close()
		time.Sleep(5 * time.Millisecond)
	}
	select {
	case err := <-ran:
		t.Fatalf("run returned %v while a request was in flight", err)
	case <-time.After(50 * time.Millisecond):
	}

	releaseAll() // the resolve fails and the fetch ends with an error page
	if r := <-got; r.err != nil || r.status != http.StatusBadGateway {
		t.Fatalf("in-flight request: status %d, err %v; want a complete %d page", r.status, r.err, http.StatusBadGateway)
	}
	select {
	case err := <-ran:
		if err != nil {
			t.Fatalf("run after a drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return once the request in flight had finished")
	}
}
