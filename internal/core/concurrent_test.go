package core_test

// Race-detector coverage for the concurrent fetch engine: many
// goroutines sharing one secure client across cold, warm and failover
// fetches, with singleflight deduplication asserted through the
// telemetry counters and binding lifetimes asserted through the
// connection-pool gauge. Run with -race (make check does).

import (
	"bytes"
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/location"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
	"globedoc/internal/workload"
)

// concurrentWorld publishes one two-element document with replicas at
// amsterdam-primary and paris, with tight transport deadlines and a
// retry policy so injected faults cost retries, not hangs. pool bounds
// every client's connection pool (0 = transport.DefaultMaxConns).
func concurrentWorld(t *testing.T, pool int) (*deploy.World, *deploy.Publication, *telemetry.Telemetry) {
	t.Helper()
	tel := telemetry.New(nil)
	w, err := deploy.NewWorld(deploy.Options{
		TimeScale: 0,
		Client: transport.Config{
			DialTimeout: 300 * time.Millisecond,
			CallTimeout: 300 * time.Millisecond,
			Retry: &transport.RetryPolicy{
				MaxAttempts: 4,
				BaseDelay:   time.Millisecond,
				MaxDelay:    20 * time.Millisecond,
				Multiplier:  2,
				Jitter:      0.5,
			},
			Pool: transport.PoolConfig{MaxConns: pool},
		},
		Telemetry: tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	for _, site := range []string{netsim.AmsterdamPrimary, netsim.Paris} {
		if _, err := w.StartServer(site, "srv-"+site, nil, nil, server.Limits{}); err != nil {
			t.Fatal(err)
		}
	}
	doc := document.New()
	doc.Put(document.Element{Name: "index.html", ContentType: "text/html",
		Data: []byte("<html>concurrent home</html>")})
	doc.Put(document.Element{Name: "data.bin", Data: []byte("0123456789abcdef")})
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name:     "concurrent.vu.nl",
		OwnerKey: keytest.RSA(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateTo(pub, netsim.Paris); err != nil {
		t.Fatal(err)
	}
	return w, pub, tel
}

// gatedSelector holds the one fetch that runs the binding pipeline at its
// ranking step until release is closed. Only the pipeline leader ranks
// candidates, so the flight stays open for as long as the gate is shut.
type gatedSelector struct {
	core.HealthRankedSelector
	release <-chan struct{}
}

func (g gatedSelector) Rank(candidates []location.ContactAddress, health *telemetry.HealthTracker) []location.ContactAddress {
	<-g.release
	return g.HealthRankedSelector.Rank(candidates, health)
}

// flightFollowers counts the goroutines inside core.(*Client).joinFlight,
// read off a stack dump: a fetch there holds the leader's flight and can
// only finish by sharing its outcome.
func flightFollowers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return bytes.Count(buf, []byte("core.(*Client).joinFlight("))
}

func TestConcurrentColdBurstSingleflight(t *testing.T) {
	w, pub, tel := concurrentWorld(t, 16)
	release := make(chan struct{})
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		CacheBindings: true,
		Selector:      gatedSelector{release: release},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	runsBefore := tel.PipelineRuns.Value()
	const workers = 16
	var wg sync.WaitGroup
	results := make([]core.FetchResult, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = client.Fetch(context.Background(), pub.OID, "index.html")
		}(i)
	}
	// The leader's pipeline waits at the gate until every other worker
	// has joined its flight. Without that a worker the scheduler starts
	// after the leader has finished (TimeScale 0: microseconds) finds the
	// binding warm and never shares, and the count below is off by it.
	for deadline := time.Now().Add(10 * time.Second); flightFollowers() < workers-1; {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("%d of %d workers joined the leader's flight within 10s", flightFollowers(), workers-1)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		if string(results[i].Element.Data) != "<html>concurrent home</html>" {
			t.Fatalf("worker %d got %q", i, results[i].Element.Data)
		}
	}
	if runs := tel.PipelineRuns.Value() - runsBefore; runs != 1 {
		t.Errorf("cold burst ran %d binding pipelines, want exactly 1 (singleflight)", runs)
	}
	if shared := tel.SingleflightShared.Value(); shared != workers-1 {
		t.Errorf("binding_singleflight_shared_total = %d, want %d", shared, workers-1)
	}
	// Every worker but the pipeline leader must report a shared or warm
	// binding; the leader reports a cold one.
	cold := 0
	for _, res := range results {
		if !res.SharedBinding && !res.WarmBinding {
			cold++
		}
	}
	if cold != 1 {
		t.Errorf("%d workers report a cold unshared binding, want exactly 1 (the leader)", cold)
	}
}

func TestConcurrentFetchColdWarmFailoverUnderFaults(t *testing.T) {
	// Eight goroutines share a client across cold fetches (periodic
	// flushes), warm fetches, and a mid-run replica crash forcing
	// failover — all under seeded link faults. The invariant is safety
	// and liveness, race-clean: every fetch either succeeds with the
	// published bytes or fails cleanly, and after the crash fetches
	// recover via the surviving replica.
	w, pub, _ := concurrentWorld(t, 8)
	w.Net.SetFaultSeed(20050404)
	lossy := netsim.FaultPlan{DropProb: 0.05, StallProb: 0.05, Stall: 50 * time.Millisecond}
	w.Net.SetFaults(netsim.Paris, netsim.Paris, lossy)
	w.Net.SetFaults(netsim.Paris, netsim.AmsterdamPrimary, lossy)

	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		CacheBindings: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	const workers = 8
	const rounds = 12
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if worker == 0 && r == rounds/3 {
					// One worker flushes mid-run: later fetches re-bind
					// cold while others may still be warm.
					client.Close()
				}
				if worker == 1 && r == rounds/2 {
					// The nearest replica crashes mid-run.
					w.Servers[netsim.Paris].Close()
				}
				element := "index.html"
				if r%2 == 1 {
					element = "data.bin"
				}
				res, err := client.Fetch(context.Background(), pub.OID, element)
				if err != nil {
					// Faults can exhaust retries; that is a clean DoS,
					// not a correctness failure.
					continue
				}
				want, derr := pub.Doc.Get(element)
				if derr != nil {
					t.Errorf("published doc lost %q: %v", element, derr)
					return
				}
				if string(res.Element.Data) != string(want.Data) {
					t.Errorf("worker %d round %d: got %q, want %q",
						worker, r, res.Element.Data, want.Data)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	// Liveness after the crash: with faults cleared, a fetch must
	// succeed via the surviving amsterdam replica.
	w.Net.SetFaults(netsim.Paris, netsim.Paris, netsim.FaultPlan{})
	w.Net.SetFaults(netsim.Paris, netsim.AmsterdamPrimary, netsim.FaultPlan{})
	client.Close()
	res, err := client.Fetch(context.Background(), pub.OID, "index.html")
	if err != nil {
		t.Fatalf("fetch after replica crash and fault clearing: %v", err)
	}
	if res.ReplicaAddr != netsim.AmsterdamPrimary+":"+deploy.ObjectService {
		t.Errorf("ReplicaAddr = %q, want surviving amsterdam replica", res.ReplicaAddr)
	}
}

func TestConcurrentFetchAllSharedBinding(t *testing.T) {
	// FetchAll from many goroutines at once: singleflight across calls,
	// one pipeline total.
	w, pub, tel := concurrentWorld(t, 16)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	runsBefore := tel.PipelineRuns.Value()
	const workers = 6
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results, err := client.FetchAll(context.Background(), pub.OID)
			if err != nil {
				t.Error(err)
				return
			}
			if len(results) != 2 {
				t.Errorf("FetchAll returned %d elements, want 2", len(results))
			}
		}()
	}
	wg.Wait()
	if runs := tel.PipelineRuns.Value() - runsBefore; runs != 1 {
		t.Errorf("concurrent FetchAll ran %d pipelines, want 1", runs)
	}
}

func TestClosedLoopDriverAgainstWorld(t *testing.T) {
	// The benchmark's closed-loop driver against a real deployment:
	// counts must add up and the client must stay race-clean.
	w, pub, _ := concurrentWorld(t, 4)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{
		CacheBindings: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	res := workload.RunClosedLoop(context.Background(), 4, 40,
		func(ctx context.Context, _, _ int) error {
			_, err := client.Fetch(ctx, pub.OID, "index.html")
			return err
		})
	if res.FirstError != nil {
		t.Fatalf("closed loop error: %v", res.FirstError)
	}
	if res.Ops != 40 || res.Errors != 0 {
		t.Errorf("ops = %d errors = %d, want 40/0", res.Ops, res.Errors)
	}
	if res.Latency.N != 40 || res.Latency.Max < res.Latency.P50 {
		t.Errorf("latency stats inconsistent: %+v", res.Latency)
	}
}

func TestNoConnectionLeakOnColdFetch(t *testing.T) {
	// A non-caching client owns its binding per fetch: after each fetch
	// (success or failure) and Close, no pooled connection may survive.
	w, pub, _ := concurrentWorld(t, 0)
	// A dedicated telemetry on the binder's transport config isolates
	// the pool gauge to this client's replica connections.
	tel := telemetry.New(nil)
	binder := w.NewBinder(netsim.Paris)
	binder.Transport.Telemetry = tel
	client, err := core.NewClient(binder, core.Options{})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := client.Fetch(context.Background(), pub.OID, "index.html"); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Fetch(context.Background(), pub.OID, "no-such-element"); err == nil {
		t.Fatal("fetch of missing element succeeded")
	}
	if _, err := client.FetchAll(context.Background(), pub.OID); err != nil {
		t.Fatal(err)
	}
	client.Close()
	if conns := tel.PoolConns.Value(); conns != 0 {
		t.Errorf("transport_pool_conns = %d after cold fetches and Close, want 0 (binding leak)", conns)
	}
}

func TestNoConnectionLeakOnWarmRefresh(t *testing.T) {
	// The warm-refresh path (expired cached certificate) historically
	// leaked the replaced binding's connection. Fetch warm, expire the
	// certificate, refresh, then Close: the gauge must return to zero.
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	tel := telemetry.New(nil)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		t.Fatal(err)
	}
	doc := document.New()
	doc.Put(document.Element{Name: "a.html", Data: []byte("v1")})
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "leak.nl", TTL: time.Minute, OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	later := time.Now().Add(10 * time.Minute)
	warmed := false
	binder := w.NewBinder(netsim.Paris)
	binder.Transport.Telemetry = tel
	client, err := core.NewClient(binder, core.Options{
		CacheBindings: true,
		Now: func() time.Time {
			if warmed {
				return later
			}
			return time.Now()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	if _, err := client.Fetch(context.Background(), pub.OID, "a.html"); err != nil {
		t.Fatal(err)
	}
	if err := w.Reissue(pub, time.Hour, later); err != nil {
		t.Fatal(err)
	}
	warmed = true
	// The cached certificate is now expired; this fetch re-binds and
	// must close the stale binding it replaces.
	if _, err := client.Fetch(context.Background(), pub.OID, "a.html"); err != nil {
		t.Fatalf("fetch after reissue: %v", err)
	}
	client.Close()
	if conns := tel.PoolConns.Value(); conns != 0 {
		t.Errorf("transport_pool_conns = %d after warm refresh and Close, want 0 (binding leak)", conns)
	}
}

func TestFetchContextCancellationPropagates(t *testing.T) {
	// A cancelled context must abort an in-flight fetch promptly and
	// surface context.Canceled through the API. The replica dial blocks
	// until the test releases it, and the binder carries no dial or call
	// timeouts and no retry policy — the only thing that can unblock the
	// fetch is the context reaching the transport layer.
	w, pub, _ := concurrentWorld(t, 0)

	hang := make(chan struct{})
	t.Cleanup(func() { close(hang) })
	binder := w.NewBinder(netsim.Paris)
	binder.Transport = transport.Config{}
	binder.Dial = func(addr string) transport.DialFunc {
		return func() (net.Conn, error) {
			<-hang
			return nil, errors.New("dial released by test cleanup")
		}
	}
	client, err := core.NewClient(binder, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := client.Fetch(ctx, pub.OID, "index.html")
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled fetch returned %v, want context.Canceled", err)
		}
		if !errors.Is(err, core.ErrBindingFailed) {
			t.Errorf("cancelled fetch returned %v, want core.ErrBindingFailed wrapping", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			// The dial blocks forever; returning well before the test
			// timeout proves cancellation interrupted it.
			t.Errorf("cancelled fetch took %v, want prompt abort", elapsed)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled fetch never returned")
	}
}
