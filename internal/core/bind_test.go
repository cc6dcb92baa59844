package core_test

// Coverage for the one request shape a client sends a replica, obj.bind:
// a cold bind brings the key, the certificates and the wanted elements
// from one version, the steps it served record zero-length spans, and a
// warm one names the certificate it holds, so an owner update reaches a
// warm client as a moved certificate rather than as tampering.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/location"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/telemetry"
	"globedoc/internal/vcache"
)

// securityPhases are the phases security_check_failures_total counts.
var securityPhases = []string{"self-certification", "identity-certificate", "integrity-certificate", "element", "freshness"}

// frontReplica stands a deploy.StartFront front in front of w's
// Amsterdam replica and has the location service name the front instead
// of the replica. It returns the front's address.
func frontReplica(t *testing.T, w *deploy.World, pub *deploy.Publication, serve func(object.BindRequest, func() ([]byte, error)) ([]byte, error)) string {
	t.Helper()
	stop, err := deploy.StartFront(w.Net, netsim.AmsterdamPrimary, "front", w.Addrs[netsim.AmsterdamPrimary], serve)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(stop)
	replica := location.ContactAddress{Address: w.Addrs[netsim.AmsterdamPrimary], Protocol: object.Protocol}
	if err := w.LocationTree.Delete(netsim.AmsterdamPrimary, pub.OID, replica); err != nil {
		t.Fatal(err)
	}
	addr := location.ContactAddress{Address: netsim.AmsterdamPrimary + ":front", Protocol: object.Protocol}
	if err := w.LocationTree.Insert(netsim.AmsterdamPrimary, pub.OID, addr); err != nil {
		t.Fatal(err)
	}
	return addr.Address
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

// replicaRoundTrips counts the exchanges a client made with replicas —
// its obj.bind calls, refused ones included — from the telemetry only
// its replica connections report into. A connection's version
// negotiation rides its first call and is no exchange of its own.
func replicaRoundTrips(tel *telemetry.Telemetry) uint64 {
	return tel.RPCCalls.With(object.OpBind, "ok").Value() + tel.RPCCalls.With(object.OpBind, "error").Value()
}

// noFailures fails t unless the client failed over nowhere and refused
// nothing.
func noFailures(t *testing.T, tel *telemetry.Telemetry) {
	t.Helper()
	if got := tel.Failovers.Value(); got != 0 {
		t.Errorf("failovers_total = %d, want 0", got)
	}
	for _, phase := range securityPhases {
		if got := tel.SecurityCheckFailures.With(phase).Value(); got != 0 {
			t.Errorf("security_check_failures_total{phase=%q} = %d, want 0", phase, got)
		}
	}
}

// fetchOne runs Fetch of name as a one-result operation.
func fetchOne(name string) func(context.Context, *core.Client, globeid.OID) ([]core.FetchResult, error) {
	return func(ctx context.Context, c *core.Client, oid globeid.OID) ([]core.FetchResult, error) {
		res, err := c.Fetch(ctx, oid, name)
		if err != nil {
			return nil, err
		}
		return []core.FetchResult{res}, nil
	}
}

// fetchAll runs FetchAll.
func fetchAll(ctx context.Context, c *core.Client, oid globeid.OID) ([]core.FetchResult, error) {
	return c.FetchAll(ctx, oid)
}

// TestColdBindIsOneReplicaExchange: a cold Fetch or FetchAll makes
// exactly one exchange with the replica, obj.bind, whose first flight
// also negotiates the connection, and every fetch step it served is
// traced as served by it.
func TestColdBindIsOneReplicaExchange(t *testing.T) {
	const n = 3
	w, pub, _ := batchWorld(t, n)
	for name, run := range map[string]func(context.Context, *core.Client, globeid.OID) ([]core.FetchResult, error){
		"Fetch":    fetchOne("part-01.html"),
		"FetchAll": fetchAll,
	} {
		t.Run(name, func(t *testing.T) {
			tel := telemetry.New(nil)
			client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Telemetry: tel})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(client.Close)
			results, err := run(context.Background(), client, pub.OID)
			if err != nil {
				t.Fatal(err)
			}
			if got := tel.RPCCalls.With(object.OpBind, "ok").Value(); got != 1 {
				t.Errorf("obj.bind calls = %d, want 1", got)
			}
			if got := replicaRoundTrips(tel); got != 1 {
				t.Errorf("replica round trips = %d, want 1: obj.bind", got)
			}
			if got := tel.Negotiations.With("v2").Value(); got != 1 {
				t.Errorf("negotiations{v2} = %d, want 1, inside obj.bind's exchange", got)
			}
			fromBind := map[string]int{}
			for _, s := range tel.Ring.Spans() {
				switch s.Name {
				case core.StepKeyFetch, core.StepNameCertFetch, core.StepCertFetch, core.StepElementFetch:
					fromBind[s.Name]++
				}
			}
			want := map[string]int{core.StepKeyFetch: 1, core.StepNameCertFetch: 1, core.StepCertFetch: 1, core.StepElementFetch: len(results)}
			if fmt.Sprint(fromBind) != fmt.Sprint(want) {
				t.Errorf("steps served by the bind = %v, want %v", fromBind, want)
			}
			for _, res := range results {
				if res.Timing.ElementFetch <= 0 {
					t.Errorf("%s credited no share of the bind exchange", res.Element.Name)
				}
			}
		})
	}
}

// updatePart00 is the owner update the warm-update tests make: new bytes
// for part-00.html, re-signed and installed on the home replica. It
// returns the new bytes. The certificate is dated a second back, so a
// client whose clock was read just before the update already finds it
// valid.
func updatePart00(t *testing.T, w *deploy.World, pub *deploy.Publication) []byte {
	t.Helper()
	data := []byte("<p>element 0, updated</p>")
	if err := pub.Doc.Put(document.Element{Name: "part-00.html", Data: data}); err != nil {
		t.Error(err)
	}
	if err := w.Reissue(pub, time.Hour, time.Now().Add(-time.Second)); err != nil {
		t.Error(err)
	}
	return data
}

// TestUpdateDuringColdBindIsNotTampering: an honest replica whose owner
// updates it while a client binds must not be charged as a tamperer. The
// update lands right after the replica's certificate-bearing reply has
// been sent; with the certificate and the element fetched separately the
// element would come from the new version and fail the old certificate's
// hash, failing over away from an honest replica — and failing the fetch
// outright when it is the only one.
func TestUpdateDuringColdBindIsNotTampering(t *testing.T) {
	w, pub, _ := batchWorld(t, 2)
	original, err := pub.Doc.Get("part-00.html")
	if err != nil {
		t.Fatal(err)
	}
	var once sync.Once
	frontReplica(t, w, pub, rewriting(func(_ object.BindRequest, reply []byte) []byte {
		once.Do(func() { updatePart00(t, w, pub) })
		return reply
	}))
	tel := telemetry.New(nil)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	res, err := client.Fetch(context.Background(), pub.OID, "part-00.html")
	if err != nil {
		t.Fatalf("fetch from an honest replica updated mid-bind: %v (failovers_total %d)", err, tel.Failovers.Value())
	}
	if !bytes.Equal(res.Element.Data, original.Data) {
		t.Errorf("Data = %q, want the version the certificate vouched for", res.Element.Data)
	}
	noFailures(t, tel)
}

// TestWarmFetchAfterOwnerUpdate: a client holding a warm binding fetches
// an element the owner changed after the binding was made. The replica
// answers from its new head, and the client must take that as the newer
// version it is — the new bytes, from the only replica, with nothing
// failed over and no check failed.
func TestWarmFetchAfterOwnerUpdate(t *testing.T) {
	w, pub, _ := batchWorld(t, 2)
	tel := telemetry.New(nil)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true, Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	if _, err := client.Fetch(context.Background(), pub.OID, "part-01.html"); err != nil {
		t.Fatal(err)
	}
	updated := []byte("<p>element 0, updated</p>")
	if err := pub.Doc.Put(document.Element{Name: "part-00.html", Data: updated}); err != nil {
		t.Fatal(err)
	}
	if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}

	res, err := client.Fetch(context.Background(), pub.OID, "part-00.html")
	if err != nil {
		t.Fatalf("warm fetch after an owner update: %v (failovers_total %d)", err, tel.Failovers.Value())
	}
	if !bytes.Equal(res.Element.Data, updated) || !res.WarmBinding {
		t.Errorf("Data = %q (warm %v), want the updated bytes over the warm binding", res.Element.Data, res.WarmBinding)
	}
	if got := tel.Failovers.Value(); got != 0 {
		t.Errorf("failovers_total = %d, want 0", got)
	}
	if got := tel.SecurityCheckFailures.With("element").Value(); got != 0 {
		t.Errorf(`security_check_failures_total{phase="element"} = %d, want 0`, got)
	}
}

// TestWarmUpdateMatrix: whenever an owner update lands relative to a warm
// operation's exchanges — before it starts, while its first exchange is
// in flight, or between that exchange, which declines part-00.html, and
// the one that then asks for it alone — Fetch and FetchAll, with or
// without the verified-content cache, end with the updated bytes, having
// failed over nowhere and refused nothing. The binding is warmed by a
// fetch of part-01.html, which the update leaves alone.
func TestWarmUpdateMatrix(t *testing.T) {
	ops := map[string]func(context.Context, *core.Client, globeid.OID) ([]core.FetchResult, error){
		"Fetch":    fetchOne("part-00.html"),
		"FetchAll": fetchAll,
	}
	for _, when := range []string{"before", "during", "between"} {
		for opName, op := range ops {
			for _, cached := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/%s/vcache=%v", when, opName, cached), func(t *testing.T) {
					w, pub, _ := batchWorld(t, 3)
					var armed, once sync.Once
					var updated []byte
					update := func() { once.Do(func() { updated = updatePart00(t, w, pub) }) }
					var live atomic.Bool // the operation under test has begun
					frontReplica(t, w, pub, func(req object.BindRequest, forward func() ([]byte, error)) ([]byte, error) {
						if !live.Load() || req.Have == ([globeid.Size]byte{}) {
							return forward()
						}
						switch when {
						case "during":
							update()
						case "between":
							reply, err := forward()
							armed.Do(func() { reply = decline(t, reply, "part-00.html"); update() })
							return reply, err
						}
						return forward()
					})
					opts := core.Options{CacheBindings: true, Telemetry: telemetry.New(nil)}
					if cached {
						opts.VCache = vcache.New(vcache.Config{})
					}
					client, err := w.NewSecureClientOpts(netsim.Paris, opts)
					if err != nil {
						t.Fatal(err)
					}
					t.Cleanup(client.Close)
					if _, err := client.Fetch(context.Background(), pub.OID, "part-01.html"); err != nil {
						t.Fatal(err)
					}
					if when == "before" {
						update()
					}
					live.Store(true)

					results, err := op(context.Background(), client, pub.OID)
					if err != nil {
						t.Fatalf("%s with an update %s it: %v", opName, when, err)
					}
					var got []byte
					for _, res := range results {
						if res.Element.Name == "part-00.html" {
							got = res.Element.Data
						}
					}
					if updated == nil || !bytes.Equal(got, updated) {
						t.Errorf("part-00.html = %q, want the updated %q", got, updated)
					}
					if opName == "FetchAll" && len(results) != 3 {
						t.Errorf("FetchAll returned %d elements, want 3", len(results))
					}
					noFailures(t, opts.Telemetry)
				})
			}
		}
	}
}

// decline re-encodes a genuine bind reply with name declined, as a
// replica whose reply outgrew its frame budget declines it.
func decline(t *testing.T, reply []byte, name string) []byte {
	t.Helper()
	return rewriteItems(t, reply, func(it object.BatchItem) object.BatchWireItem {
		if it.Err != nil || it.Name == name {
			return object.BatchWireItem{Name: it.Name, ErrMsg: "batch response frame budget exceeded; ask for it again in the next exchange"}
		}
		return object.BatchWireItem{Name: it.Name, Wire: object.EncodeElement(it.Element)}
	})
}

// rewriteItems re-encodes a genuine bind reply with every item passed
// through rewrite.
func rewriteItems(t *testing.T, reply []byte, rewrite func(object.BatchItem) object.BatchWireItem) []byte {
	t.Helper()
	r, err := object.DecodeBindReply(reply)
	if err != nil {
		t.Error(err)
		return reply
	}
	items := make([]object.BatchWireItem, len(r.Items))
	for i, it := range r.Items {
		items[i] = rewrite(it)
	}
	return object.EncodeBindReply(r.Key, r.NameCerts, r.Cert, items)
}

// TestDeclinedBindIsNoBatch: an all-elements bind whose every item the
// replica declined carried no element, so it is not FetchAll's batch; the
// one warm exchange that then asks for the elements is, and
// batch_fetch_total counts one.
func TestDeclinedBindIsNoBatch(t *testing.T) {
	const n = 3
	w, pub, _ := batchWorld(t, n)
	var once sync.Once
	frontReplica(t, w, pub, rewriting(func(_ object.BindRequest, reply []byte) []byte {
		once.Do(func() {
			for i := 0; i < n; i++ {
				reply = decline(t, reply, fmt.Sprintf("part-%02d.html", i))
			}
		})
		return reply
	}))
	tel := telemetry.New(nil)
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)

	results, err := client.FetchAll(context.Background(), pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("FetchAll returned %d elements, want %d", len(results), n)
	}
	if got := tel.RPCCalls.With(object.OpBind, "ok").Value(); got != 2 {
		t.Errorf("obj.bind calls = %d, want 2: the declined bind and one exchange for the elements", got)
	}
	if got := tel.BatchFetches.Value(); got != 1 {
		t.Errorf("batch_fetch_total = %d, want 1", got)
	}
	if got := tel.BatchElements.Value(); got != n {
		t.Errorf("batch_fetch_elements_total = %d, want %d", got, n)
	}
}
