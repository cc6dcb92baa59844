package core_test

// Coverage for the cold binding's one replica exchange: obj.bind brings
// the key, the certificates and the wanted elements from one version, the
// steps it served record source=bind spans, and a replica that predates
// it is asked with the step RPCs for no more round trips than before.

import (
	"bytes"
	"context"
	"fmt"
	"sync"
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
	"globedoc/internal/transport"
)

// stepOps are the object operations a replica built before obj.bind
// serves.
var stepOps = []string{object.OpGetKey, object.OpGetCert, object.OpGetNameCerts, object.OpGetElement,
	object.OpGetElements, object.OpListElements, object.OpVersion, object.OpPing, object.OpGetBundle}

// securityPhases are the phases security_check_failures_total counts.
var securityPhases = []string{"self-certification", "identity-certificate", "integrity-certificate", "element", "freshness"}

// frontReplica stands a transport server in front of w's Amsterdam
// replica that forwards ops to it — calling after, when set, with the
// operation and each successful reply once it is back from the replica,
// and passing on what after returns — and has the location service name
// the front instead of the replica. It returns the front's address.
func frontReplica(t *testing.T, w *deploy.World, pub *deploy.Publication, ops []string, after func(op string, reply []byte) []byte) string {
	t.Helper()
	fwd := transport.NewClient(w.Net.Dialer(netsim.AmsterdamPrimary, w.Addrs[netsim.AmsterdamPrimary])).
		Configure(transport.Config{Telemetry: telemetry.New(nil)})
	t.Cleanup(fwd.Close)
	front := transport.NewServer()
	front.Telemetry = telemetry.New(nil)
	for _, op := range ops {
		front.HandleCtx(op, func(ctx context.Context, body []byte) ([]byte, error) {
			resp, err := fwd.Call(ctx, op, body)
			if err == nil && after != nil {
				resp = after(op, resp)
			}
			return resp, err
		})
	}
	l, err := w.Net.Listen(netsim.AmsterdamPrimary, "front")
	if err != nil {
		t.Fatal(err)
	}
	front.Start(l)
	t.Cleanup(front.Close)
	replica := location.ContactAddress{Address: w.Addrs[netsim.AmsterdamPrimary], Protocol: object.Protocol}
	if err := w.LocationTree.Delete(netsim.AmsterdamPrimary, pub.OID, replica); err != nil {
		t.Fatal(err)
	}
	addr := location.ContactAddress{Address: l.Addr().String(), Protocol: object.Protocol}
	if err := w.LocationTree.Insert(netsim.AmsterdamPrimary, pub.OID, addr); err != nil {
		t.Fatal(err)
	}
	return addr.Address
}

// replicaRoundTrips counts the exchanges a client made with replicas —
// its version negotiations and its object calls, refused ones included —
// from the telemetry only its replica connections report into.
func replicaRoundTrips(tel *telemetry.Telemetry) uint64 {
	n := tel.Negotiations.With("v2").Value() + tel.Negotiations.With("v1").Value()
	for _, op := range append([]string{object.OpBind}, stepOps...) {
		n += tel.RPCCalls.With(op, "ok").Value() + tel.RPCCalls.With(op, "error").Value()
	}
	return n
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

// TestColdBindIsOneReplicaExchange: after the connection's negotiation a
// cold Fetch or FetchAll makes exactly one exchange with the replica,
// obj.bind, and every fetch step it served is traced as served by it.
func TestColdBindIsOneReplicaExchange(t *testing.T) {
	const n = 3
	w, pub, _ := batchWorld(t, n)
	for name, run := range map[string]func(context.Context, *core.Client, globeid.OID) ([]core.FetchResult, error){
		"Fetch": fetchOne("part-01.html"),
		"FetchAll": func(ctx context.Context, c *core.Client, oid globeid.OID) ([]core.FetchResult, error) {
			return c.FetchAll(ctx, oid)
		},
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
			if got := replicaRoundTrips(tel); got != 2 {
				t.Errorf("replica round trips = %d, want 2: the negotiation and obj.bind", got)
			}
			fromBind := map[string]int{}
			for _, s := range tel.Ring.Spans() {
				for _, a := range s.Attrs {
					if a.Key == "source" && a.Value == "bind" {
						fromBind[s.Name]++
					}
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
	frontReplica(t, w, pub, append([]string{object.OpBind}, stepOps...), func(op string, reply []byte) []byte {
		if op != object.OpGetCert && op != object.OpBind {
			return reply
		}
		once.Do(func() {
			if err := pub.Doc.Put(document.Element{Name: "part-00.html", Data: []byte("<p>element 0, updated</p>")}); err != nil {
				t.Error(err)
			}
			if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
				t.Error(err)
			}
		})
		return reply
	})
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
	if got := tel.Failovers.Value(); got != 0 {
		t.Errorf("failovers_total = %d, want 0", got)
	}
	for _, phase := range securityPhases {
		if got := tel.SecurityCheckFailures.With(phase).Value(); got != 0 {
			t.Errorf("security_check_failures_total{phase=%q} = %d, want 0", phase, got)
		}
	}
}

// TestDeclinedBindIsNoBatch: an all-elements bind whose every item the
// replica declined carried no element, so it is not FetchAll's batch; the
// one GetElements exchange that then fetches the elements is, and
// batch_fetch_total counts one.
func TestDeclinedBindIsNoBatch(t *testing.T) {
	const n = 3
	w, pub, _ := batchWorld(t, n)
	frontReplica(t, w, pub, append([]string{object.OpBind}, stepOps...), func(op string, reply []byte) []byte {
		if op != object.OpBind {
			return reply
		}
		r, err := object.DecodeBindReply(reply)
		if err != nil {
			t.Error(err)
			return reply
		}
		declined := make([]object.BatchWireItem, len(r.Items))
		for i, it := range r.Items {
			declined[i] = object.BatchWireItem{Name: it.Name, ErrMsg: "batch response frame budget exceeded; fetch element individually"}
		}
		return object.EncodeBindReply(r.Key, r.NameCerts, r.Cert, declined)
	})
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
	if got := tel.RPCCalls.With(object.OpGetElements, "ok").Value(); got != 1 {
		t.Errorf("obj.getelements calls = %d, want 1", got)
	}
	if got := tel.BatchFetches.Value(); got != 1 {
		t.Errorf("batch_fetch_total = %d, want 1", got)
	}
	if got := tel.BatchElements.Value(); got != n {
		t.Errorf("batch_fetch_elements_total = %d, want %d", got, n)
	}
}

// TestPreBindReplicaFallsBack: a replica built before obj.bind refuses it
// once per binding and is then asked with the step RPCs. The client gets
// the same bytes as from a current replica, in no more round trips than
// the step binding always took: the negotiation, the refusal (where a
// ping used to be), the key, the name certificates, the certificate and
// the element.
func TestPreBindReplicaFallsBack(t *testing.T) {
	const n = 4
	w, pub, _ := batchWorld(t, n)
	direct, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Telemetry: telemetry.New(nil)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(direct.Close)
	want, err := direct.FetchAll(context.Background(), pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	front := frontReplica(t, w, pub, stepOps, nil)

	for name, run := range map[string]func(context.Context, *core.Client, globeid.OID) ([]core.FetchResult, error){
		"Fetch": fetchOne(want[1].Element.Name),
		"FetchAll": func(ctx context.Context, c *core.Client, oid globeid.OID) ([]core.FetchResult, error) {
			return c.FetchAll(ctx, oid)
		},
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
			for _, res := range results {
				var same bool
				for _, w := range want {
					same = same || (w.Element.Name == res.Element.Name && bytes.Equal(w.Element.Data, res.Element.Data))
				}
				if !same || res.ReplicaAddr != front {
					t.Errorf("%s: %q from %s, want the current replica's bytes from the front", res.Element.Name, res.Element.Data, res.ReplicaAddr)
				}
			}
			if name == "FetchAll" && len(results) != n {
				t.Errorf("FetchAll returned %d elements, want %d", len(results), n)
			}
			if got := tel.RPCCalls.With(object.OpBind, "error").Value(); got != 1 {
				t.Errorf(`rpc_calls_total{op="obj.bind",outcome="error"} = %d, want 1`, got)
			}
			if got := replicaRoundTrips(tel); got > 6 {
				t.Errorf("replica round trips = %d, want at most 6", got)
			}
		})
	}
}
