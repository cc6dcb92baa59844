package server_test

// End-to-end tests for the Merkle-delta puller path: delta transfers
// move only changed elements; declines, failures and a primary that
// refuses obj.getdelta fall back to the full bundle, each check asking
// for the delta again; and the transfer counters surface on telemetry.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/enc"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// deltaWorld is pullWorld with a wider document: one small mutable page
// plus a large static asset, so byte proportionality is observable.
func deltaWorld(t *testing.T) (*deploy.World, *deploy.Publication, *server.Puller) {
	t.Helper()
	w, err := deploy.NewWorld(deploy.Options{TimeScale: 0})
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
	doc.Put(document.Element{Name: "big.bin", Data: bytes.Repeat([]byte{0xAB}, 32<<10)})
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "delta.nl", OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.ReplicateTo(pub, netsim.Paris); err != nil {
		t.Fatal(err)
	}
	puller := server.NewPuller(paris, pub.OID, "owner:delta.nl",
		w.Addrs[netsim.AmsterdamPrimary], w.DialFrom(netsim.Paris), 10*time.Millisecond)
	t.Cleanup(puller.Stop)
	return w, pub, puller
}

func TestPullerUsesDeltaPath(t *testing.T) {
	w, pub, puller := deltaWorld(t)
	tel := telemetry.New(nil)
	puller.SetTelemetry(tel)

	pub.Doc.Put(document.Element{Name: "index.html", Data: []byte("v2 small change")})
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
	if puller.DeltaPulls() != 1 || puller.FullPulls() != 0 {
		t.Fatalf("delta=%d full=%d, want the delta path", puller.DeltaPulls(), puller.FullPulls())
	}
	// The 32 KiB static asset must not have crossed the wire.
	if got := puller.BytesDelta(); got == 0 || got > 16<<10 {
		t.Fatalf("delta moved %d bytes; want nonzero and well under the 32 KiB asset", got)
	}
	// The secondary converged to the primary's exact state.
	pb, err := w.Servers[netsim.AmsterdamPrimary].ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := w.Servers[netsim.Paris].ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.Marshal(), sb.Marshal()) {
		t.Fatal("secondary state differs from primary after delta pull")
	}
	// The win is observable on telemetry, not just the local counters.
	if v := tel.PullerPulls.With("delta").Value(); v != 1 {
		t.Errorf("puller_pulls_total{delta} = %d, want 1", v)
	}
	if v := tel.PullerBytes.With("delta").Value(); v != puller.BytesDelta() {
		t.Errorf("puller_bytes_total{delta} = %d, want %d", v, puller.BytesDelta())
	}
	if v := tel.PullerElements.With("delta").Value(); v != 1 {
		t.Errorf("puller_elements_total{delta} = %d, want 1 changed element", v)
	}
}

func TestPullerDeltaChainExtendsAcrossSeveralVersions(t *testing.T) {
	w, pub, puller := deltaWorld(t)
	// Let the primary advance several versions before one delta pull:
	// the reply chain must link have..new across all of them.
	for i := 2; i <= 4; i++ {
		pub.Doc.Put(document.Element{Name: "index.html", Data: []byte(fmt.Sprintf("v%d", i))})
		if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	pulled, err := puller.CheckOnce(context.Background())
	if err != nil {
		t.Fatalf("CheckOnce: %v", err)
	}
	if !pulled || puller.DeltaPulls() != 1 {
		t.Fatalf("pulled=%v delta=%d, want one delta pull spanning the gap", pulled, puller.DeltaPulls())
	}
	sb, err := w.Servers[netsim.Paris].ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sb.Elements {
		if e.Name == "index.html" && string(e.Data) != "v4" {
			t.Fatalf("secondary at %q, want v4", e.Data)
		}
	}
}

func TestPullerFallsBackOnDecline(t *testing.T) {
	w, pub, puller := deltaWorld(t)
	// Outrun the primary's retention so the secondary's have-version is
	// evicted before it checks.
	const last = server.DefaultVersionRetention + 2
	for i := 2; i <= last; i++ {
		pub.Doc.Put(document.Element{Name: "index.html", Data: []byte(fmt.Sprintf("v%d", i))})
		if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	pulled, err := puller.CheckOnce(context.Background())
	if err != nil {
		t.Fatalf("CheckOnce: %v", err)
	}
	if !pulled {
		t.Fatal("declined delta did not fall back to a full pull")
	}
	if puller.DeltaDeclines() != 1 || puller.FullPulls() != 1 || puller.DeltaPulls() != 0 {
		t.Fatalf("declines=%d full=%d delta=%d, want a decline then a full pull",
			puller.DeltaDeclines(), puller.FullPulls(), puller.DeltaPulls())
	}
	sb, err := w.Servers[netsim.Paris].ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sb.Elements {
		if want := fmt.Sprintf("v%d", last); e.Name == "index.html" && string(e.Data) != want {
			t.Fatalf("secondary at %q after fallback, want %s", e.Data, want)
		}
	}
}

func TestPullerDisableDeltaForcesFull(t *testing.T) {
	w, pub, puller := deltaWorld(t)
	puller.DisableDelta = true
	pub.Doc.Put(document.Element{Name: "index.html", Data: []byte("v2")})
	if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}
	pulled, err := puller.CheckOnce(context.Background())
	if err != nil || !pulled {
		t.Fatalf("CheckOnce = %v, %v", pulled, err)
	}
	if puller.DeltaPulls() != 0 || puller.FullPulls() != 1 || puller.BytesDelta() != 0 {
		t.Fatalf("delta=%d full=%d deltaBytes=%d, want the full path only",
			puller.DeltaPulls(), puller.FullPulls(), puller.BytesDelta())
	}
}

// TestPullerFallsBackWhenPrimaryRefusesDelta points a puller at a
// primary that refuses obj.getdelta as an unknown operation. A refusal is
// a delta failure like any other: every check asks for the delta again,
// counts one fallback and completes with a full pull.
func TestPullerFallsBackWhenPrimaryRefusesDelta(t *testing.T) {
	w, pub, _ := deltaWorld(t)
	primary := w.Servers[netsim.AmsterdamPrimary]

	// A primary with version and bundle ops only, delegating to the
	// genuine server's state. obj.getdelta is answered with the server's
	// unknown-operation refusal, counted per request.
	probes := 0
	old := transport.NewServer()
	old.Handle(object.OpVersion, func(body []byte) ([]byte, error) {
		oid, err := object.DecodeOIDRequest(body)
		if err != nil {
			return nil, err
		}
		b, err := primary.ExportBundle(oid)
		if err != nil {
			return nil, err
		}
		w := enc.NewWriter(8)
		w.Uvarint(b.Version)
		return w.Bytes(), nil
	})
	old.Handle(object.OpGetBundle, func(body []byte) ([]byte, error) {
		oid, err := object.DecodeOIDRequest(body)
		if err != nil {
			return nil, err
		}
		b, err := primary.ExportBundle(oid)
		if err != nil {
			return nil, err
		}
		return b.Marshal(), nil
	})
	old.Handle(server.OpGetDelta, func(body []byte) ([]byte, error) {
		probes++
		return nil, errors.New("unknown operation " + server.OpGetDelta)
	})
	l, err := w.Net.Listen(netsim.AmsterdamPrimary, "oldsrv")
	if err != nil {
		t.Fatal(err)
	}
	old.Start(l)
	t.Cleanup(old.Close)

	puller := server.NewPuller(w.Servers[netsim.Paris], pub.OID, "owner:delta.nl",
		netsim.AmsterdamPrimary+":oldsrv", w.DialFrom(netsim.Paris), 10*time.Millisecond)
	t.Cleanup(puller.Stop)

	for i := 2; i <= 3; i++ {
		pub.Doc.Put(document.Element{Name: "index.html", Data: []byte(fmt.Sprintf("v%d", i))})
		if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
			t.Fatal(err)
		}
		pulled, err := puller.CheckOnce(context.Background())
		if err != nil {
			t.Fatalf("CheckOnce %d: %v", i, err)
		}
		if !pulled {
			t.Fatalf("CheckOnce %d did not pull", i)
		}
	}
	if probes != 2 {
		t.Fatalf("obj.getdelta asked %d times, want 2 (one per check: nothing is latched)", probes)
	}
	if puller.FullPulls() != 2 || puller.DeltaPulls() != 0 {
		t.Fatalf("full=%d delta=%d, want 2 full pulls", puller.FullPulls(), puller.DeltaPulls())
	}
	if puller.DeltaFallbacks() != 2 {
		t.Fatalf("delta fallbacks = %d, want 2 (each refusal is one)", puller.DeltaFallbacks())
	}
}
