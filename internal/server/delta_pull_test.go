package server_test

// End-to-end tests for the puller's one consistency transfer: each check
// is one obj.getdelta; a delta moves only changed elements; an evicted
// have-version brings the full state in the same reply; a rejected delta
// (a forged or an incomplete one) is asked for once more from version 0;
// a refusal changes nothing; and the transfer counters surface on
// telemetry.

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// deltaWorld is pullWorld with a wider document: one small mutable page
// plus a large static asset, so byte proportionality is observable.
func deltaWorld(t *testing.T) (*deploy.World, *deploy.Publication, *server.Puller, *telemetry.Telemetry) {
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
	puller.SetTelemetry(tel)
	t.Cleanup(puller.Stop)
	return w, pub, puller, tel
}

// served returns how many obj.getdelta requests the servers recording to
// tel have answered.
func served(tel *telemetry.Telemetry) uint64 {
	return tel.RPCServed.With(server.OpGetDelta, "ok").Value() + tel.RPCServed.With(server.OpGetDelta, "error").Value()
}

func TestPullerUsesDeltaPath(t *testing.T) {
	w, pub, puller, tel := deltaWorld(t)

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
	if full := tel.PullerPulls.With("full").Value(); puller.DeltaPulls() != 1 || full != 0 {
		t.Fatalf("delta=%d full=%d, want the delta path", puller.DeltaPulls(), full)
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
	w, pub, puller, _ := deltaWorld(t)
	// Let the primary advance several versions before one delta pull:
	// one delta from the held version spans all of them.
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

// TestPullerFallsBackOnDecline lets the secondary's have-version fall out
// of the primary's retention: the one reply is the full state.
func TestPullerFallsBackOnDecline(t *testing.T) {
	w, pub, puller, tel := deltaWorld(t)
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
		t.Fatal("evicted have-version did not bring the full state")
	}
	if full := tel.PullerPulls.With("full").Value(); puller.DeltaDeclines() != 1 || full != 1 || puller.DeltaPulls() != 0 {
		t.Fatalf("declines=%d full=%d delta=%d, want one full reply installed",
			puller.DeltaDeclines(), full, puller.DeltaPulls())
	}
	if n := served(tel); n != 1 {
		t.Fatalf("obj.getdelta served %d times, want the full state in the one reply", n)
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
	w, pub, puller, tel := deltaWorld(t)
	puller.DisableDelta = true
	pub.Doc.Put(document.Element{Name: "index.html", Data: []byte("v2")})
	if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}
	pulled, err := puller.CheckOnce(context.Background())
	if err != nil || !pulled {
		t.Fatalf("CheckOnce = %v, %v", pulled, err)
	}
	if full := tel.PullerPulls.With("full").Value(); puller.DeltaPulls() != 0 || full != 1 || puller.BytesDelta() != 0 {
		t.Fatalf("delta=%d full=%d deltaBytes=%d, want the full path only",
			puller.DeltaPulls(), full, puller.BytesDelta())
	}
	// Asked from version 0 again, the primary sends the full state once
	// more; it carries the certificate already held, so nothing changes.
	pulled, err = puller.CheckOnce(context.Background())
	if err != nil || pulled {
		t.Fatalf("second CheckOnce = %v, %v; want the held certificate to be a no-op", pulled, err)
	}
	if full := tel.PullerPulls.With("full").Value(); full != 1 {
		t.Fatalf("full pulls = %d after a no-op check, want 1", full)
	}
}

// TestPullerOneRequestPerCheck counts the primary's obj.getdelta
// replies: one per check, whether the secondary is current or stale, and
// two when a delta is rejected and asked for again from version 0.
func TestPullerOneRequestPerCheck(t *testing.T) {
	w, pub, puller, tel := deltaWorld(t)
	ctx := context.Background()
	if pulled, err := puller.CheckOnce(ctx); err != nil || pulled {
		t.Fatalf("fresh CheckOnce = %v, %v", pulled, err)
	}
	if n := served(tel); n != 1 {
		t.Fatalf("fresh check: obj.getdelta served %d times, want 1", n)
	}
	pub.Doc.Put(document.Element{Name: "index.html", Data: []byte("v2")})
	if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}
	if pulled, err := puller.CheckOnce(ctx); err != nil || !pulled {
		t.Fatalf("stale CheckOnce = %v, %v", pulled, err)
	}
	if n := served(tel); n != 2 {
		t.Fatalf("stale check: obj.getdelta served %d times in all, want 2", n)
	}

	// A primary whose deltas carry a flipped byte: the delta is
	// rejected, and the retry from version 0 gets the honest full state.
	victim, lyingTel := lyingPuller(t, w, pub, func(d *server.DeltaReply) {
		for _, it := range d.Items {
			if it.Changed {
				it.Element.Data[0] ^= 0xff // DeltaSince's bytes are our own
			}
		}
	})
	pub.Doc.Put(document.Element{Name: "index.html", Data: []byte("v3")})
	if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}
	if pulled, err := victim.CheckOnce(ctx); err != nil || !pulled {
		t.Fatalf("CheckOnce after a rejected delta = %v, %v", pulled, err)
	}
	if n := served(lyingTel); n != 2 {
		t.Fatalf("rejected delta: obj.getdelta served %d times, want 2", n)
	}
	if full := lyingTel.PullerPulls.With("full").Value(); victim.DeltaFallbacks() != 1 || full != 1 {
		t.Fatalf("fallbacks=%d full=%d, want the retry to install the full state", victim.DeltaFallbacks(), full)
	}
}

// lyingPuller serves obj.getdelta as the genuine primary of deltaWorld
// does, except that lie rewrites every delta (never a full reply) before
// it is sent, and returns a puller on the secondary that talks only to
// it, with the telemetry both record to.
func lyingPuller(t *testing.T, w *deploy.World, pub *deploy.Publication, lie func(*server.DeltaReply)) (*server.Puller, *telemetry.Telemetry) {
	t.Helper()
	primary := w.Servers[netsim.AmsterdamPrimary]
	tel := telemetry.New(nil)
	lying := transport.NewServer()
	lying.Telemetry = tel
	lying.Handle(server.OpGetDelta, func(body []byte) ([]byte, error) {
		oid, have, err := server.DecodeDeltaRequest(body)
		if err != nil {
			return nil, err
		}
		d, err := primary.DeltaSince(oid, have)
		if err != nil {
			return nil, err
		}
		if !d.Current && !d.FullRequired {
			lie(d)
		}
		return d.Marshal(), nil
	})
	l, err := w.Net.Listen(netsim.AmsterdamPrimary, "lying")
	if err != nil {
		t.Fatal(err)
	}
	lying.Start(l)
	t.Cleanup(lying.Close)
	victim := server.NewPuller(w.Servers[netsim.Paris], pub.OID, "owner:delta.nl",
		netsim.AmsterdamPrimary+":lying", w.DialFrom(netsim.Paris), time.Minute)
	victim.SetTelemetry(tel)
	t.Cleanup(victim.Stop)
	return victim, tel
}

// TestPullerRefusesAnIncompleteDelta: a delta that drops the changed
// item carries a genuine, superseding certificate and nothing that fails
// a hash, so only the rule that a replica holds every element its
// certificate lists stands between it and a partial replica. It is
// refused, asked for once more from version 0, and the full state
// converges byte-identically on the primary's.
func TestPullerRefusesAnIncompleteDelta(t *testing.T) {
	w, pub, _, _ := deltaWorld(t)
	victim, tel := lyingPuller(t, w, pub, func(d *server.DeltaReply) {
		for i, it := range d.Items {
			if it.Changed {
				d.Items = append(d.Items[:i:i], d.Items[i+1:]...)
				return
			}
		}
	})
	pub.Doc.Put(document.Element{Name: "index.html", Data: []byte("v2")})
	if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}
	pulled, err := victim.CheckOnce(context.Background())
	if err != nil || !pulled {
		t.Fatalf("CheckOnce = %v, %v; want the full state after the refused delta", pulled, err)
	}
	if full := tel.PullerPulls.With("full").Value(); victim.DeltaPulls() != 0 || victim.DeltaFallbacks() != 1 || full != 1 {
		t.Fatalf("delta=%d fallbacks=%d full=%d, want the delta refused and the full state installed once",
			victim.DeltaPulls(), victim.DeltaFallbacks(), full)
	}
	if n := served(tel); n != 2 {
		t.Fatalf("obj.getdelta served %d times, want the delta and the retry", n)
	}
	pb, err := w.Servers[netsim.AmsterdamPrimary].ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := w.Servers[netsim.Paris].ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pb.Marshal(), sb.Marshal()) {
		t.Fatal("secondary state differs from the primary's after the fallback")
	}
}

// TestPullerRefusingPrimaryLeavesReplicaUnchanged points a puller at a
// primary that refuses obj.getdelta as an unknown operation. A refusal
// is no reply to apply: CheckOnce returns it, asks nothing more, and the
// replica keeps exactly what it held.
func TestPullerRefusingPrimaryLeavesReplicaUnchanged(t *testing.T) {
	w, pub, _, _ := deltaWorld(t)
	refusing := transport.NewServer()
	l, err := w.Net.Listen(netsim.AmsterdamPrimary, "refusing")
	if err != nil {
		t.Fatal(err)
	}
	refusing.Start(l)
	t.Cleanup(refusing.Close)
	tel := telemetry.New(nil)
	puller := server.NewPuller(w.Servers[netsim.Paris], pub.OID, "owner:delta.nl",
		netsim.AmsterdamPrimary+":refusing", w.DialFrom(netsim.Paris), time.Minute)
	puller.SetTelemetry(tel)
	t.Cleanup(puller.Stop)

	before, err := w.Servers[netsim.Paris].ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	pub.Doc.Put(document.Element{Name: "index.html", Data: []byte("v2")})
	if err := w.Reissue(pub, time.Hour, time.Now()); err != nil {
		t.Fatal(err)
	}
	pulled, err := puller.CheckOnce(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown operation") || pulled {
		t.Fatalf("CheckOnce = %v, %v; want the unknown-operation refusal", pulled, err)
	}
	if puller.DeltaFallbacks() != 0 || tel.PullerFailures.Value() != 1 {
		t.Fatalf("fallbacks=%d failures=%d, want no retry and one failure",
			puller.DeltaFallbacks(), tel.PullerFailures.Value())
	}
	after, err := w.Servers[netsim.Paris].ExportBundle(pub.OID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Marshal(), after.Marshal()) {
		t.Fatal("a refusing primary changed the replica")
	}
}
