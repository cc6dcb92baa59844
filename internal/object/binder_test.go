package object_test

import (
	"context"
	"testing"

	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
)

func bindWorld(t *testing.T) (*deploy.World, *deploy.Publication) {
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
	doc.Put(document.Element{Name: "index.html", Data: []byte("bind me")})
	pub, err := w.Publish(doc, deploy.PublishOptions{Name: "bind.nl", OwnerKey: keytest.RSA()})
	if err != nil {
		t.Fatal(err)
	}
	return w, pub
}

func TestBindByName(t *testing.T) {
	w, pub := bindWorld(t)
	binder := w.NewBinder(netsim.Paris)
	binding, err := binder.Bind(context.Background(), "bind.nl")
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	defer binding.Close()
	if binding.OID != pub.OID {
		t.Error("bound to wrong OID")
	}
	if binding.Name != "bind.nl" {
		t.Errorf("Name = %q", binding.Name)
	}
	elem, err := binding.Client.GetElement(context.Background(), "index.html")
	if err != nil || string(elem.Data) != "bind me" {
		t.Fatalf("GetElement = %q, %v", elem.Data, err)
	}
}

func TestBindUnknownName(t *testing.T) {
	w, _ := bindWorld(t)
	binder := w.NewBinder(netsim.Paris)
	if _, err := binder.Bind(context.Background(), "ghost.nl"); err == nil {
		t.Fatal("Bind of unknown name succeeded")
	}
}

func TestBindOIDNoReplicas(t *testing.T) {
	w, _ := bindWorld(t)
	binder := w.NewBinder(netsim.Paris)
	other := keytest.Ed()
	oid := binderTestOID(other)
	if _, err := binder.BindOID(context.Background(), oid); err == nil {
		t.Fatal("BindOID with no replicas succeeded")
	}
}

func TestBindSkipsDeadReplica(t *testing.T) {
	w, pub := bindWorld(t)
	// Record a contact address at paris that nothing listens on, closer
	// to the client than the real amsterdam replica.
	if err := w.LocationTree.Insert(netsim.Paris, pub.OID, locAddr("paris:dead")); err != nil {
		t.Fatal(err)
	}
	binder := w.NewBinder(netsim.Paris)
	binding, err := binder.Bind(context.Background(), "bind.nl")
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	defer binding.Close()
	if binding.Addr != netsim.AmsterdamPrimary+":objsvc" {
		t.Errorf("Addr = %q, want fallback to amsterdam", binding.Addr)
	}
}

func TestBindSkipsUnknownProtocol(t *testing.T) {
	w, pub := bindWorld(t)
	bad := locAddr("paris:weird")
	bad.Protocol = "ftp"
	if err := w.LocationTree.Insert(netsim.Paris, pub.OID, bad); err != nil {
		t.Fatal(err)
	}
	binder := w.NewBinder(netsim.Paris)
	binding, err := binder.Bind(context.Background(), "bind.nl")
	if err != nil {
		t.Fatalf("Bind: %v", err)
	}
	defer binding.Close()
	if binding.Addr != netsim.AmsterdamPrimary+":objsvc" {
		t.Errorf("Addr = %q", binding.Addr)
	}
}

func TestMaxCandidates(t *testing.T) {
	w, pub := bindWorld(t)
	if err := w.LocationTree.Insert(netsim.Paris, pub.OID, locAddr("paris:dead")); err != nil {
		t.Fatal(err)
	}
	binder := w.NewBinder(netsim.Paris)
	binder.MaxCandidates = 1 // only the (dead) nearest one is tried
	if _, err := binder.Bind(context.Background(), "bind.nl"); err == nil {
		t.Fatal("Bind succeeded despite MaxCandidates cutoff")
	}
}

// TestConnectSendsNoRequest: Connect dials and negotiates the proxy's
// connection and asks the replica nothing — the v2 accept is the proof
// of life — and the proxy's first call rides that connection.
func TestConnectSendsNoRequest(t *testing.T) {
	w, pub := bindWorld(t)
	tel := telemetry.New(nil)
	binder := w.NewBinder(netsim.Paris)
	binder.Transport.Telemetry = tel
	client, err := binder.Connect(context.Background(), pub.OID, w.Addrs[netsim.AmsterdamPrimary])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if got := tel.RPCCalls.With(object.OpPing, "ok").Value(); got != 0 {
		t.Errorf("Connect pinged the replica %d times", got)
	}
	if got := tel.Negotiations.With("v2").Value(); got != 1 {
		t.Errorf("negotiations{v2} = %d, want the connection Connect opened", got)
	}
	if _, err := client.GetElement(context.Background(), "index.html"); err != nil {
		t.Fatal(err)
	}
	if got := tel.PoolDials.Value(); got != 1 {
		t.Errorf("Connect and one call dialed %d connections, want 1", got)
	}
}
