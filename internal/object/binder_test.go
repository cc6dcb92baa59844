package object_test

import (
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"

	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
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

// TestBindOIDNoReplicas: an OID with no GlobeDoc replica has no
// candidate, so binding it fails before any dial — whether the location
// service knows no address for it or only one of another protocol.
func TestBindOIDNoReplicas(t *testing.T) {
	w, _ := bindWorld(t)
	binder := w.NewBinder(netsim.Paris)
	oid := binderTestOID(keytest.Ed())
	if got, _, err := binder.Candidates(context.Background(), oid); err == nil {
		t.Fatalf("Candidates for an unrecorded OID = %v", got)
	}
	ftp := locAddr("paris:ftp")
	ftp.Protocol = "ftp"
	if err := w.LocationTree.Insert(netsim.Paris, oid, ftp); err != nil {
		t.Fatal(err)
	}
	if got, _, err := binder.Candidates(context.Background(), oid); !errors.Is(err, object.ErrNoReplica) {
		t.Fatalf("Candidates = %v, %v; want ErrNoReplica", got, err)
	}
}

// TestBindSkipsUnknownProtocol: a contact address of another protocol is
// never a candidate, however near it is.
func TestBindSkipsUnknownProtocol(t *testing.T) {
	w, pub := bindWorld(t)
	bad := locAddr("paris:weird")
	bad.Protocol = "ftp"
	if err := w.LocationTree.Insert(netsim.Paris, pub.OID, bad); err != nil {
		t.Fatal(err)
	}
	got, _, err := w.NewBinder(netsim.Paris).Candidates(context.Background(), pub.OID)
	if err != nil || len(got) != 1 || got[0].Address != w.Addrs[netsim.AmsterdamPrimary] {
		t.Fatalf("Candidates = %v, %v; want only the amsterdam replica", got, err)
	}
}

// TestMaxCandidates: the cap keeps the nearest addresses only, here the
// dead paris one ahead of the live amsterdam replica.
func TestMaxCandidates(t *testing.T) {
	w, pub := bindWorld(t)
	if err := w.LocationTree.Insert(netsim.Paris, pub.OID, locAddr("paris:dead")); err != nil {
		t.Fatal(err)
	}
	binder := w.NewBinder(netsim.Paris)
	if got, _, err := binder.Candidates(context.Background(), pub.OID); err != nil || len(got) != 2 || got[0].Address != "paris:dead" {
		t.Fatalf("uncapped Candidates = %v, %v; want paris:dead then amsterdam", got, err)
	}
	binder.MaxCandidates = 1
	if got, _, err := binder.Candidates(context.Background(), pub.OID); err != nil || len(got) != 1 || got[0].Address != "paris:dead" {
		t.Fatalf("Candidates capped at 1 = %v, %v; want paris:dead only", got, err)
	}
}

// writeCounter counts the bytes written on the connections a dialler
// makes.
type writeCounter struct {
	net.Conn
	n *atomic.Int64
}

func (c writeCounter) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// TestConnectSendsNoRequest: Connect only dials the proxy's connection.
// It writes nothing on it — no request and no negotiation preamble — and
// the proxy's first call negotiates on that very connection, its request
// riding behind the preamble.
func TestConnectSendsNoRequest(t *testing.T) {
	w, pub := bindWorld(t)
	tel := telemetry.New(nil)
	binder := w.NewBinder(netsim.Paris)
	binder.Transport.Telemetry = tel
	var written atomic.Int64
	dial := binder.Dial
	binder.Dial = func(addr string) transport.DialFunc {
		return func() (net.Conn, error) {
			conn, err := dial(addr)()
			if err != nil {
				return nil, err
			}
			return writeCounter{Conn: conn, n: &written}, nil
		}
	}
	client, err := binder.Connect(context.Background(), pub.OID, w.Addrs[netsim.AmsterdamPrimary])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if got := written.Load(); got != 0 {
		t.Errorf("Connect wrote %d bytes, want 0", got)
	}
	if got := tel.RPCCalls.With(object.OpPing, "ok").Value(); got != 0 {
		t.Errorf("Connect pinged the replica %d times", got)
	}
	if got := tel.PoolDials.Value(); got != 1 {
		t.Errorf("Connect dialed %d connections, want 1", got)
	}
	if got := tel.Negotiations.Total(); got != 0 {
		t.Errorf("Connect negotiated %d times, want 0", got)
	}
	if _, err := client.GetElement(context.Background(), "index.html"); err != nil {
		t.Fatal(err)
	}
	if got := tel.PoolDials.Value(); got != 1 {
		t.Errorf("Connect and one call dialed %d connections, want 1", got)
	}
	if got := tel.Negotiations.With("v2").Value(); got != 1 {
		t.Errorf("negotiations{v2} = %d, want 1: the first call's, on the connection Connect dialled", got)
	}
}
