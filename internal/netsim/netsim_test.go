package netsim_test

import (
	"bytes"
	"context"
	"net"
	"sync"
	"testing"
	"time"

	"globedoc/internal/clock"
	"globedoc/internal/netsim"
	"globedoc/internal/transport"
)

func newTestNet() *netsim.Network {
	n := netsim.NewNetwork()
	n.TimeScale = 0 // no sleeping in unit tests
	n.SetLink("a", "b", netsim.LinkProfile{Latency: 10 * time.Millisecond, Bandwidth: 1e6})
	return n
}

func TestDialAndExchange(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	l, err := n.Listen("b", "svc")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	done := make(chan error, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			done <- err
			return
		}
		defer conn.Close()
		buf := make([]byte, 5)
		if _, err := conn.Read(buf); err != nil {
			done <- err
			return
		}
		_, err = conn.Write(append([]byte("re:"), buf...))
		done <- err
	}()

	conn, err := n.Dial("a", "b:svc")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	buf := make([]byte, 8)
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(buf, []byte("re:hello")) {
		t.Errorf("got %q", buf)
	}
	if err := <-done; err != nil {
		t.Fatalf("server: %v", err)
	}
}

func TestDialNoListener(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	if _, err := n.Dial("a", "b:absent"); err == nil {
		t.Fatal("Dial succeeded with no listener")
	}
}

func TestDialUnknownHost(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	if _, err := n.Dial("mars", "b:svc"); err == nil {
		t.Fatal("Dial succeeded from unknown host")
	}
	if _, err := n.Listen("mars", "svc"); err == nil {
		t.Fatal("Listen succeeded on unknown host")
	}
}

func TestDuplicateListen(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	if _, err := n.Listen("b", "svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("b", "svc"); err == nil {
		t.Fatal("duplicate Listen succeeded")
	}
}

// TestDeadlinesFailOnlyOnLocalClose: as on a TCP socket, setting a
// deadline succeeds after the peer hung up — the write it would bound
// then fails by itself — and fails once this end is closed.
func TestDeadlinesFailOnlyOnLocalClose(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	l, err := n.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			t.Error(err)
		}
		accepted <- conn
	}()
	client, err := n.Dial("a", "b:svc")
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	if server == nil {
		t.FailNow()
	}
	defer server.Close()
	client.Close()
	deadline := time.Now().Add(time.Second)
	for name, set := range map[string]func(time.Time) error{
		"SetDeadline": server.SetDeadline, "SetReadDeadline": server.SetReadDeadline, "SetWriteDeadline": server.SetWriteDeadline,
	} {
		if err := set(deadline); err != nil {
			t.Errorf("%s after the peer hung up = %v, want nil", name, err)
		}
	}
	if _, err := server.Write([]byte("late reply")); err == nil {
		t.Error("Write to a peer that hung up succeeded")
	}
	server.Close()
	for name, set := range map[string]func(time.Time) error{
		"SetDeadline": server.SetDeadline, "SetReadDeadline": server.SetReadDeadline, "SetWriteDeadline": server.SetWriteDeadline,
	} {
		if err := set(deadline); err == nil {
			t.Errorf("%s after Close succeeded", name)
		}
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	l, err := n.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Accept returned nil error after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Accept did not unblock after Close")
	}
	// The address is free again.
	if _, err := n.Listen("b", "svc"); err != nil {
		t.Fatalf("re-Listen after Close: %v", err)
	}
}

func TestNetworkCloseStopsDial(t *testing.T) {
	n := newTestNet()
	if _, err := n.Listen("b", "svc"); err != nil {
		t.Fatal(err)
	}
	n.Close()
	if _, err := n.Dial("a", "b:svc"); err == nil {
		t.Fatal("Dial succeeded on closed network")
	}
}

func TestLinkSymmetricAndSelf(t *testing.T) {
	n := newTestNet()
	defer n.Close()
	ab := n.Link("a", "b")
	ba := n.Link("b", "a")
	if ab != ba {
		t.Errorf("asymmetric: %+v vs %+v", ab, ba)
	}
	if self := n.Link("a", "a"); self.Latency != 0 || self.Bandwidth != 0 {
		t.Errorf("self link = %+v", self)
	}
}

func TestLatencyActuallySimulated(t *testing.T) {
	n := netsim.NewNetwork()
	n.TimeScale = 1.0
	lat := 30 * time.Millisecond
	n.SetLink("a", "b", netsim.LinkProfile{Latency: lat})
	defer n.Close()
	l, err := n.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer()
	srv.Handle("ping", func(body []byte) ([]byte, error) { return []byte("pong"), nil })
	srv.Start(l)
	defer srv.Close()

	c := transport.NewClient(n.Dialer("a", "b:svc"))
	defer c.Close()
	start := time.Now()
	if _, err := c.Call(context.Background(), "ping", nil); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// One RPC = request write (one-way) + response write (one-way) = RTT.
	if elapsed < 2*lat {
		t.Errorf("RPC took %v, want >= %v (one RTT)", elapsed, 2*lat)
	}
	if elapsed > 10*lat {
		t.Errorf("RPC took %v, suspiciously long", elapsed)
	}
}

func TestBandwidthSimulated(t *testing.T) {
	n := netsim.NewNetwork()
	n.TimeScale = 1.0
	// 1 MB/s: a 200 KB payload should take >= 200 ms to serialize.
	n.SetLink("a", "b", netsim.LinkProfile{Bandwidth: 1e6})
	defer n.Close()
	l, err := n.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer()
	srv.Handle("get", func(body []byte) ([]byte, error) { return make([]byte, 200_000), nil })
	srv.Start(l)
	defer srv.Close()

	c := transport.NewClient(n.Dialer("a", "b:svc"))
	defer c.Close()
	start := time.Now()
	if _, err := c.Call(context.Background(), "get", nil); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 180*time.Millisecond {
		t.Errorf("200KB over 1MB/s took %v, want >= ~200ms", elapsed)
	}
}

func TestTransferTimeAndRTT(t *testing.T) {
	p := netsim.LinkProfile{Latency: 10 * time.Millisecond, Bandwidth: 1e6}
	if got := p.RTT(); got != 20*time.Millisecond {
		t.Errorf("RTT = %v", got)
	}
	if got := p.TransferTime(1e6); got != time.Second {
		t.Errorf("TransferTime(1MB) = %v", got)
	}
	if got := p.TransferTime(0); got != 0 {
		t.Errorf("TransferTime(0) = %v", got)
	}
	unlimited := netsim.LinkProfile{}
	if got := unlimited.TransferTime(1e9); got != 0 {
		t.Errorf("unlimited TransferTime = %v", got)
	}
}

func TestHostOf(t *testing.T) {
	if got := netsim.HostOf("paris:objsrv"); got != "paris" {
		t.Errorf("HostOf = %q", got)
	}
	if got := netsim.HostOf("bare"); got != "bare" {
		t.Errorf("HostOf = %q", got)
	}
}

func TestPaperTestbed(t *testing.T) {
	n := netsim.PaperTestbed(0)
	defer n.Close()
	hosts := n.Hosts()
	if len(hosts) != 4 {
		t.Fatalf("hosts = %v", hosts)
	}
	lan := n.Link(netsim.AmsterdamPrimary, netsim.AmsterdamSecondary)
	paris := n.Link(netsim.AmsterdamPrimary, netsim.Paris)
	ithaca := n.Link(netsim.AmsterdamPrimary, netsim.Ithaca)
	if !(lan.Latency < paris.Latency && paris.Latency < ithaca.Latency) {
		t.Errorf("latency ordering broken: %v %v %v", lan.Latency, paris.Latency, ithaca.Latency)
	}
	if !(lan.Bandwidth > paris.Bandwidth && paris.Bandwidth > ithaca.Bandwidth) {
		t.Errorf("bandwidth ordering broken: %v %v %v", lan.Bandwidth, paris.Bandwidth, ithaca.Bandwidth)
	}
	// Every paper client can reach the primary.
	for _, client := range netsim.ClientHosts {
		if _, err := n.Listen(client, "x"); err != nil {
			t.Errorf("Listen on %s: %v", client, err)
		}
	}
	out := netsim.FormatTable1(n)
	for _, want := range []string{"ginger.cs.vu.nl", "canardo.inria.fr", "ensamble02.cornell.edu", "sporty.cs.vu.nl"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Errorf("FormatTable1 missing %q", want)
		}
	}
}

func TestClientLabel(t *testing.T) {
	if netsim.ClientLabel(netsim.AmsterdamSecondary) != "Amsterdam" ||
		netsim.ClientLabel(netsim.Paris) != "Paris" ||
		netsim.ClientLabel(netsim.Ithaca) != "Ithaca" {
		t.Error("ClientLabel mapping wrong")
	}
	if netsim.ClientLabel("other") != "other" {
		t.Error("ClientLabel default wrong")
	}
}

// sleepLog is a clock whose Sleep returns at once and records the delay
// it was asked for, so a test reads off what the simulator charged.
type sleepLog struct {
	clock.Clock
	mu    sync.Mutex
	slept []time.Duration
}

func (s *sleepLog) Sleep(d time.Duration) {
	s.mu.Lock()
	s.slept = append(s.slept, d)
	s.mu.Unlock()
}

func (s *sleepLog) count(d time.Duration) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, got := range s.slept {
		if got == d {
			n++
		}
	}
	return n
}

// Charged accounts what the simulator charges, at any time scale: a call
// on a fresh connection is two bursts — the first flight and the accept
// leading the response — each paying the link's latency once, and every
// byte on the wire its transfer time.
func TestChargedAccountsAnExchange(t *testing.T) {
	n := netsim.NewNetwork()
	n.TimeScale = 0
	link := netsim.LinkProfile{Latency: 30 * time.Millisecond, Bandwidth: 1e6}
	n.SetLink("a", "b", link)
	defer n.Close()
	l, err := n.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer()
	srv.Handle("get", func(body []byte) ([]byte, error) { return make([]byte, 20_000), nil })
	srv.Start(l)
	defer srv.Close()

	c := transport.NewClient(n.Dialer("a", "b:svc"))
	defer c.Close()
	before := n.Charged()
	if _, err := c.Call(context.Background(), "get", []byte("x")); err != nil {
		t.Fatal(err)
	}
	got := n.Charged().Sub(before)
	wire := int(c.BytesSent.Load()+c.BytesReceived.Load()) + 8 // frames, preamble and accept
	want := netsim.Charge{Bursts: 2, Latency: 2 * link.Latency, Transfer: link.TransferTime(wire)}
	if got != want {
		t.Errorf("one call on a fresh connection charged %+v, want %+v", got, want)
	}
}

// A frame too large to be coalesced leaves the transport as header and
// body. The simulator must charge the pair what it charged the joined
// frame — the transfer time of all its bytes, in one piece — whatever the
// connection's reader does meanwhile. On a fresh connection the response
// shares its burst, and so its one propagation delay, with the
// negotiation accept that leads it.
func TestSplitFrameIsChargedAsOneWrite(t *testing.T) {
	log := &sleepLog{Clock: clock.Real}
	n := netsim.NewNetwork()
	n.TimeScale = 1.0
	n.Clock = log
	link := netsim.LinkProfile{Latency: 30 * time.Millisecond, Bandwidth: 1e6}
	n.SetLink("a", "b", link)
	defer n.Close()
	l, err := n.Listen("b", "svc")
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewServer()
	srv.Handle("get", func(body []byte) ([]byte, error) { return make([]byte, 200_000), nil })
	srv.Start(l)
	defer srv.Close()

	c := transport.NewClient(n.Dialer("a", "b:svc"))
	defer c.Close()
	if _, err := c.Call(context.Background(), "get", nil); err != nil {
		t.Fatal(err)
	}
	frame := int(c.BytesReceived.Load()) // the response frame, headers included
	if want := link.TransferTime(frame); log.count(want) != 1 {
		t.Errorf("simulator slept %v; want one delay of %v for the %d-byte response frame", log.slept, want, frame)
	}
	if want := link.Latency + link.TransferTime(4); log.count(want) != 1 {
		t.Errorf("simulator slept %v; want the accept leading the response's burst to pay its one propagation delay, %v", log.slept, want)
	}
}
