// Package netsim is an in-memory wide-area network simulator.
//
// The paper's evaluation ran on four physical hosts in Amsterdam, Paris
// and Ithaca (Table 1). This package substitutes that testbed with
// latency- and bandwidth-shaped in-process connections: every Dial between
// two simulated hosts produces a pipe whose writes are delayed by the
// link's one-way latency plus a serialization delay proportional to the
// bytes written. Because the GlobeDoc wire protocol sends one frame per
// Write, an RPC over a shaped link costs exactly one round-trip plus
// transfer time — the quantity the paper's figures measure.
//
// A global TimeScale lets tests shrink all simulated delays uniformly
// while the benchmark binary runs them at full scale.
package netsim

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"globedoc/internal/clock"
)

// LinkProfile describes one direction of a host-to-host link.
type LinkProfile struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Bandwidth is the link throughput in bytes per second. Zero means
	// unlimited.
	Bandwidth float64
}

// RTT returns the round-trip time implied by the (symmetric) profile.
func (p LinkProfile) RTT() time.Duration { return 2 * p.Latency }

// TransferTime returns the serialization delay for n bytes.
func (p LinkProfile) TransferTime(n int) time.Duration {
	if p.Bandwidth <= 0 || n <= 0 {
		return 0
	}
	return time.Duration(float64(n) / p.Bandwidth * float64(time.Second))
}

// Errors reported by the simulator.
var (
	ErrNoListener  = errors.New("netsim: no listener at address")
	ErrNetClosed   = errors.New("netsim: network closed")
	ErrUnknownHost = errors.New("netsim: unknown host")
)

// Addr is the net.Addr implementation for simulated endpoints.
type Addr struct{ Name string }

// Network returns "globesim".
func (a Addr) Network() string { return "globesim" }

// String returns the simulated address, e.g. "amsterdam-primary:objsrv".
func (a Addr) String() string { return a.Name }

// Network is a set of named hosts connected by configurable links.
type Network struct {
	mu        sync.Mutex
	hosts     map[string]bool
	links     map[[2]string]LinkProfile
	listeners map[string]*listener
	downHosts map[string]bool
	downLinks map[[2]string]bool
	closed    bool

	// Fault injection state (see faults.go).
	faults    map[[2]string]FaultPlan
	faultSeed int64
	connSeq   map[[2]string]uint64
	trace     *FaultTrace

	// TimeScale multiplies every simulated delay. 1.0 reproduces the
	// configured latencies; tests typically use 0 (no sleeping) or a
	// small factor. Set before traffic starts.
	TimeScale float64

	// Clock drives simulated delays, injected stalls and fault scripts.
	// Defaults to the real clock; tests substitute a fake for fully
	// deterministic schedules. Set before traffic starts.
	Clock clock.Clock

	chargeMu sync.Mutex
	charged  Charge
}

// Charge totals the delays a network's shaped connections have charged,
// before TimeScale: every write that started a burst paid its link's
// one-way latency, and every byte its share of the link's bandwidth. It
// is the traffic's virtual network time, apart from how the scheduler
// ran the sleeps that carry it.
type Charge struct {
	Bursts   int64         // writes that started a burst, on either end
	Latency  time.Duration // the one-way latency those bursts paid
	Transfer time.Duration // the serialization delay of every byte written
}

// Sub returns what was charged between an earlier reading and c.
func (c Charge) Sub(earlier Charge) Charge {
	return Charge{
		Bursts:   c.Bursts - earlier.Bursts,
		Latency:  c.Latency - earlier.Latency,
		Transfer: c.Transfer - earlier.Transfer,
	}
}

// Charged returns what the network's shaped connections have charged so
// far; the difference of two readings is what the traffic between them
// cost.
func (n *Network) Charged() Charge {
	n.chargeMu.Lock()
	defer n.chargeMu.Unlock()
	return n.charged
}

func (n *Network) charge(burst bool, latency, transfer time.Duration) {
	n.chargeMu.Lock()
	if burst {
		n.charged.Bursts++
		n.charged.Latency += latency
	}
	n.charged.Transfer += transfer
	n.chargeMu.Unlock()
}

// NewNetwork returns an empty network with TimeScale 1.
func NewNetwork() *Network {
	return &Network{
		hosts:     make(map[string]bool),
		links:     make(map[[2]string]LinkProfile),
		listeners: make(map[string]*listener),
		downHosts: make(map[string]bool),
		downLinks: make(map[[2]string]bool),
		connSeq:   make(map[[2]string]uint64),
		TimeScale: 1.0,
		Clock:     clock.Real,
	}
}

// clockOrReal returns the configured clock, defaulting to the real one.
func (n *Network) clockOrReal() clock.Clock {
	if n.Clock != nil {
		return n.Clock
	}
	return clock.Real
}

// SetHostDown marks a host as crashed: dials to and from it fail until
// SetHostUp. Existing connections are unaffected (a partition, not a
// connection reset), matching the failure model of a crashed or
// unreachable object server.
func (n *Network) SetHostDown(host string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.downHosts[host] = true
}

// SetHostUp clears a host's crashed state.
func (n *Network) SetHostUp(host string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.downHosts, host)
}

// SetLinkDown severs the link between two hosts: dials between them fail
// until SetLinkUp.
func (n *Network) SetLinkDown(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.downLinks[linkKey(a, b)] = true
}

// SetLinkUp restores a severed link.
func (n *Network) SetLinkUp(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.downLinks, linkKey(a, b))
}

// AddHost registers a host name.
func (n *Network) AddHost(host string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[host] = true
}

// Hosts returns the registered host names (unordered).
func (n *Network) Hosts() []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	hosts := make([]string, 0, len(n.hosts))
	for h := range n.hosts {
		hosts = append(hosts, h)
	}
	return hosts
}

// SetLink configures the symmetric link between hosts a and b. Hosts are
// registered implicitly.
func (n *Network) SetLink(a, b string, p LinkProfile) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[a] = true
	n.hosts[b] = true
	n.links[linkKey(a, b)] = p
}

// Link returns the profile between two hosts. The intra-host link is the
// zero profile (no delay).
func (n *Network) Link(a, b string) LinkProfile {
	if a == b {
		return LinkProfile{}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.links[linkKey(a, b)]
}

func linkKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// HostOf extracts the host part of a simulated address "host:service".
func HostOf(addr string) string {
	host, _, ok := strings.Cut(addr, ":")
	if !ok {
		return addr
	}
	return host
}

// Listen creates a listener at "host:service". The host must already be
// known to the network (via AddHost or SetLink).
func (n *Network) Listen(host, service string) (net.Listener, error) {
	addr := host + ":" + service
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, ErrNetClosed
	}
	if !n.hosts[host] {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, host)
	}
	if _, exists := n.listeners[addr]; exists {
		return nil, fmt.Errorf("netsim: address %q already in use", addr)
	}
	l := &listener{
		net:    n,
		addr:   Addr{Name: addr},
		accept: make(chan net.Conn, 16),
		done:   make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects fromHost to the listener at addr ("host:service"),
// returning the client end of a shaped pipe. The returned connection's
// writes incur the link's one-way latency plus serialization delay; the
// server end is shaped identically, so a request/response exchange costs
// one full round trip.
func (n *Network) Dial(fromHost, addr string) (net.Conn, error) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, ErrNetClosed
	}
	if !n.hosts[fromHost] {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, fromHost)
	}
	l, ok := n.listeners[addr]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNoListener, addr)
	}
	toHost := HostOf(addr)
	if n.downHosts[fromHost] || n.downHosts[toHost] {
		n.mu.Unlock()
		return nil, fmt.Errorf("netsim: host unreachable dialing %q from %q", addr, fromHost)
	}
	if fromHost != toHost && n.downLinks[linkKey(fromHost, toHost)] {
		n.mu.Unlock()
		return nil, fmt.Errorf("netsim: link down between %q and %q", fromHost, toHost)
	}
	scale := n.TimeScale
	key := linkKey(fromHost, toHost)
	plan := n.faults[key]
	seed := n.faultSeed
	trace := n.trace
	var connID uint64
	if plan.Active() {
		connID = n.connSeq[key]
		n.connSeq[key]++
	}
	n.mu.Unlock()

	clk := n.clockOrReal()
	profile := n.Link(fromHost, HostOf(addr))
	clientRaw, serverRaw := net.Pipe()
	var client net.Conn = &shapedConn{
		Conn:    clientRaw,
		network: n,
		prof:    profile,
		scale:   scale,
		clk:     clk,
		local:   Addr{Name: fromHost + ":client"},
		remote:  Addr{Name: addr},
	}
	var server net.Conn = &shapedConn{
		Conn:    serverRaw,
		network: n,
		prof:    profile,
		scale:   scale,
		clk:     clk,
		local:   Addr{Name: addr},
		remote:  Addr{Name: fromHost + ":client"},
	}
	if plan.Active() {
		link := key[0] + "<->" + key[1]
		client = newFaultConn(client, plan, clk, scale, trace, link, connID, "client", seed)
		server = newFaultConn(server, plan, clk, scale, trace, link, connID, "server", seed)
	}
	select {
	case l.accept <- server:
		return client, nil
	case <-l.done:
		client.Close()
		server.Close()
		return nil, fmt.Errorf("%w: %q", ErrNoListener, addr)
	}
}

// Dialer returns a transport.DialFunc-compatible closure dialing addr
// from fromHost.
func (n *Network) Dialer(fromHost, addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return n.Dial(fromHost, addr) }
}

// Close shuts down the network: all listeners stop accepting.
func (n *Network) Close() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return
	}
	n.closed = true
	for addr, l := range n.listeners {
		l.closeLocked()
		delete(n.listeners, addr)
	}
}

func (n *Network) removeListener(addr string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.listeners, addr)
}

type listener struct {
	net     *Network
	addr    Addr
	accept  chan net.Conn
	done    chan struct{}
	closeMu sync.Mutex
	closed  bool
}

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *listener) Close() error {
	l.net.removeListener(l.addr.Name)
	l.closeLocked()
	return nil
}

func (l *listener) closeLocked() {
	l.closeMu.Lock()
	defer l.closeMu.Unlock()
	if !l.closed {
		l.closed = true
		close(l.done)
	}
}

func (l *listener) Addr() net.Addr { return l.addr }

// shapedConn delays writes by the link's serialization time, plus the
// one-way propagation latency on each direction turnaround, all scaled by
// the network's TimeScale. Charging latency only on turnaround (the first
// write after a read, or the first write ever) models a pipelined link: a
// writer streaming a large response in many small chunks pays bandwidth
// for every chunk but propagation only once, while a request/response
// exchange pays exactly one RTT. Reads are unshaped: the peer's writes
// already carry the delay for their direction.
type shapedConn struct {
	net.Conn
	network *Network // keeps the account of what this end charges
	prof    LinkProfile
	scale   float64
	clk     clock.Clock
	local   Addr
	remote  Addr

	mu      sync.Mutex
	midSend bool // true while consecutive writes form one burst
}

func (c *shapedConn) Write(p []byte) (int, error) {
	c.shape(len(p))
	return c.Conn.Write(p)
}

// WriteBuffers sends bufs as one burst: it charges what one Write of
// their concatenation would, then writes them in order. The transport
// sends a large frame's header and body this way, so a Read that
// completes between the two cannot restart the burst and charge the
// frame a second propagation delay.
func (c *shapedConn) WriteBuffers(bufs ...[]byte) (int, error) {
	total := 0
	for _, b := range bufs {
		total += len(b)
	}
	c.shape(total)
	written := 0
	for _, b := range bufs {
		n, err := c.Conn.Write(b)
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// shape sleeps for the delay a write of n bytes incurs now.
func (c *shapedConn) shape(n int) {
	c.mu.Lock()
	transfer := c.prof.TransferTime(n)
	burst := !c.midSend
	c.midSend = true
	c.mu.Unlock()
	delay := transfer
	if burst {
		delay += c.prof.Latency
	}
	c.network.charge(burst, c.prof.Latency, transfer)
	if c.scale > 0 && delay > 0 {
		c.clk.Sleep(time.Duration(float64(delay) * c.scale))
	}
}

func (c *shapedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.mu.Lock()
	c.midSend = false
	c.mu.Unlock()
	return n, err
}

func (c *shapedConn) LocalAddr() net.Addr  { return c.local }
func (c *shapedConn) RemoteAddr() net.Addr { return c.remote }
