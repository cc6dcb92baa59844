package netsim

// Deterministic fault injection for the simulated WAN.
//
// The clean-cut failures the simulator always supported (host down, link
// down) model crashes and partitions. Real wide-area paths also exhibit
// the messy middle: packets silently lost, connections reset mid-stream,
// latency spikes that stall a read for seconds, and the occasional
// flipped byte. A FaultPlan attached to a link injects exactly those
// behaviours into every connection crossing it.
//
// Everything is driven by a seedable RNG: each connection derives its own
// random stream from the network seed, the link endpoints and a per-link
// connection counter, and consumes it in write order. Re-running the same
// dial/write sequence against the same seed therefore reproduces the same
// drops, corruptions, stalls and resets byte for byte — a failing chaos
// run is replayable from its seed alone.

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net"
	"sort"
	"strings"
	"sync"
	"time"

	"globedoc/internal/clock"
)

// ErrConnReset is returned by a faulty connection once its reset budget
// is exhausted, modelling a TCP RST mid-stream.
var ErrConnReset = errors.New("netsim: connection reset by peer")

// FaultPlan describes the misbehaviour injected into connections over one
// link. The zero plan injects nothing. Probabilities are per Write call
// (the transport sends one frame per Write, so they are effectively
// per-frame probabilities).
type FaultPlan struct {
	// DropProb is the probability a written frame is silently discarded:
	// the writer believes it was sent, the reader never sees it.
	DropProb float64
	// CorruptProb is the probability a single byte of a written frame is
	// flipped in flight.
	CorruptProb float64
	// StallProb is the probability a write stalls for Stall before the
	// data moves — a latency spike.
	StallProb float64
	// Stall is the duration of an injected stall. It is multiplied by
	// the network's TimeScale when that is positive; at TimeScale 0
	// (tests that suppress link physics) the stall still applies at
	// face value — it is a fault, not propagation delay, and tests rely
	// on it to trip deadlines.
	Stall time.Duration
	// ResetAfterBytes, when positive, resets the connection once that
	// many bytes have been written on it — a replica crashing
	// mid-transfer.
	ResetAfterBytes int64
}

// Active reports whether the plan injects any fault.
func (p FaultPlan) Active() bool {
	return p.DropProb > 0 || p.CorruptProb > 0 || p.StallProb > 0 || p.ResetAfterBytes > 0
}

// FaultKind labels one injected fault in a trace.
type FaultKind string

// Fault kinds recorded in traces.
const (
	FaultDrop    FaultKind = "drop"
	FaultCorrupt FaultKind = "corrupt"
	FaultStall   FaultKind = "stall"
	FaultReset   FaultKind = "reset"
)

// FaultEvent records one injected fault: which connection, which write,
// what happened.
type FaultEvent struct {
	Link   string    // "a<->b"
	Conn   uint64    // per-link connection sequence number
	Side   string    // "client" or "server"
	Write  int       // write sequence number on that side of the conn
	Kind   FaultKind // what was injected
	Offset int       // corrupted byte offset (FaultCorrupt only)
}

// String renders the event compactly, e.g. "paris<->amsterdam-primary#2/client w3 drop".
func (e FaultEvent) String() string {
	s := fmt.Sprintf("%s#%d/%s w%d %s", e.Link, e.Conn, e.Side, e.Write, e.Kind)
	if e.Kind == FaultCorrupt {
		s += fmt.Sprintf("@%d", e.Offset)
	}
	return s
}

// FaultTrace accumulates injected fault events for assertions and replay
// comparison. Safe for concurrent use.
type FaultTrace struct {
	mu     sync.Mutex
	events []FaultEvent
}

// Events returns a copy of the recorded events.
func (t *FaultTrace) Events() []FaultEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]FaultEvent(nil), t.events...)
}

// Len returns the number of recorded events.
func (t *FaultTrace) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// String renders one event per line in a canonical order (sorted, so
// concurrent recording order does not matter), suitable for byte-for-byte
// replay comparison.
func (t *FaultTrace) String() string {
	evs := t.Events()
	lines := make([]string, len(evs))
	for i, e := range evs {
		lines[i] = e.String()
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Count returns how many recorded faults of kind hit side's writes over
// the link between a and b: "client" (the dialler's requests) or "server".
func (t *FaultTrace) Count(a, b, side string, kind FaultKind) int {
	key := linkKey(a, b)
	n := 0
	for _, e := range t.Events() {
		if e.Link == key[0]+"<->"+key[1] && e.Side == side && e.Kind == kind {
			n++
		}
	}
	return n
}

func (t *FaultTrace) record(e FaultEvent) {
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// SetFaults attaches plan to the link between a and b (both directions).
// Hosts are registered implicitly. Existing connections are unaffected;
// connections dialled afterwards inject the plan's faults.
func (n *Network) SetFaults(a, b string, plan FaultPlan) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.hosts[a] = true
	n.hosts[b] = true
	if n.faults == nil {
		n.faults = make(map[[2]string]FaultPlan)
	}
	n.faults[linkKey(a, b)] = plan
}

// ClearFaults removes any fault plan between a and b.
func (n *Network) ClearFaults(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.faults, linkKey(a, b))
}

// SetFaultSeed fixes the seed all subsequent connections derive their
// fault randomness from. Call before traffic starts; the same seed and
// the same connection/write sequence reproduce the same faults.
func (n *Network) SetFaultSeed(seed int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.faultSeed = seed
}

// TraceFaults starts recording every injected fault and returns the
// trace. Call before traffic starts.
func (n *Network) TraceFaults() *FaultTrace {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.trace = &FaultTrace{}
	return n.trace
}

// connSeed derives the deterministic RNG seed for one side of one
// connection over one link.
func connSeed(seed int64, link string, conn uint64, side string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d|%s", seed, link, conn, side)
	return int64(h.Sum64())
}

// faultConn injects the plan's faults into writes. Reads are clean: the
// peer's writes already carry the faults for that direction, exactly as
// the shaped conns charge latency.
type faultConn struct {
	net.Conn
	plan  FaultPlan
	clk   clock.Clock
	scale float64
	trace *FaultTrace
	link  string
	conn  uint64
	side  string

	mu       sync.Mutex
	rng      *rand.Rand
	written  int64
	writeSeq int
	reset    bool
}

func newFaultConn(c net.Conn, plan FaultPlan, clk clock.Clock, scale float64, trace *FaultTrace, link string, conn uint64, side string, seed int64) *faultConn {
	return &faultConn{
		Conn:  c,
		plan:  plan,
		clk:   clk,
		scale: scale,
		trace: trace,
		link:  link,
		conn:  conn,
		side:  side,
		rng:   rand.New(rand.NewSource(connSeed(seed, link, conn, side))),
	}
}

// NewFaultConn wraps c with deterministic fault injection. It is exported
// so tests outside the simulator (transport error paths, flaky-replica
// attack scenarios) can reuse the same fault machinery on plain pipes.
// trace may be nil.
func NewFaultConn(c net.Conn, plan FaultPlan, seed int64, trace *FaultTrace) net.Conn {
	return newFaultConn(c, plan, clock.Real, 1.0, trace, "wrapped", 0, "conn", seed)
}

func (c *faultConn) event(kind FaultKind, write, offset int) {
	if c.trace != nil {
		c.trace.record(FaultEvent{
			Link: c.link, Conn: c.conn, Side: c.side,
			Write: write, Kind: kind, Offset: offset,
		})
	}
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.reset {
		c.mu.Unlock()
		return 0, ErrConnReset
	}
	seq := c.writeSeq
	c.writeSeq++

	// Consume the random stream in a fixed order per write so the
	// decision sequence depends only on the seed and the write sequence.
	rDrop := c.rng.Float64()
	rCorrupt := c.rng.Float64()
	rStall := c.rng.Float64()
	rOffset := 0
	if len(p) > 0 {
		rOffset = c.rng.Intn(len(p))
	}

	if c.plan.ResetAfterBytes > 0 && c.written+int64(len(p)) > c.plan.ResetAfterBytes {
		c.reset = true
		c.mu.Unlock()
		c.event(FaultReset, seq, 0)
		c.Conn.Close()
		return 0, ErrConnReset
	}
	c.written += int64(len(p))

	drop := rDrop < c.plan.DropProb
	corrupt := !drop && rCorrupt < c.plan.CorruptProb
	stall := rStall < c.plan.StallProb
	c.mu.Unlock()

	if stall && c.plan.Stall > 0 {
		c.event(FaultStall, seq, 0)
		d := c.plan.Stall
		if c.scale > 0 {
			d = time.Duration(float64(d) * c.scale)
		}
		c.clk.Sleep(d)
	}
	if drop {
		// Swallow the frame: the writer sees success, the reader sees
		// nothing — detectable only by deadline.
		c.event(FaultDrop, seq, 0)
		return len(p), nil
	}
	if corrupt && len(p) > 0 {
		c.event(FaultCorrupt, seq, rOffset)
		mangled := append([]byte(nil), p...)
		mangled[rOffset] ^= 0xA5
		_, err := c.Conn.Write(mangled)
		return len(p), err
	}
	return c.Conn.Write(p)
}

// faultListener wraps every accepted connection with a fault plan —
// the building block for flaky (crashing, lossy) but honest servers.
type faultListener struct {
	net.Listener
	plan  FaultPlan
	seed  int64
	trace *FaultTrace

	mu   sync.Mutex
	next uint64
}

// FaultListener wraps l so every accepted connection injects plan,
// each with its own deterministic random stream derived from seed.
// trace may be nil.
func FaultListener(l net.Listener, plan FaultPlan, seed int64, trace *FaultTrace) net.Listener {
	return &faultListener{Listener: l, plan: plan, seed: seed, trace: trace}
}

func (l *faultListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	id := l.next
	l.next++
	l.mu.Unlock()
	return newFaultConn(c, l.plan, clock.Real, 1.0, l.trace, "listener", id, "server", l.seed), nil
}

// ScriptEvent is one timed action against the network — flip a link,
// crash a host, change a fault plan.
type ScriptEvent struct {
	// At is the event's offset from script start, measured on the
	// network's clock.
	At time.Duration
	// Do applies the event.
	Do func(n *Network)
}

// FlapLink builds a script that alternately severs and restores the
// a<->b link every period, for the given number of down/up cycles —
// "Paris<->Amsterdam flaps every 500 ms".
func FlapLink(a, b string, period time.Duration, cycles int) []ScriptEvent {
	var events []ScriptEvent
	at := period
	for i := 0; i < cycles; i++ {
		events = append(events, ScriptEvent{At: at, Do: func(n *Network) { n.SetLinkDown(a, b) }})
		at += period
		events = append(events, ScriptEvent{At: at, Do: func(n *Network) { n.SetLinkUp(a, b) }})
		at += period
	}
	return events
}

// RunScript applies events in At order, sleeping on the network's clock
// between them. It returns a stop function that halts the script and
// waits for its goroutine to exit. With a fake clock the script advances
// only when the test advances the clock, making schedules fully
// deterministic.
func (n *Network) RunScript(events []ScriptEvent) (stop func()) {
	sorted := append([]ScriptEvent(nil), events...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })
	stopCh := make(chan struct{})
	done := make(chan struct{})
	clk := n.clockOrReal()
	go func() {
		defer close(done)
		elapsed := time.Duration(0)
		for _, ev := range sorted {
			if d := ev.At - elapsed; d > 0 {
				select {
				case <-clk.After(d):
				case <-stopCh:
					return
				}
			}
			elapsed = ev.At
			select {
			case <-stopCh:
				return
			default:
			}
			ev.Do(n)
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() { close(stopCh) })
		<-done
	}
}
