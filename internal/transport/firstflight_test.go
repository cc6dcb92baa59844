package transport

import (
	"net"
	"testing"

	"globedoc/internal/telemetry"
)

// TestHangUpLatchesOnlyAfterTheFirstFlightFlew drives a negotiating
// connection's read loop into a reset before any accept. The first call
// has always taken the preamble by then, but only a write that put some
// of it on the wire showed it to the peer: only then is the reset a
// hang-up on the preamble, which latches preV2Peer and counts a fallback.
// A first write that failed before sending a byte latches nothing, even
// when the read loop sees the reset before the writer fails the
// connection.
func TestHangUpLatchesOnlyAfterTheFirstFlightFlew(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flown bool
	}{
		{"nothing sent", false},
		{"first flight sent", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tel := telemetry.New(nil)
			c := NewClient(nil).Configure(Config{Telemetry: tel})
			client, server := net.Pipe()
			pc := &poolConn{c: c, conn: client, version: V2, negotiating: true, budget: 1,
				streams: make(map[uint32]chan streamResult)}
			pc.flown = tc.flown // the first call took the preamble either way
			server.Close()
			pc.readLoop(client)

			var fallbacks uint64
			if tc.flown {
				fallbacks = 1
			}
			if got := c.preV2Peer.Load(); got != tc.flown {
				t.Errorf("preV2Peer = %v, want %v", got, tc.flown)
			}
			if got := tel.Negotiations.With("fallback").Value(); got != fallbacks {
				t.Errorf("negotiations{fallback} = %d, want %d", got, fallbacks)
			}
			if !pc.dead {
				t.Error("the reset left the connection alive")
			}
		})
	}
}
