package server

import (
	"context"
	"sync"
	"time"

	"globedoc/internal/enc"
	"globedoc/internal/globeid"
)

// OpWaitVersion is the long-poll consistency operation: the request
// carries (OID, known version, timeout); the reply carries the current
// version, sent immediately if it already exceeds the known version and
// otherwise as soon as an update lands or the timeout lapses. Combined
// with Puller this turns pull consistency into push-latency invalidation
// — the "server invalidation" strategy of ref [13] — without giving the
// untrusted server a channel to push unsolicited (unverifiable) data:
// the reply is just a version number; the replica still pulls and
// validates the bundle itself.
const OpWaitVersion = "obj.waitversion"

// MaxWaitVersion bounds how long a single long-poll may park.
const MaxWaitVersion = 5 * time.Minute

// versionWaiters tracks parked long-polls per object.
type versionWaiters struct {
	mu      sync.Mutex
	waiters map[globeid.OID][]chan struct{}
}

func newVersionWaiters() *versionWaiters {
	return &versionWaiters{waiters: make(map[globeid.OID][]chan struct{})}
}

// wait returns a channel closed at the next update notification for oid,
// plus a cancel function that unsubscribes the channel. A waiter that
// returns without being notified — timeout, cancelled long-poll, early
// answer — MUST call cancel, or its channel would sit in the map until
// the next update for that OID (or forever, for an object never updated
// again): the long-poll waiter leak. cancel is idempotent and safe to
// call after notify.
func (v *versionWaiters) wait(oid globeid.OID) (<-chan struct{}, func()) {
	ch := make(chan struct{})
	v.mu.Lock()
	v.waiters[oid] = append(v.waiters[oid], ch)
	v.mu.Unlock()
	cancel := func() {
		v.mu.Lock()
		defer v.mu.Unlock()
		list := v.waiters[oid]
		for i, c := range list {
			if c == ch {
				list[i] = list[len(list)-1]
				list[len(list)-1] = nil
				v.waiters[oid] = list[:len(list)-1]
				break
			}
		}
		if len(v.waiters[oid]) == 0 {
			delete(v.waiters, oid)
		}
	}
	return ch, cancel
}

// notify wakes every parked waiter for oid.
func (v *versionWaiters) notify(oid globeid.OID) {
	v.mu.Lock()
	chans := v.waiters[oid]
	delete(v.waiters, oid)
	v.mu.Unlock()
	for _, ch := range chans {
		close(ch)
	}
}

// pending reports how many waiters are parked for oid (leak tests).
func (v *versionWaiters) pending(oid globeid.OID) int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.waiters[oid])
}

// handleWaitVersion parks until the hosted replica's version exceeds the
// caller's, an update notification arrives, or the timeout lapses; it
// always answers with the current version.
func (s *Server) handleWaitVersion(body []byte) ([]byte, error) {
	r := enc.NewReader(body)
	var oid globeid.OID
	copy(oid[:], r.Raw(globeid.Size))
	known := r.Uvarint()
	timeoutMillis := r.Uvarint()
	if err := r.Finish(); err != nil {
		return nil, err
	}
	deadline := time.NewTimer(clampWaitTimeout(time.Duration(timeoutMillis) * time.Millisecond))
	defer deadline.Stop()
	for {
		h, err := s.replica(oid)
		if err != nil {
			return nil, err
		}
		if v := h.head().header.Version; v > known {
			return encodeVersion(v), nil
		}
		updated, cancelWait := s.waiters.wait(oid)
		// Re-check after subscribing: an update may have landed between
		// the version read and the subscription.
		if v := h.head().header.Version; v > known {
			cancelWait()
			return encodeVersion(v), nil
		}
		select {
		case <-updated:
			// Loop to read the fresh version.
		case <-deadline.C:
			// Sweep the subscription: without this, every timed-out
			// long-poll leaves a dead channel parked until the next
			// update for the OID.
			cancelWait()
			return encodeVersion(h.head().header.Version), nil
		}
	}
}

// clampWaitTimeout bounds a client-requested long-poll timeout to
// (0, MaxWaitVersion]: non-positive and over-limit requests both park
// for the maximum.
func clampWaitTimeout(d time.Duration) time.Duration {
	if d <= 0 || d > MaxWaitVersion {
		return MaxWaitVersion
	}
	return d
}

// WaitVersion long-polls the primary at the puller's address until its
// version exceeds known (or the timeout lapses) and returns the current
// remote version.
func (p *Puller) WaitVersion(ctx context.Context, known uint64, timeout time.Duration) (uint64, error) {
	w := enc.NewWriter(32)
	w.Raw(p.oid[:])
	w.Uvarint(known)
	w.Uvarint(uint64(timeout / time.Millisecond))
	body, err := p.client.Call(ctx, OpWaitVersion, w.Bytes())
	if err != nil {
		return 0, err
	}
	return decodeVersion(body)
}

// RunInvalidationLoop keeps the local replica synchronized with
// push-latency: it long-polls the primary for version changes and pulls
// (with full validation) whenever one is signalled. It returns when stop
// is closed or ctx is cancelled.
func (p *Puller) RunInvalidationLoop(ctx context.Context, stop <-chan struct{}, pollTimeout time.Duration) {
	for {
		select {
		case <-stop:
			return
		case <-ctx.Done():
			return
		default:
		}
		h, err := p.server.replica(p.oid)
		if err != nil {
			return // replica withdrawn locally
		}
		local := h.head().header.Version
		remote, err := p.WaitVersion(ctx, local, pollTimeout)
		if err != nil {
			p.failures.Add(1)
			select {
			case <-stop:
				return
			case <-ctx.Done():
				return
			case <-time.After(pollTimeout / 4):
				continue // back off briefly, then retry
			}
		}
		if remote > local {
			if _, err := p.CheckOnce(ctx); err != nil {
				p.failures.Add(1)
			}
		}
	}
}
