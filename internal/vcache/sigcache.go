package vcache

import (
	"sync"
	"time"

	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/lru"
	"globedoc/internal/telemetry"
)

// sigCache memoizes successful signature verifications. The key is the
// concatenated audited digests of (public key, message, signature), so a
// verdict can never be replayed for different bytes. Only successes are
// cached: a forged signature must fail the full check every time, and
// caching failures would let an attacker pin garbage in the LRU.
//
// Concurrent misses for the same key are singleflighted: one goroutine
// runs the (expensive, CPU-bound) verification while the rest wait on
// its result. The wait has no context hook — verification is a local
// computation of bounded cost, not an RPC.
type sigCache struct {
	mu      sync.Mutex
	max     int
	entries map[memoKey]*lru.Node[sigEntry]
	lru     lru.List[sigEntry] // front = most recently used
	flights map[memoKey]*sigFlight

	hits *telemetry.Counter
}

// memoKey is a (public key, message, signature) triple's digests, in
// that order: see sigKey.
type memoKey = [3 * globeid.Size]byte

// sigEntry records one verified (key, message, signature) triple and the
// end of the validity window it was verified for.
type sigEntry struct {
	key     memoKey
	expires time.Time // zero = no bound
}

type sigFlight struct {
	done chan struct{}
	err  error
}

func (s *sigCache) init(max int) {
	s.max = max
	s.entries = make(map[memoKey]*lru.Node[sigEntry])
	s.flights = make(map[memoKey]*sigFlight)
}

func (s *sigCache) wireMetrics(hits *telemetry.Counter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hits == nil {
		s.hits = hits
	}
}

// VerifySignature is pk.Verify(message, sig) memoized per validity
// window. validUntil bounds how long a success may be replayed from
// cache — pass the certificate's expiry so "checked once per validity
// window" holds exactly; a zero validUntil never expires.
func (c *Cache) VerifySignature(pk keys.PublicKey, message, sig []byte, validUntil, now time.Time) error {
	return c.sig.verify(pk, message, sig, validUntil, now)
}

// SigLen returns the number of memoized signature verdicts.
func (c *Cache) SigLen() int {
	c.sig.mu.Lock()
	defer c.sig.mu.Unlock()
	return len(c.sig.entries)
}

func (s *sigCache) verify(pk keys.PublicKey, message, sig []byte, validUntil, now time.Time) error {
	key := sigKey(pk, message, sig)
	for {
		s.mu.Lock()
		if node, ok := s.entries[key]; ok {
			if e := &node.Value; e.expires.IsZero() || !now.After(e.expires) {
				s.lru.MoveToFront(node)
				hits := s.hits
				s.mu.Unlock()
				hits.Inc()
				return nil
			}
			// The verified window lapsed; the verdict no longer covers
			// this check.
			s.lru.Remove(node)
			delete(s.entries, key)
		}
		if f, ok := s.flights[key]; ok {
			s.mu.Unlock()
			<-f.done
			if f.err != nil {
				return f.err
			}
			// The leader verified these exact bytes; sharing its success
			// is a cache hit. Loop to pick up the cached entry so the
			// expiry check still applies.
			continue
		}
		f := &sigFlight{done: make(chan struct{})}
		s.flights[key] = f
		s.mu.Unlock()

		err := pk.Verify(message, sig)

		s.mu.Lock()
		delete(s.flights, key)
		if err == nil {
			s.insertLocked(key, validUntil)
		}
		s.mu.Unlock()
		f.err = err
		close(f.done)
		return err
	}
}

func (s *sigCache) insertLocked(key memoKey, expires time.Time) {
	if node, ok := s.entries[key]; ok {
		node.Value.expires = expires
		s.lru.MoveToFront(node)
		return
	}
	s.entries[key] = s.lru.PushFront(sigEntry{key: key, expires: expires})
	for len(s.entries) > s.max {
		tail := s.lru.Back()
		if tail == nil {
			break
		}
		s.lru.Remove(tail)
		delete(s.entries, tail.Value.key)
	}
}

// sigKey derives the memoization key from the audited element digest
// over each component, length-prefix-free because the digests are
// fixed-size. The key is a value: it costs no allocation.
func sigKey(pk keys.PublicKey, message, sig []byte) (key memoKey) {
	kh := globeid.HashElement(pk.Marshal())
	mh := globeid.HashElement(message)
	sh := globeid.HashElement(sig)
	copy(key[:], kh[:])
	copy(key[globeid.Size:], mh[:])
	copy(key[2*globeid.Size:], sh[:])
	return key
}
