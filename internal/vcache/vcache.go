// Package vcache implements the verified-content cache: reuse of bytes
// and signature verdicts that the GlobeDoc security pipeline has already
// paid to verify.
//
// The paper's evaluation attributes nearly all of GlobeDoc's overhead
// versus plain HTTP to per-request cryptography — the integrity
// certificate's signature check and the per-element SHA-1 verification
// (§3.2.2). The integrity certificate itself carries exactly what a cache
// needs to make warm fetches nearly crypto-free: a content address (the
// element hash, signed into the certificate) and a validity interval
// (freshness). This package exploits both:
//
//   - Cache is a bounded, content-addressed element cache keyed by the
//     certificate's SHA-1 element hash. An entry is served only after the
//     caller has re-checked the CURRENT verified certificate's entry for
//     the requested name — the hash match IS the authenticity check, so
//     a hit costs neither an RPC nor a digest computation. Entry TTLs
//     track the certificate validity interval; when the interval lapses
//     the client revalidates by fetching a fresh certificate only, never
//     the element bytes. The cache takes ownership of the bytes it is
//     given and shares them out: nothing copies them in or out, and
//     nobody writes them once they are cached. Bytes counts every byte
//     an entry holds, content type included, so it is the payload memory
//     the cache pins as long as each caller hands over a buffer that
//     holds little else. Elements that arrived together in one such
//     buffer share it through a Frame, which the cache charges once for
//     as long as any of them is held.
//   - The same Cache memoizes signature verification verdicts (see
//     sigcache.go): a bounded LRU keyed by (public key, message,
//     signature) digests with singleflight on misses, so one certificate
//     signature is checked once per validity window no matter how many
//     fetches reuse it.
//
// Freshness-handling follows the signed-document approach of Berbecaru &
// Marian (PAPERS.md): the signature's validity interval, not the bytes'
// transport, decides reuse.
//
// This package is verify-only by project invariant (globedoclint
// cryptoscope): it may consume the audited digest types from
// internal/globeid and verify through internal/keys, but it must never
// produce a signature.
//
// All methods are safe for concurrent use. The cache never reads the
// wall clock: callers pass `now`, so fault-injection replays stay
// deterministic.
package vcache

import (
	"sync"
	"time"

	"globedoc/internal/globeid"
	"globedoc/internal/lru"
	"globedoc/internal/telemetry"
)

// Default capacity bounds.
const (
	// DefaultMaxBytes bounds the summed element bytes retained.
	DefaultMaxBytes = 64 << 20
	// DefaultMaxSignatures bounds the memoized signature verdicts.
	DefaultMaxSignatures = 4096
)

// Element is the cached unit: verified content plus the (unverified,
// advisory) content type it was served with. Frame, when set, is the
// buffer Data is a window onto, shared with sibling elements.
type Element struct {
	ContentType string
	Data        []byte
	Frame       *Frame
}

// size is what the cache charges for e alone: every byte it holds. The
// content type counts because a replica chooses it, at any length.
func (e Element) size() int64 { return int64(len(e.ContentType) + len(e.Data)) }

// own is what the cache charges for e beside its frame: its content type,
// and its data too unless the frame's charge covers them.
func (e Element) own() int64 {
	if e.Frame != nil {
		return int64(len(e.ContentType))
	}
	return e.size()
}

// Frame is one buffer that several elements put into the cache are
// windows onto, such as the reply frame a batch of elements arrived in.
// The cache charges it once, while any of them is held, and releases the
// charge with the last. Construct with Cache.NewFrame; a Frame belongs
// to the cache that made it.
type Frame struct {
	cache  *Cache
	charge int64 // the element bytes of the buffer
	refs   int   // entries holding it; guarded by cache.mu
}

// NewFrame returns the handle for one buffer whose elements, charge
// bytes of data together, the caller will Put with it. The caller keeps
// the buffer little more than those bytes, or the cache pins more than
// Bytes says.
func (c *Cache) NewFrame(charge int64) *Frame { return &Frame{cache: c, charge: charge} }

// Config sizes a Cache. The zero value uses the documented defaults.
type Config struct {
	// MaxBytes bounds the summed cached element bytes, content types
	// included (0 = DefaultMaxBytes).
	MaxBytes int64
	// MaxSignatures bounds the memoized signature verdicts
	// (0 = DefaultMaxSignatures).
	MaxSignatures int
}

// entry is one cached element, tagged with the object whose verified
// certificate vouched for it (the invalidation handle). It lives inline
// in its LRU node, the one heap object an entry costs, and links that
// node into the chain of entries tagged with the same object.
type entry struct {
	hash    [globeid.Size]byte
	oid     globeid.OID
	elem    Element
	expires time.Time // latest verified validity bound; zero = no bound

	// oidPrev and oidNext are the neighbours in oid's chain, which
	// Cache.byOID heads.
	oidPrev, oidNext *lru.Node[entry]
}

// node is an entry in the cache's LRU list.
type node = lru.Node[entry]

// Cache is the verified-content cache. Construct with New; the zero
// value is not usable.
type Cache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	entries  map[[globeid.Size]byte]*node
	lru      lru.List[entry] // front = most recently used
	// byOID heads each object's chain of the entries tagged with it.
	byOID map[globeid.OID]*node

	evictions  *telemetry.Counter
	bytesGauge *telemetry.Gauge

	sig sigCache
}

// New returns an empty cache sized by cfg.
func New(cfg Config) *Cache {
	if cfg.MaxBytes == 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.MaxSignatures == 0 {
		cfg.MaxSignatures = DefaultMaxSignatures
	}
	c := &Cache{
		maxBytes: cfg.MaxBytes,
		entries:  make(map[[globeid.Size]byte]*node),
		byOID:    make(map[globeid.OID]*node),
	}
	c.sig.init(cfg.MaxSignatures)
	return c
}

// WireMetrics attaches nil-safe telemetry instruments: evictions counts
// every entry removed by capacity pressure or invalidation
// (vcache_evictions_total), bytes follows Bytes (vcache_bytes), sigHits
// counts memoized signature verdicts served without running crypto
// (signature_cache_hits_total). Fields already wired are kept, so
// several clients can share one cache.
func (c *Cache) WireMetrics(evictions *telemetry.Counter, bytes *telemetry.Gauge, sigHits *telemetry.Counter) {
	c.mu.Lock()
	if c.evictions == nil {
		c.evictions = evictions
	}
	if c.bytesGauge == nil {
		c.bytesGauge = bytes
		c.bytesGauge.Set(c.bytes)
	}
	c.mu.Unlock()
	c.sig.wireMetrics(sigHits)
}

// Get returns the cached element for a content hash the caller has just
// re-verified against the object's CURRENT integrity certificate.
// validUntil is that certificate entry's expiry; the cached entry's TTL
// is re-armed to it, which is how a certificate-only revalidation
// re-freshens bytes without moving them.
//
// The returned Data is the slice Put kept, shared with the cache and
// every other hit: it is read-only.
func (c *Cache) Get(hash [globeid.Size]byte, now, validUntil time.Time) (Element, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.entries[hash]
	if !ok {
		return Element{}, false
	}
	n.Value.expires = validUntil
	c.lru.MoveToFront(n)
	return n.Value.elem, true
}

// Contains reports whether the content hash is cached, without promoting
// the entry or re-arming its TTL: a probe that leaves the cache as it
// was.
func (c *Cache) Contains(hash [globeid.Size]byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[hash]
	return ok
}

// Holds reports whether any cached element is tagged with oid. A client
// binding to oid asks for element bytes only when it holds none: a
// certificate refresh over cached bytes moves only the certificate.
func (c *Cache) Holds(oid globeid.OID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.byOID[oid] != nil
}

// Put stores a freshly verified element under its certificate hash,
// tagged with the object it was verified for. validUntil is the
// certificate entry's expiry. Put takes ownership of elem.Data without
// copying it: from then on the bytes are immutable, for the caller as
// for everyone Get hands them to. The cache charges the element's
// content type and data, so a caller whose slice is a window onto a much
// larger buffer hands over a clone instead, or the cache pins more than
// Bytes says. A window onto a buffer that sibling elements share comes
// with the buffer's Frame instead: the first Put of the frame charges
// its element bytes, each sibling adds its content type. A frame larger
// than the whole cache budget, or one another cache made, is not kept:
// Put keeps an exact-size copy of the element instead. Elements larger
// than the whole cache budget are not retained.
func (c *Cache) Put(oid globeid.OID, hash [globeid.Size]byte, elem Element, validUntil time.Time) {
	if elem.size() > c.maxBytes {
		return
	}
	if f := elem.Frame; f != nil && (f.cache != c || f.charge+elem.own() > c.maxBytes) {
		data := make([]byte, len(elem.Data))
		copy(data, elem.Data)
		elem = Element{ContentType: elem.ContentType, Data: data}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.holdLocked(elem)
	if n, ok := c.entries[hash]; ok {
		c.untagLocked(n)
		c.releaseLocked(n.Value.elem)
		n.Value.oid = oid
		n.Value.elem = elem
		n.Value.expires = validUntil
		c.tagLocked(n)
		c.lru.MoveToFront(n)
	} else {
		n := c.lru.PushFront(entry{hash: hash, oid: oid, elem: elem, expires: validUntil})
		c.entries[hash] = n
		c.tagLocked(n)
	}
	for c.bytes > c.maxBytes {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.removeLocked(tail)
	}
}

// InvalidateOID drops every entry verified under oid's certificate —
// called when a binding to that object fails over or fails a security
// check, so nothing vouched for by a now-distrusted interaction
// survives.
func (c *Cache) InvalidateOID(oid globeid.OID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := c.byOID[oid]; n != nil; {
		next := n.Value.oidNext
		c.removeLocked(n)
		n = next
	}
}

// Reconcile drops every entry tagged with oid whose hash the object's
// freshly verified certificate no longer lists — the "cache loses to
// revocation" rule: a superseded certificate version immediately stops
// vouching for its old bytes.
func (c *Cache) Reconcile(oid globeid.OID, listed map[[globeid.Size]byte]bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := c.byOID[oid]; n != nil; {
		next := n.Value.oidNext
		if !listed[n.Value.hash] {
			c.removeLocked(n)
		}
		n = next
	}
}

// Purge drops entries whose last verified validity bound is behind now.
// Expiry is advisory (every Get is gated by a current-certificate
// freshness check first); Purge just returns the memory early.
func (c *Cache) Purge(now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n := c.lru.Back(); n != nil; {
		prev := n.Prev()
		if e := &n.Value; !e.expires.IsZero() && now.After(e.expires) {
			c.removeLocked(n)
		}
		n = prev
	}
}

// Len returns the number of cached elements.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Bytes returns the summed size of the cached elements, content types
// and data, each shared frame counted once, which the vcache_bytes gauge
// follows.
func (c *Cache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// tagLocked links n in at the head of its object's chain.
func (c *Cache) tagLocked(n *node) {
	e := &n.Value
	head := c.byOID[e.oid]
	e.oidPrev, e.oidNext = nil, head
	if head != nil {
		head.Value.oidPrev = n
	}
	c.byOID[e.oid] = n
}

// untagLocked unlinks n from its object's chain, and drops the chain
// with its last entry.
func (c *Cache) untagLocked(n *node) {
	e := &n.Value
	switch {
	case e.oidPrev != nil:
		e.oidPrev.Value.oidNext = e.oidNext
	case e.oidNext != nil:
		c.byOID[e.oid] = e.oidNext
	default:
		delete(c.byOID, e.oid)
	}
	if e.oidNext != nil {
		e.oidNext.Value.oidPrev = e.oidPrev
	}
	e.oidPrev, e.oidNext = nil, nil
}

func (c *Cache) removeLocked(n *node) {
	c.lru.Remove(n)
	delete(c.entries, n.Value.hash)
	c.untagLocked(n)
	c.releaseLocked(n.Value.elem)
	c.evictions.Inc()
}

// holdLocked charges a newly held elem: its own bytes, and its frame's
// when no other entry holds the frame yet.
func (c *Cache) holdLocked(elem Element) {
	delta := elem.own()
	if f := elem.Frame; f != nil {
		if f.refs == 0 {
			delta += f.charge
		}
		f.refs++
	}
	c.addBytesLocked(delta)
}

// releaseLocked undoes holdLocked for an elem no longer held: its frame's
// charge goes with the last entry holding the frame.
func (c *Cache) releaseLocked(elem Element) {
	delta := -elem.own()
	if f := elem.Frame; f != nil {
		if f.refs--; f.refs == 0 {
			delta -= f.charge
		}
	}
	c.addBytesLocked(delta)
}

// addBytesLocked moves the byte count, and the gauge with it, by delta.
func (c *Cache) addBytesLocked(delta int64) {
	c.bytes += delta
	c.bytesGauge.Set(c.bytes)
}
