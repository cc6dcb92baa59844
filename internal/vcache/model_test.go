package vcache

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/telemetry"
)

// The reference model: the element cache and the signature memo as they
// were built on container/list, with a hash set per object and string
// memo keys. The fuzzer below drives the cache and the model with the
// same operations and requires them to agree after every one.

type refElement struct {
	ContentType string
	Data        []byte
	Frame       *refFrame
}

func (e refElement) size() int64 { return int64(len(e.ContentType) + len(e.Data)) }

func (e refElement) own() int64 {
	if e.Frame != nil {
		return int64(len(e.ContentType))
	}
	return e.size()
}

type refFrame struct {
	cache  *refCache
	charge int64
	refs   int
}

type refEntry struct {
	hash    [globeid.Size]byte
	oid     globeid.OID
	elem    refElement
	expires time.Time
}

type refCache struct {
	maxBytes  int64
	bytes     int64
	evictions int
	entries   map[[globeid.Size]byte]*list.Element
	lru       list.List // of *refEntry; front = most recently used
	byOID     map[globeid.OID]map[[globeid.Size]byte]struct{}
}

func newRefCache(maxBytes int64) *refCache {
	return &refCache{
		maxBytes: maxBytes,
		entries:  make(map[[globeid.Size]byte]*list.Element),
		byOID:    make(map[globeid.OID]map[[globeid.Size]byte]struct{}),
	}
}

func (c *refCache) newFrame(charge int64) *refFrame { return &refFrame{cache: c, charge: charge} }

func (c *refCache) Get(hash [globeid.Size]byte, validUntil time.Time) (refElement, bool) {
	node, ok := c.entries[hash]
	if !ok {
		return refElement{}, false
	}
	e := node.Value.(*refEntry)
	e.expires = validUntil
	c.lru.MoveToFront(node)
	return e.elem, true
}

func (c *refCache) Contains(hash [globeid.Size]byte) bool {
	_, ok := c.entries[hash]
	return ok
}

func (c *refCache) Holds(oid globeid.OID) bool { return len(c.byOID[oid]) > 0 }

func (c *refCache) Put(oid globeid.OID, hash [globeid.Size]byte, elem refElement, validUntil time.Time) {
	if elem.size() > c.maxBytes {
		return
	}
	if f := elem.Frame; f != nil && (f.cache != c || f.charge+elem.own() > c.maxBytes) {
		data := make([]byte, len(elem.Data))
		copy(data, elem.Data)
		elem = refElement{ContentType: elem.ContentType, Data: data}
	}
	c.hold(elem)
	if node, ok := c.entries[hash]; ok {
		e := node.Value.(*refEntry)
		c.untag(e.oid, hash)
		c.release(e.elem)
		e.oid = oid
		e.elem = elem
		e.expires = validUntil
		c.tag(oid, hash)
		c.lru.MoveToFront(node)
	} else {
		e := &refEntry{hash: hash, oid: oid, elem: elem, expires: validUntil}
		c.entries[hash] = c.lru.PushFront(e)
		c.tag(oid, hash)
	}
	for c.bytes > c.maxBytes {
		tail := c.lru.Back()
		if tail == nil {
			break
		}
		c.remove(tail)
	}
}

func (c *refCache) InvalidateOID(oid globeid.OID) {
	for hash := range c.byOID[oid] {
		if node, ok := c.entries[hash]; ok {
			c.remove(node)
		}
	}
}

func (c *refCache) Reconcile(oid globeid.OID, listed map[[globeid.Size]byte]bool) {
	for hash := range c.byOID[oid] {
		if !listed[hash] {
			if node, ok := c.entries[hash]; ok {
				c.remove(node)
			}
		}
	}
}

func (c *refCache) Purge(now time.Time) {
	var expired []*list.Element
	for node := c.lru.Back(); node != nil; node = node.Prev() {
		e := node.Value.(*refEntry)
		if !e.expires.IsZero() && now.After(e.expires) {
			expired = append(expired, node)
		}
	}
	for _, node := range expired {
		c.remove(node)
	}
}

func (c *refCache) tag(oid globeid.OID, hash [globeid.Size]byte) {
	set, ok := c.byOID[oid]
	if !ok {
		set = make(map[[globeid.Size]byte]struct{})
		c.byOID[oid] = set
	}
	set[hash] = struct{}{}
}

func (c *refCache) untag(oid globeid.OID, hash [globeid.Size]byte) {
	if set, ok := c.byOID[oid]; ok {
		delete(set, hash)
		if len(set) == 0 {
			delete(c.byOID, oid)
		}
	}
}

func (c *refCache) remove(node *list.Element) {
	e := node.Value.(*refEntry)
	c.lru.Remove(node)
	delete(c.entries, e.hash)
	c.untag(e.oid, e.hash)
	c.release(e.elem)
	c.evictions++
}

func (c *refCache) hold(elem refElement) {
	delta := elem.own()
	if f := elem.Frame; f != nil {
		if f.refs == 0 {
			delta += f.charge
		}
		f.refs++
	}
	c.bytes += delta
}

func (c *refCache) release(elem refElement) {
	delta := -elem.own()
	if f := elem.Frame; f != nil {
		if f.refs--; f.refs == 0 {
			delta -= f.charge
		}
	}
	c.bytes += delta
}

type refSigEntry struct {
	key     string
	expires time.Time
}

type refSigCache struct {
	max     int
	hits    int
	entries map[string]*list.Element
	lru     list.List // of *refSigEntry; front = most recently used
}

func newRefSigCache(max int) *refSigCache {
	return &refSigCache{max: max, entries: make(map[string]*list.Element)}
}

func (s *refSigCache) verify(pk keys.PublicKey, message, sig []byte, validUntil, now time.Time) error {
	key := string(bytes.Join([][]byte{hashOf(pk.Marshal()), hashOf(message), hashOf(sig)}, nil))
	if node, ok := s.entries[key]; ok {
		e := node.Value.(*refSigEntry)
		if e.expires.IsZero() || !now.After(e.expires) {
			s.lru.MoveToFront(node)
			s.hits++
			return nil
		}
		s.lru.Remove(node)
		delete(s.entries, key)
	}
	err := pk.Verify(message, sig)
	if err == nil {
		s.insert(key, validUntil)
	}
	return err
}

func (s *refSigCache) insert(key string, expires time.Time) {
	if node, ok := s.entries[key]; ok {
		node.Value.(*refSigEntry).expires = expires
		s.lru.MoveToFront(node)
		return
	}
	s.entries[key] = s.lru.PushFront(&refSigEntry{key: key, expires: expires})
	for len(s.entries) > s.max {
		tail := s.lru.Back()
		if tail == nil {
			break
		}
		s.lru.Remove(tail)
		delete(s.entries, tail.Value.(*refSigEntry).key)
	}
}

func hashOf(b []byte) []byte {
	h := globeid.HashElement(b)
	return h[:]
}

// modelPair is a cache and its reference model, driven in lockstep. A
// frame is created on both sides at once, and an element names its
// frame by index into frames and refFrames alike.
type modelPair struct {
	c         *Cache
	ref       *refCache
	evictions *telemetry.Counter
	sigHits   *telemetry.Counter
	refSig    *refSigCache

	frames    []*Frame
	refFrames []*refFrame
	// foreign is a frame another cache made, on either side.
	foreign    *Frame
	refForeign *refFrame
}

// Bounds of the fuzzed state, small enough that operations collide.
const (
	modelOIDs   = 3
	modelHashes = 12
)

func newModelPair(maxBytes int64, maxSigs int) *modelPair {
	reg := telemetry.NewRegistry()
	m := &modelPair{
		c:         New(Config{MaxBytes: maxBytes, MaxSignatures: maxSigs}),
		ref:       newRefCache(maxBytes),
		evictions: reg.Counter(telemetry.MetricVCacheEvictions),
		sigHits:   reg.Counter(telemetry.MetricSigCacheHits),
		refSig:    newRefSigCache(maxSigs),
	}
	m.c.WireMetrics(m.evictions, nil, m.sigHits)
	m.foreign = New(Config{}).NewFrame(8)
	m.refForeign = newRefCache(DefaultMaxBytes).newFrame(8)
	return m
}

// element returns the same element for both sides: n data bytes and a
// content type of ct bytes, under frame f (-1 none, -2 the foreign one,
// else an index into the pair's frames).
func (m *modelPair) element(n, ct, f int) (Element, refElement) {
	data := bytes.Repeat([]byte{byte(n)}, n)
	contentType := string(bytes.Repeat([]byte{'t'}, ct))
	e, r := Element{ContentType: contentType, Data: data}, refElement{ContentType: contentType, Data: data}
	switch {
	case f == -2:
		e.Frame, r.Frame = m.foreign, m.refForeign
	case f >= 0 && f < len(m.frames):
		e.Frame, r.Frame = m.frames[f], m.refFrames[f]
	}
	return e, r
}

// frameIndex names f on its side: -1 for none, -2 for the foreign frame.
func frameIndex[F comparable](f F, frames []F, foreign F) int {
	var zero F
	switch f {
	case zero:
		return -1
	case foreign:
		return -2
	}
	for i, g := range frames {
		if g == f {
			return i
		}
	}
	return -3
}

// check fails t unless the cache and the model hold the same entries in
// the same recency order, with the same elements, expiries and frames,
// the same per-object chains, byte count, frame references and
// evictions.
func (m *modelPair) check(t *testing.T, step int, op string) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d (%s): %s", step, op, fmt.Sprintf(format, args...))
	}
	c, ref := m.c, m.ref
	if c.Len() != len(ref.entries) || c.Bytes() != ref.bytes {
		fail("Len %d Bytes %d, model %d and %d", c.Len(), c.Bytes(), len(ref.entries), ref.bytes)
	}
	if got, want := m.evictions.Value(), uint64(ref.evictions); got != want {
		fail("evictions %d, model %d", got, want)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n, rn := c.lru.Back(), ref.lru.Back()
	for ; n != nil && rn != nil; n, rn = n.Prev(), rn.Prev() {
		e, r := &n.Value, rn.Value.(*refEntry)
		switch {
		case e.hash != r.hash || e.oid != r.oid || !e.expires.Equal(r.expires):
			fail("entry %x under %x until %v, model %x under %x until %v", e.hash[:2], e.oid[:1], e.expires, r.hash[:2], r.oid[:1], r.expires)
		case e.elem.ContentType != r.elem.ContentType || !bytes.Equal(e.elem.Data, r.elem.Data):
			fail("entry %x holds %q/%d bytes, model %q/%d", e.hash[:2], e.elem.ContentType, len(e.elem.Data), r.elem.ContentType, len(r.elem.Data))
		case frameIndex(e.elem.Frame, m.frames, m.foreign) != frameIndex(r.elem.Frame, m.refFrames, m.refForeign):
			fail("entry %x in frame %d, model %d", e.hash[:2], frameIndex(e.elem.Frame, m.frames, m.foreign), frameIndex(r.elem.Frame, m.refFrames, m.refForeign))
		case c.entries[e.hash] != n:
			fail("entry %x is not the node its map slot points at", e.hash[:2])
		}
	}
	if n != nil || rn != nil {
		fail("the recency lists differ in length")
	}
	for i := range m.frames {
		if m.frames[i].refs != m.refFrames[i].refs {
			fail("frame %d held by %d entries, model %d", i, m.frames[i].refs, m.refFrames[i].refs)
		}
	}
	for o := byte(0); o < modelOIDs; o++ {
		oid := oidN(o)
		var chain [][globeid.Size]byte
		var prev *node
		for n := c.byOID[oid]; n != nil; prev, n = n, n.Value.oidNext {
			if n.Value.oid != oid || n.Value.oidPrev != prev {
				fail("object %d's chain is mislinked", o)
			}
			if c.entries[n.Value.hash] != n {
				fail("object %d's chain holds an entry the cache does not", o)
			}
			chain = append(chain, n.Value.hash)
		}
		if _, ok := c.byOID[oid]; ok && len(chain) == 0 {
			fail("object %d keeps an empty chain", o)
		}
		set := ref.byOID[oid]
		if len(chain) != len(set) {
			fail("object %d's chain holds %d entries, model %d", o, len(chain), len(set))
		}
		for _, h := range chain {
			if _, ok := set[h]; !ok {
				fail("object %d's chain holds %x, the model does not", o, h[:2])
			}
		}
	}
}

// modelOps reads operations from data until it runs out: each is an
// opcode byte and up to four argument bytes.
type modelOps struct{ data []byte }

func (o *modelOps) next() (byte, bool) {
	if len(o.data) == 0 {
		return 0, false
	}
	b := o.data[0]
	o.data = o.data[1:]
	return b, true
}

func (o *modelOps) arg() int {
	b, _ := o.next()
	return int(b)
}

// sigTriple is one of the memo's operands.
type sigTriple struct {
	pk       keys.PublicKey
	msg, sig []byte
}

// memoTriples are two valid signatures under one key, one under another,
// and a forgery.
var memoTriples = sync.OnceValue(func() []sigTriple {
	var triples []sigTriple
	a, b := keytest.Ed(), keytest.RSA()
	for i, kp := range []*keys.KeyPair{a, a, b} {
		msg := []byte(fmt.Sprintf("message %d", i))
		sig, err := kp.Sign(msg)
		if err != nil {
			panic(err)
		}
		triples = append(triples, sigTriple{kp.Public(), msg, sig})
	}
	return append(triples, sigTriple{a.Public(), []byte("forged"), bytes.Repeat([]byte{0x42}, 64)})
})

// runModel plays data's operations on a fresh pair and checks it after
// each one.
func runModel(t *testing.T, data []byte) {
	if len(data) < 2 {
		return
	}
	triples := memoTriples()
	// Room for a handful of small elements, so Puts evict.
	m := newModelPair(16+int64(data[0]), 1+int(data[1]%3))
	ops := &modelOps{data: data[2:]}
	at := func(b int) time.Time {
		if b == 0 {
			return time.Time{} // no bound
		}
		return t0.Add(time.Duration(b%32) * time.Minute)
	}
	for step := 0; ; step++ {
		code, ok := ops.next()
		if !ok {
			return
		}
		var op string
		switch code % 10 {
		case 0, 1: // Put without a frame
			oid, hash := oidN(byte(ops.arg()%modelOIDs)), hashN(ops.arg()%modelHashes)
			e, r := m.element(ops.arg()%24, ops.arg()%8, -1)
			until := at(ops.arg())
			op = fmt.Sprintf("Put %x under %x, %d+%d bytes", hash[:1], oid[:1], len(e.ContentType), len(e.Data))
			m.c.Put(oid, hash, e, until)
			m.ref.Put(oid, hash, r, until)
		case 2: // Put with one of the frames, or the foreign one
			oid, hash := oidN(byte(ops.arg()%modelOIDs)), hashN(ops.arg()%modelHashes)
			f := ops.arg()%(len(m.frames)+1) - 1
			if f == -1 {
				f = -2
			}
			e, r := m.element(ops.arg()%16, ops.arg()%4, f)
			until := at(ops.arg())
			op = fmt.Sprintf("Put %x under %x in frame %d", hash[:1], oid[:1], f)
			m.c.Put(oid, hash, e, until)
			m.ref.Put(oid, hash, r, until)
		case 3: // a new frame
			charge := int64(ops.arg() % 64)
			op = fmt.Sprintf("NewFrame %d", charge)
			m.frames = append(m.frames, m.c.NewFrame(charge))
			m.refFrames = append(m.refFrames, m.ref.newFrame(charge))
		case 4:
			hash := hashN(ops.arg() % modelHashes)
			until := at(ops.arg())
			op = fmt.Sprintf("Get %x", hash[:1])
			e, ok := m.c.Get(hash, t0, until)
			r, rok := m.ref.Get(hash, until)
			if ok != rok || e.ContentType != r.ContentType || !bytes.Equal(e.Data, r.Data) {
				t.Fatalf("step %d (%s): got %v %q/%d, model %v %q/%d", step, op, ok, e.ContentType, len(e.Data), rok, r.ContentType, len(r.Data))
			}
		case 5:
			hash := hashN(ops.arg() % modelHashes)
			oid := oidN(byte(ops.arg() % modelOIDs))
			op = fmt.Sprintf("Contains %x, Holds %x", hash[:1], oid[:1])
			if m.c.Contains(hash) != m.ref.Contains(hash) || m.c.Holds(oid) != m.ref.Holds(oid) {
				t.Fatalf("step %d (%s): Contains %v Holds %v, model %v %v", step, op, m.c.Contains(hash), m.c.Holds(oid), m.ref.Contains(hash), m.ref.Holds(oid))
			}
		case 6:
			oid := oidN(byte(ops.arg() % modelOIDs))
			op = fmt.Sprintf("InvalidateOID %x", oid[:1])
			m.c.InvalidateOID(oid)
			m.ref.InvalidateOID(oid)
		case 7:
			oid := oidN(byte(ops.arg() % modelOIDs))
			mask := ops.arg() | ops.arg()<<8
			listed := map[[globeid.Size]byte]bool{}
			for h := 0; h < modelHashes; h++ {
				if mask&(1<<h) != 0 {
					listed[hashN(h)] = true
				}
			}
			op = fmt.Sprintf("Reconcile %x listing %03x", oid[:1], mask&(1<<modelHashes-1))
			m.c.Reconcile(oid, listed)
			m.ref.Reconcile(oid, listed)
		case 8:
			now := at(ops.arg())
			op = fmt.Sprintf("Purge at %v", now)
			m.c.Purge(now)
			m.ref.Purge(now)
		case 9: // the signature memo
			tr := triples[ops.arg()%len(triples)]
			until, now := at(ops.arg()), at(ops.arg()|1)
			op = fmt.Sprintf("VerifySignature of %q until %v at %v", tr.msg, until, now)
			err := m.c.VerifySignature(tr.pk, tr.msg, tr.sig, until, now)
			rerr := m.refSig.verify(tr.pk, tr.msg, tr.sig, until, now)
			if (err == nil) != (rerr == nil) || (err != nil && !errors.Is(err, keys.ErrBadSignature)) {
				t.Fatalf("step %d (%s): %v, model %v", step, op, err, rerr)
			}
			if m.c.SigLen() != len(m.refSig.entries) || m.sigHits.Value() != uint64(m.refSig.hits) {
				t.Fatalf("step %d (%s): %d verdicts, %d hits; model %d, %d", step, op, m.c.SigLen(), m.sigHits.Value(), len(m.refSig.entries), m.refSig.hits)
			}
			if m.c.SigLen() > m.refSig.max {
				t.Fatalf("step %d (%s): %d verdicts past the bound %d", step, op, m.c.SigLen(), m.refSig.max)
			}
		}
		m.check(t, step, op)
	}
}

// FuzzCacheMatchesModel drives the cache and its reference model with the
// same random operations — Puts with and without frames, re-tagging a
// hash to another object, Get, Contains, Holds, InvalidateOID, Reconcile,
// Purge and the signature memo — under a byte bound small enough to
// evict, and requires them to agree after each one.
func FuzzCacheMatchesModel(f *testing.F) {
	f.Add([]byte{40, 1, 0, 0, 1, 8, 2, 5, 0, 1, 1, 8, 2, 5, 4, 1, 5, 6, 0, 5, 1, 0})
	f.Add([]byte{0, 0, 3, 40, 2, 0, 1, 1, 8, 2, 7, 2, 0, 2, 1, 8, 2, 7, 2, 1, 3, 1, 8, 2, 7, 0, 3, 1, 0, 0, 5, 0, 0, 6, 0})
	f.Add([]byte{60, 0, 0, 0, 1, 4, 1, 3, 0, 0, 2, 4, 1, 9, 0, 0, 3, 4, 1, 20, 0, 1, 1, 4, 1, 3, 8, 10, 8, 0, 4, 2, 30, 8, 31})
	f.Add([]byte{200, 2, 0, 0, 1, 4, 1, 3, 0, 1, 2, 4, 1, 9, 7, 0, 2, 0, 7, 1, 255, 255, 0, 2, 3, 23, 7, 3, 6, 2, 5, 3, 1})
	f.Add([]byte{100, 1, 9, 0, 5, 3, 9, 0, 5, 3, 9, 1, 0, 0, 9, 3, 5, 3, 9, 2, 5, 3, 9, 0, 5, 9, 9, 0, 0, 1, 9, 1, 0, 1})
	f.Add([]byte{255, 0, 3, 63, 2, 0, 0, 1, 15, 3, 0, 2, 1, 1, 1, 15, 3, 0, 2, 2, 2, 1, 15, 3, 0, 3, 0, 2, 1, 15, 3, 0, 6, 0, 4, 1, 9})
	f.Fuzz(runModel)
}

// TestCacheMatchesModelRandom is the fuzzer's property over longer
// seeded random operation sequences than its corpus holds.
func TestCacheMatchesModelRandom(t *testing.T) {
	for seed := uint64(0); seed < 64; seed++ {
		data := make([]byte, 400)
		x := seed*0x9e3779b97f4a7c15 + 1
		for i := range data {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			data[i] = byte(x)
		}
		t.Run(fmt.Sprint(seed), func(t *testing.T) { runModel(t, data) })
	}
}
