package vcache

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
	"time"

	"globedoc/internal/globeid"
	"globedoc/internal/telemetry"
)

// frameOf returns n elements of size bytes each, cut out of one buffer
// as a batch reply's elements are, each carrying the Frame c makes for
// the buffer with its whole length as the charge.
func frameOf(c *Cache, n, size int, contentType string) []Element {
	buf := make([]byte, n*size)
	for i := range buf {
		buf[i] = byte(i)
	}
	frame := c.NewFrame(int64(len(buf)))
	elems := make([]Element, n)
	for i := range elems {
		elems[i] = Element{ContentType: contentType, Data: buf[i*size : (i+1)*size : (i+1)*size], Frame: frame}
	}
	return elems
}

// hashN is a distinct content hash per n; the cache never hashes bytes.
func hashN(n int) [globeid.Size]byte {
	var h [globeid.Size]byte
	h[0], h[1] = byte(n), byte(n>>8)
	return h
}

// accounted recomputes what c should count from what it holds: every
// entry's own bytes and each distinct frame's charge once. It also checks
// that each frame's reference count is the number of entries holding it.
func accounted(t *testing.T, c *Cache) int64 {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	var sum int64
	refs := map[*Frame]int{}
	for node := c.lru.Back(); node != nil; node = node.Prev() {
		e := &node.Value
		sum += e.elem.own()
		if f := e.elem.Frame; f != nil {
			if f.cache != c {
				t.Fatalf("an entry holds a frame another cache made")
			}
			if refs[f] == 0 {
				sum += f.charge
			}
			refs[f]++
		}
	}
	for f, n := range refs {
		if f.refs != n {
			t.Fatalf("a frame counts %d references, %d entries hold it", f.refs, n)
		}
	}
	return sum
}

// checkAccounts fails t unless Bytes is what c holds, counted once per
// frame, and the vcache_bytes gauge follows it.
func checkAccounts(t *testing.T, c *Cache, gauge *telemetry.Gauge, after string) {
	t.Helper()
	if got, want := c.Bytes(), accounted(t, c); got != want {
		t.Fatalf("after %s: Bytes = %d, the entries held account for %d", after, got, want)
	}
	if gauge != nil && gauge.Value() != c.Bytes() {
		t.Fatalf("after %s: vcache_bytes = %d, Bytes = %d", after, gauge.Value(), c.Bytes())
	}
}

// TestFrameSiblingsShareOneCharge: elements cut out of one buffer are
// kept as they are, and the cache counts the buffer once — its element
// bytes with the first, each later sibling's content type beside it.
func TestFrameSiblingsShareOneCharge(t *testing.T) {
	c := New(Config{})
	f := frameOf(c, 3, 100, "text/html")
	c.Put(oidN(1), hashN(0), f[0], t0.Add(time.Hour))
	if want := int64(300 + len("text/html")); c.Bytes() != want {
		t.Fatalf("first sibling: Bytes = %d, want the frame's 300 plus its content type, %d", c.Bytes(), want)
	}
	c.Put(oidN(1), hashN(1), f[1], t0.Add(time.Hour))
	c.Put(oidN(1), hashN(2), f[2], t0.Add(time.Hour))
	if want := int64(300 + 3*len("text/html")); c.Bytes() != want {
		t.Fatalf("three siblings: Bytes = %d, want %d", c.Bytes(), want)
	}
	for i, want := range f {
		got, ok := c.Get(hashN(i), t0, t0.Add(time.Hour))
		if !ok || &got.Data[0] != &want.Data[0] || len(got.Data) != len(want.Data) {
			t.Fatalf("sibling %d is not kept as the window it was put as", i)
		}
	}
	checkAccounts(t, c, nil, "Put")
}

// TestFrameChargeLeavesWithTheLastSibling: every way an entry leaves the
// cache — eviction, InvalidateOID, Reconcile, Purge — drops one sibling's
// content type while others hold the frame, and the frame's charge with
// the last.
func TestFrameChargeLeavesWithTheLastSibling(t *testing.T) {
	const ct = "text/html"
	frameBytes := int64(200 + 2*len(ct))
	drops := map[string]func(c *Cache, sibling int){
		"eviction": func(c *Cache, sibling int) {
			// Each unframed Put of exactly the room left over evicts
			// the least recently used entry: the next sibling.
			c.Put(oidN(9), hashN(100+sibling), Element{Data: make([]byte, len(ct))}, t0.Add(time.Hour))
		},
		"InvalidateOID": func(c *Cache, sibling int) { c.InvalidateOID(oidN(byte(1 + sibling))) },
		"Reconcile": func(c *Cache, sibling int) {
			c.Reconcile(oidN(byte(1+sibling)), map[[globeid.Size]byte]bool{hashN(1 - sibling): true})
		},
		"Purge": func(c *Cache, sibling int) { c.Purge(t0.Add(time.Duration(1+sibling) * time.Minute)) },
	}
	for name, drop := range drops {
		t.Run(name, func(t *testing.T) {
			c := New(Config{MaxBytes: frameBytes})
			gauge := telemetry.NewRegistry().Gauge(telemetry.MetricVCacheBytes)
			c.WireMetrics(nil, gauge, nil)
			f := frameOf(c, 2, 100, ct)
			// Sibling i is tagged with its own OID and expires just
			// before minute i+1, so each way out can drop one at a time.
			for i, e := range f {
				c.Put(oidN(byte(1+i)), hashN(i), e, t0.Add(time.Duration(1+i)*time.Minute-time.Second))
			}
			checkAccounts(t, c, gauge, "Put")
			if c.Bytes() != frameBytes {
				t.Fatalf("Bytes = %d, want %d", c.Bytes(), frameBytes)
			}
			held := c.Bytes()
			drop(c, 0)
			checkAccounts(t, c, gauge, "dropping the first sibling")
			if c.Contains(hashN(0)) || !c.Contains(hashN(1)) {
				t.Fatalf("the wrong sibling went: first held %v, second held %v", c.Contains(hashN(0)), c.Contains(hashN(1)))
			}
			if got := c.Bytes(); name != "eviction" && got != held-int64(len(ct)) {
				t.Fatalf("one sibling left: Bytes = %d, want the frame still charged, %d", got, held-int64(len(ct)))
			}
			drop(c, 1)
			checkAccounts(t, c, gauge, "dropping the last sibling")
			if c.Contains(hashN(1)) {
				t.Fatal("the last sibling survived")
			}
			var rest int64
			if name == "eviction" {
				rest = 2 * int64(len(ct)) // the two unframed elements that evicted them
			}
			if c.Bytes() != rest {
				t.Fatalf("no sibling left: Bytes = %d, want the frame released, %d", c.Bytes(), rest)
			}
		})
	}
}

// TestRePutMovesTheFrameCharge: putting a held hash again with another
// frame moves its charge — the old frame is released with its last
// sibling, the new one charged — and putting it again with the same
// frame changes nothing.
func TestRePutMovesTheFrameCharge(t *testing.T) {
	c := New(Config{})
	a := frameOf(c, 2, 100, "a/b")
	b := frameOf(c, 1, 50, "a/b")
	c.Put(oidN(1), hashN(0), a[0], t0.Add(time.Hour))
	c.Put(oidN(1), hashN(1), a[1], t0.Add(time.Hour))
	c.Put(oidN(1), hashN(0), a[0], t0.Add(time.Hour))
	if want := int64(200 + 2*3); c.Bytes() != want {
		t.Fatalf("a sibling put again: Bytes = %d, want %d", c.Bytes(), want)
	}
	c.Put(oidN(1), hashN(0), b[0], t0.Add(time.Hour))
	if want := int64(200 + 3 + 50 + 3); c.Bytes() != want {
		t.Fatalf("one sibling moved to another frame: Bytes = %d, want both frames charged, %d", c.Bytes(), want)
	}
	checkAccounts(t, c, nil, "moving one sibling")
	c.Put(oidN(1), hashN(1), b[0], t0.Add(time.Hour))
	if want := int64(50 + 2*3); c.Bytes() != want {
		t.Fatalf("both moved: Bytes = %d, want only the new frame charged, %d", c.Bytes(), want)
	}
	checkAccounts(t, c, nil, "moving the other")
	c.Put(oidN(1), hashN(1), Element{ContentType: "a/b", Data: []byte("x")}, t0.Add(time.Hour))
	if want := int64(50 + 3 + 1 + 3); c.Bytes() != want {
		t.Fatalf("one put unframed: Bytes = %d, want %d", c.Bytes(), want)
	}
	checkAccounts(t, c, nil, "unframing one")
}

// TestOversizeFrameKeepsACopy: a frame larger than the whole budget, or
// one another cache made, is never charged; an element cut out of it
// that fits alone is kept as an exact-size copy that pins nothing else.
func TestOversizeFrameKeepsACopy(t *testing.T) {
	for _, tc := range []struct {
		name  string
		frame func(c *Cache) []Element
	}{
		{"oversize", func(c *Cache) []Element { return frameOf(c, 16, 100, "x") }},
		{"another cache's", func(*Cache) []Element { return frameOf(New(Config{}), 2, 100, "x") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(Config{MaxBytes: 250})
			f := tc.frame(c)
			c.Put(oidN(1), hashN(0), f[1], t0.Add(time.Hour))
			got, ok := c.Get(hashN(0), t0, t0.Add(time.Hour))
			if !ok {
				t.Fatal("an element that fits alone was not cached")
			}
			if got.Frame != nil || cap(got.Data) != len(got.Data) || &got.Data[0] == &f[1].Data[0] || string(got.Data) != string(f[1].Data) {
				t.Fatalf("the cache keeps %d bytes with capacity %d, framed %v; want an exact-size copy", len(got.Data), cap(got.Data), got.Frame != nil)
			}
			if want := int64(100 + 1); c.Bytes() != want {
				t.Fatalf("Bytes = %d, want the copy's %d", c.Bytes(), want)
			}
			checkAccounts(t, c, nil, "Put")
		})
	}
	t.Run("element too large alone", func(t *testing.T) {
		c := New(Config{MaxBytes: 50})
		f := frameOf(c, 2, 100, "x")
		c.Put(oidN(1), hashN(0), f[0], t0.Add(time.Hour))
		if c.Len() != 0 || c.Bytes() != 0 {
			t.Fatalf("Len = %d, Bytes = %d; an element over the budget must not be kept", c.Len(), c.Bytes())
		}
	})
}

// TestFrameAccountingProperty drives seeded random sequences of Put (with
// and without frames), Get, InvalidateOID, Reconcile and Purge and checks
// after every step that Bytes is the charges of the distinct frames held
// plus every entry's own bytes, that vcache_bytes follows it, and after
// every Put that Bytes is within MaxBytes.
func TestFrameAccountingProperty(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(seed, 0))
			c := New(Config{MaxBytes: 400 + rng.Int64N(600)})
			gauge := telemetry.NewRegistry().Gauge(telemetry.MetricVCacheBytes)
			c.WireMetrics(nil, gauge, nil)
			var frames [][]Element
			for i := 0; i < 6; i++ {
				frames = append(frames, frameOf(c, 1+rng.IntN(5), 10+rng.IntN(150), "t/"+fmt.Sprint(i)))
			}
			other := frameOf(New(Config{}), 3, 20, "o")
			oids := []byte{1, 2, 3}
			now := t0
			for step := 0; step < 300; step++ {
				var op string
				switch r := rng.IntN(10); {
				case r < 5:
					op = "Put"
					var elem Element
					switch k := rng.IntN(8); {
					case k < 5:
						f := frames[rng.IntN(len(frames))]
						elem = f[rng.IntN(len(f))]
					case k < 7:
						elem = Element{ContentType: "u", Data: make([]byte, rng.IntN(120))}
					default:
						elem = other[rng.IntN(len(other))]
					}
					c.Put(oidN(oids[rng.IntN(len(oids))]), hashN(rng.IntN(24)), elem, now.Add(time.Duration(rng.IntN(10))*time.Minute))
				case r < 6:
					op = "Get"
					c.Get(hashN(rng.IntN(24)), now, now.Add(time.Duration(rng.IntN(10))*time.Minute))
				case r < 7:
					op = "InvalidateOID"
					c.InvalidateOID(oidN(oids[rng.IntN(len(oids))]))
				case r < 8:
					op = "Reconcile"
					listed := map[[globeid.Size]byte]bool{}
					for h := 0; h < 24; h++ {
						if rng.IntN(2) == 0 {
							listed[hashN(h)] = true
						}
					}
					c.Reconcile(oidN(oids[rng.IntN(len(oids))]), listed)
				default:
					op = "Purge"
					now = now.Add(time.Duration(rng.IntN(3)) * time.Minute)
					c.Purge(now)
				}
				checkAccounts(t, c, gauge, fmt.Sprintf("step %d (%s)", step, op))
				if op == "Put" && c.Bytes() > c.maxBytes {
					t.Fatalf("after step %d (Put): Bytes = %d over MaxBytes %d", step, c.Bytes(), c.maxBytes)
				}
			}
		})
	}
}

// TestConcurrentFrameSiblings puts the siblings of shared frames from
// many goroutines while others invalidate them; run under -race it is
// the check that frame references move only under the cache's lock.
func TestConcurrentFrameSiblings(t *testing.T) {
	const budget = 1200 // less than the four frames: eviction churns
	c := New(Config{MaxBytes: budget})
	var frames [][]Element
	for i := 0; i < 4; i++ {
		frames = append(frames, frameOf(c, 4, 100, "text/html"))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				f := frames[(i+w)%len(frames)]
				n := (i * 7) % len(f)
				switch i % 4 {
				case 3:
					c.InvalidateOID(oidN(byte(w % 3)))
				default:
					c.Put(oidN(byte(w%3)), hashN((i+w)%len(frames)*4+n), f[n], t0.Add(time.Hour))
				}
			}
		}(w)
	}
	wg.Wait()
	checkAccounts(t, c, nil, "concurrent churn")
	if c.Bytes() > budget {
		t.Fatalf("Bytes = %d over budget after concurrent churn", c.Bytes())
	}
}
