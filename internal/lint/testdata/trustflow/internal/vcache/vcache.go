// Package vcache stands in for the verified-content cache: Put is a
// trustflow sink — only verified bytes may be stored.
package vcache

import "time"

type Element struct {
	Name  string
	Data  []byte
	Frame *Frame
}

// Frame is the handle of a buffer several cached elements share: a
// byte count, no bytes.
type Frame struct{ charge int64 }

type Cache struct{ entries map[string]Element }

func New() *Cache { return &Cache{entries: make(map[string]Element)} }

func (c *Cache) NewFrame(charge int64) *Frame { return &Frame{charge: charge} }

func (c *Cache) Put(oid string, hash [20]byte, elem Element, validUntil time.Time) {
	_ = hash
	_ = validUntil
	c.entries[oid+"/"+elem.Name] = elem
}

func (c *Cache) Get(oid, name string) (Element, bool) {
	e, ok := c.entries[oid+"/"+name]
	return e, ok
}
