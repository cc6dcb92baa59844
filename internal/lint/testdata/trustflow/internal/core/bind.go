package core

import (
	"context"
	"time"

	"fixture/internal/object"
	"fixture/internal/vcache"
)

// BindPrefillUnverified is the seeded violation of the bind path: an
// element the bind reply carried goes into the verified-content cache
// without any check.
func (c *Client) BindPrefillUnverified(ctx context.Context, obj *object.Client, oid, name string) error {
	reply, err := obj.Bind(ctx, []string{name})
	if err != nil {
		return err
	}
	for _, it := range reply.Items {
		c.cache.Put(oid, [20]byte{}, vcache.Element{Name: it.Name, Data: it.Element.Data}, time.Now().Add(time.Minute))
	}
	return nil
}

// BindPrefillVerified is its verified twin. Clean: CheckAuthenticity
// washes each carried element before it reaches the cache.
func (c *Client) BindPrefillVerified(ctx context.Context, obj *object.Client, oid, name string, now time.Time) error {
	reply, err := obj.Bind(ctx, []string{name})
	if err != nil {
		return err
	}
	for _, it := range reply.Items {
		entry, err := c.icert.CheckConsistency(it.Name)
		if err != nil {
			return err
		}
		if err := entry.CheckAuthenticity(it.Element.Data); err != nil {
			return err
		}
		if err := entry.CheckFreshness(now); err != nil {
			return err
		}
		c.cache.Put(oid, [20]byte{}, vcache.Element{Name: it.Name, Data: it.Element.Data}, entry.Expires)
	}
	return nil
}

// BindPrefillFramed is the batch path: the carried elements share one
// frame handle, built from the reply's lengths. Clean: CheckAuthenticity
// washes each element's Data, and a count of untrusted bytes is no bytes.
func (c *Client) BindPrefillFramed(ctx context.Context, obj *object.Client, oid string, names []string, now time.Time) error {
	reply, err := obj.Bind(ctx, names)
	if err != nil {
		return err
	}
	carried := 0
	for _, it := range reply.Items {
		carried += len(it.Element.Data)
	}
	frame := c.cache.NewFrame(int64(carried))
	for _, it := range reply.Items {
		entry, err := c.icert.CheckConsistency(it.Name)
		if err != nil {
			return err
		}
		if err := entry.CheckAuthenticity(it.Element.Data); err != nil {
			return err
		}
		if err := entry.CheckFreshness(now); err != nil {
			return err
		}
		c.cache.Put(oid, [20]byte{}, vcache.Element{Name: it.Name, Data: it.Element.Data, Frame: frame}, entry.Expires)
	}
	return nil
}

// BindPrefillFramedUnverified is its seeded violation: the same framed
// element with no check of its Data.
func (c *Client) BindPrefillFramedUnverified(ctx context.Context, obj *object.Client, oid string, names []string) error {
	reply, err := obj.Bind(ctx, names)
	if err != nil {
		return err
	}
	carried := 0
	for _, it := range reply.Items {
		carried += len(it.Element.Data)
	}
	frame := c.cache.NewFrame(int64(carried))
	for _, it := range reply.Items {
		c.cache.Put(oid, [20]byte{}, vcache.Element{Name: it.Name, Data: it.Element.Data, Frame: frame}, time.Now().Add(time.Minute))
	}
	return nil
}
