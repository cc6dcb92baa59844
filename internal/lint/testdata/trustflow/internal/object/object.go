// Package object stands in for the object-proxy client: Bind is a
// trustflow root source, so the key, certificates and element batch it
// returns are untrusted until verified.
package object

import "context"

type Element struct {
	Name string
	Data []byte
}

type BatchItem struct {
	Name    string
	Element Element
	Err     error
}

type BindReply struct {
	Key   []byte
	Cert  []byte
	Items []BatchItem
}

type Client struct{ addr string }

func (c *Client) Bind(ctx context.Context, names []string) (BindReply, error) {
	_ = ctx
	items := make([]BatchItem, 0, len(names))
	for _, n := range names {
		items = append(items, BatchItem{Name: n, Element: Element{Name: n, Data: []byte(c.addr + n)}})
	}
	return BindReply{Items: items}, nil
}
