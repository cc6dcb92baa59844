package deploy

import (
	"context"

	"globedoc/internal/netsim"
	"globedoc/internal/object"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
)

// StartFront serves obj.bind at host:svc on n in front of the replica at
// backend: how tests stand a lying replica before a genuine one. serve
// answers each request, given forward to ask the replica; stop closes it.
func StartFront(n *netsim.Network, host, svc, backend string, serve func(req object.BindRequest, forward func() ([]byte, error)) ([]byte, error)) (stop func(), err error) {
	fwd := transport.NewClient(n.Dialer(host, backend)).Configure(transport.Config{Telemetry: telemetry.New(nil)})
	front := transport.NewServer()
	front.Telemetry = telemetry.New(nil)
	front.HandleCtx(object.OpBind, func(ctx context.Context, body []byte) ([][]byte, error) {
		req, err := object.DecodeBindRequest(body)
		if err != nil {
			return nil, err
		}
		reply, err := serve(req, func() ([]byte, error) { return fwd.Call(ctx, object.OpBind, body) })
		return [][]byte{reply}, err
	})
	l, err := n.Listen(host, svc)
	if err != nil {
		fwd.Close()
		return nil, err
	}
	front.Start(l)
	return func() { front.Close(); fwd.Close() }, nil
}
