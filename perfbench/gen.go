package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"time"

	"globedoc/internal/core"
	"globedoc/internal/proxy"
	"globedoc/internal/workload"
)

// newRand derives an independent deterministic stream for one purpose
// from the run seed, so adding a consumer never shifts the bytes another
// consumer sees.
func newRand(seed uint64, purpose string) *workload.Rand {
	h := fnv.New64a()
	_, _ = h.Write([]byte(purpose)) // hash.Hash.Write never fails
	return workload.NewRand(seed ^ h.Sum64())
}

// recorder collects what one closed-loop client observed. Each client
// owns one, so recording takes no lock; they are merged after the window.
type recorder struct {
	fetch   []time.Duration // one verified fetch operation
	page    []time.Duration // one whole-object read
	visible []time.Duration // update-churn: cycle start to new bytes verified
	bytes   int64           // verified body bytes delivered
	// attempted counts every operation issued, failed those that did
	// not end in verified correct bytes from the expected replica.
	attempted, failed int
	firstErr          error
	// log, when non-nil, receives every request issued, in order — the
	// determinism test compares two runs' logs.
	log *[]string
}

func (r *recorder) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *recorder) request(what string) {
	r.attempted++
	if r.log != nil {
		*r.log = append(*r.log, what)
	}
}

func mergeRecorders(recs []*recorder) *recorder {
	out := &recorder{}
	for _, r := range recs {
		out.fetch = append(out.fetch, r.fetch...)
		out.page = append(out.page, r.page...)
		out.visible = append(out.visible, r.visible...)
		out.bytes += r.bytes
		out.attempted += r.attempted
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
	}
	return out
}

// want is the expected outcome of one element fetch.
type want struct {
	object, element string
	data            []byte
	replica         string // expected X-GlobeDoc-Replica / FetchResult.ReplicaAddr
}

// issuer performs one verified element fetch and reports how long the
// client waited. The HTTP issuer is the browser side of every
// end-to-end run; the traced run replays the same sequence through the
// core issuer to separate the proxy's cost from the pipeline's.
type issuer interface {
	fetch(ctx context.Context, w want) (time.Duration, error)
}

// httpIssuer is one browser-side client: a keep-alive HTTP connection to
// the proxy front and one reused 64 KiB buffer the response body is
// streamed through and compared against the published bytes. It does no
// hashing of its own — a SHA-1 in the generator would dilute the
// per-byte workload it is measuring.
type httpIssuer struct {
	base string
	hc   *http.Client
	buf  []byte
	tp   *tap
}

func newHTTPIssuer(base string, tp *tap) *httpIssuer {
	return &httpIssuer{
		base: base,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}},
		buf: make([]byte, 64<<10),
		tp:  tp,
	}
}

func (h *httpIssuer) close() { h.hc.CloseIdleConnections() }

var (
	errStatus  = errors.New("unexpected HTTP status")
	errBody    = errors.New("body differs from the published bytes")
	errReplica = errors.New("served by an unexpected replica")
)

func (h *httpIssuer) fetch(ctx context.Context, w want) (elapsed time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, h.base+proxy.HybridURL(w.object, w.element), nil)
	if err != nil {
		return 0, err
	}
	h.tp.nextRequest()
	h.tp.scope(spanHTTPGet, func() {
		start := now()
		err = h.roundTrip(req, w)
		elapsed = now().Sub(start)
	})
	return elapsed, err
}

func (h *httpIssuer) roundTrip(req *http.Request, w want) error {
	resp, err := h.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused; the status is the failure
		return fmt.Errorf("%w: %s", errStatus, resp.Status)
	}
	if got := resp.Header.Get(proxy.HeaderReplica); got != w.replica {
		_, _ = io.Copy(io.Discard, resp.Body) // as above
		return fmt.Errorf("%w: %q, want %q", errReplica, got, w.replica)
	}
	off, same := 0, true
	for {
		n, rerr := resp.Body.Read(h.buf)
		if n > 0 {
			if off+n > len(w.data) || !bytes.Equal(h.buf[:n], w.data[off:off+n]) {
				same = false
			}
			off += n
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return rerr
		}
	}
	if !same || off != len(w.data) {
		return fmt.Errorf("%w: %s/%s, %d bytes of %d", errBody, w.object, w.element, off, len(w.data))
	}
	return nil
}

// coreIssuer issues the same fetch directly at the proxy's core.Client.
type coreIssuer struct {
	client func() *secureClient // the client currently behind the front
	tp     *tap
}

func (c coreIssuer) fetch(ctx context.Context, w want) (elapsed time.Duration, err error) {
	client := c.client()
	var res core.FetchResult
	c.tp.nextRequest()
	c.tp.scope(spanCore, func() {
		start := now()
		res, err = client.FetchNamed(ctx, w.object, w.element)
		elapsed = now().Sub(start)
	})
	switch {
	case err != nil:
	case res.ReplicaAddr != w.replica:
		err = fmt.Errorf("%w: %q, want %q", errReplica, res.ReplicaAddr, w.replica)
	case !bytes.Equal(res.Element.Data, w.data):
		err = fmt.Errorf("%w: %s/%s", errBody, w.object, w.element)
	}
	return elapsed, err
}

// alternator issues successive fetches through its two issuers in turn
// and keeps each one's latencies apart.
type alternator struct {
	issuers [2]issuer
	calls   int
	samples [2][]time.Duration
}

func (a *alternator) fetch(ctx context.Context, w want) (time.Duration, error) {
	i := a.calls % 2
	a.calls++
	d, err := a.issuers[i].fetch(ctx, w)
	if err == nil {
		a.samples[i] = append(a.samples[i], d)
	}
	return d, err
}
