package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"globedoc/internal/cert"
	"globedoc/internal/core"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/location"
	"globedoc/internal/merkle"
	"globedoc/internal/naming"
	"globedoc/internal/object"
	"globedoc/internal/server"
	"globedoc/internal/telemetry"
	"globedoc/internal/transport"
	"globedoc/internal/vcache"
	"globedoc/internal/workload"
)

// The leaf-layer ledger: direct timed calls into each layer's public
// functions, on data shaped like the workloads' (the 1 KiB element of
// first-visit, the 1 MiB element of bulk-stream, the 64 × 4 KiB object
// of update-churn, the 11-element page of wan-page). RPC-level entries
// run against live services — over netsim pipes at TimeScale 0 where
// first-visit and update-churn run, over loopback TCP where bulk-stream
// does. Times are medians of individually timed calls; nanosecond-scale
// calls are timed in batches so the clock reads do not dominate.

// ledger accumulates per-layer metrics and the first error any measured
// call returned.
type ledger struct {
	m   metrics
	err error
	// calls is how many samples a median rests on (≥ 200 per the
	// benchmark's rule; the smoke test shrinks it).
	calls int
	small bool
}

func (l *ledger) check(err error) {
	if err != nil && l.err == nil {
		l.err = err
	}
}

// us returns the median duration of calls to f, in µs.
func (l *ledger) us(calls int, f func() error) float64 {
	samples := make([]float64, calls)
	for i := range samples {
		start := now()
		err := f()
		samples[i] = float64(now().Sub(start)) / float64(time.Microsecond)
		l.check(err)
	}
	return median(samples)
}

// ns returns the median per-call duration of f in ns, timing batches of
// batch calls.
func (l *ledger) ns(batch int, f func()) float64 {
	samples := make([]float64, l.calls)
	for i := range samples {
		start := now()
		for j := 0; j < batch; j++ {
			f()
		}
		samples[i] = float64(now().Sub(start)) / float64(batch)
	}
	return median(samples)
}

// allocsPer returns the process's mallocs and allocated bytes per call
// of f over n calls. Nothing else runs meanwhile, so the process's
// counters are f's.
func allocsPer(n int, f func()) (mallocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n), float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

const mib = 1 << 20

// measureLayers fills m with every leaf-layer metric.
func measureLayers(ctx context.Context, o options, m metrics) error {
	l := &ledger{m: m, calls: 200, small: o.small}
	if o.small {
		l.calls = 8
	}
	owners, err := loadOwnerKeys(o.keysDir, 1)
	if err != nil {
		return err
	}
	owner := owners[0]
	oid := globeid.FromPublicKey(owner.Public())
	issued := now()

	small := workload.SingleElementDoc(1024, newRand(o.seed, "layers/1k").Uint64())
	big := workload.SingleElementDoc(mib, newRand(o.seed, "layers/1mib").Uint64())
	wide := workload.WideDoc(churnElements, churnElementSize, newRand(o.seed, "layers/64").Uint64())
	page := workload.CompositeDoc(10*workload.KB, newRand(o.seed, "layers/page").Uint64())

	l.codecs(oid, big, page)
	if err := l.crypto(owner, oid, issued, small, big, wide); err != nil {
		return err
	}
	l.caches(oid, big)
	if err := l.rpc(ctx, owner, small, page); err != nil {
		return err
	}
	if err := l.rpcTCP(ctx, owner, big); err != nil {
		return err
	}
	if err := l.updates(ctx, o.seed, owner, wide); err != nil {
		return err
	}
	if err := l.install(owner, o.seed); err != nil {
		return err
	}
	if err := l.httpPage(page); err != nil {
		return err
	}
	return l.err
}

// codecs: enc and object wire codecs, no network.
func (l *ledger) codecs(oid globeid.OID, big, page *document.Document) {
	req := func() {
		_, _, _, err := object.DecodeElementRequest(object.EncodeElementRequest(oid, "el-00.bin", clientSite))
		l.check(err)
	}
	l.m.set("enc.elemreq_roundtrip_ns", l.ns(100, req), unitNs)
	mallocs, _ := allocsPer(1000, req)
	l.m.set("enc.allocs_per_roundtrip", mallocs, unitCount)

	e, err := big.Get("image.bin")
	l.check(err)
	var wire []byte
	l.m.set("object.encode_element_1mib_us", l.us(l.calls, func() error { wire = object.EncodeElement(e); return nil }), unitUs)
	decode := func() error { _, err := object.DecodeElement(wire); return err }
	l.m.set("object.decode_element_1mib_us", l.us(l.calls, decode), unitUs)
	_, bytes := allocsPer(20, func() { l.check(decode()) })
	l.m.set("object.decode_alloc_bytes_per_payload_byte", bytes/mib, unitRatio)

	var items []object.BatchWireItem
	for _, name := range page.Names() {
		pe, err := page.Get(name)
		l.check(err)
		items = append(items, object.BatchWireItem{Name: name, Wire: object.EncodeElement(pe)})
	}
	batch := object.EncodeElementsResponse(items)
	l.m.set("object.batch_decode_11_us", l.us(l.calls, func() error { _, err := object.DecodeElementsResponse(batch); return err }), unitUs)
}

// crypto: keys, globeid, cert, document and merkle, no network.
func (l *ledger) crypto(owner *keys.KeyPair, oid globeid.OID, issued time.Time, small, big, wide *document.Document) error {
	pk := owner.Public()
	msg := newRand(1, "layers/message").Bytes(256)
	sig, err := owner.Sign(msg)
	if err != nil {
		return err
	}
	l.m.set("keys.rsa2048_sign_us", l.us(l.calls, func() error { _, err := owner.Sign(msg); return err }), unitUs)
	l.m.set("keys.rsa2048_verify_us", l.us(l.calls, func() error { return pk.Verify(msg, sig) }), unitUs)
	ed, err := keys.Generate(keys.Ed25519)
	if err != nil {
		return err
	}
	edSig, err := ed.Sign(msg)
	if err != nil {
		return err
	}
	l.m.set("keys.ed25519_verify_us", l.us(l.calls, func() error { return ed.Public().Verify(msg, edSig) }), unitUs)

	l.m.set("globeid.oid_verify_us", l.us(l.calls, func() error { return oid.Verify(pk) }), unitUs)
	bigEl, err := big.Get("image.bin")
	if err != nil {
		return err
	}
	hashUs := l.us(l.calls, func() error { _ = globeid.HashElement(bigEl.Data); return nil })
	l.m.set("globeid.hash_mb_per_s", float64(mib)/hashUs, "MB/s") // bytes per µs = MB/s

	ttl := document.UniformTTL(time.Hour)
	cert1, err := document.IssueCertificate(small, oid, owner, issued, ttl)
	if err != nil {
		return err
	}
	certBig, err := document.IssueCertificate(big, oid, owner, issued, ttl)
	if err != nil {
		return err
	}
	var cert64 *cert.IntegrityCertificate
	l.m.set("document.issue_cert_64_us", l.us(l.calls, func() error {
		var err error
		cert64, err = document.IssueCertificate(wide, oid, owner, issued, ttl)
		return err
	}), unitUs)
	wire1, wire64 := cert1.Marshal(), cert64.Marshal()
	l.m.set("cert.unmarshal_1_us", l.us(l.calls, func() error { _, err := cert.UnmarshalIntegrityCertificate(wire1); return err }), unitUs)
	l.m.set("cert.unmarshal_64_us", l.us(l.calls, func() error { _, err := cert.UnmarshalIntegrityCertificate(wire64); return err }), unitUs)
	l.m.set("cert.verify_signature_us", l.us(l.calls, func() error { return cert64.VerifySignature(oid, pk) }), unitUs)
	smallEl, err := small.Get("image.bin")
	if err != nil {
		return err
	}
	at := issued.Add(time.Minute)
	l.m.set("cert.verify_element_1k_us", l.us(l.calls, func() error { return cert1.VerifyElement("image.bin", smallEl.Data, at) }), unitUs)
	l.m.set("cert.verify_element_1mib_us", l.us(l.calls, func() error { return certBig.VerifyElement("image.bin", bigEl.Data, at) }), unitUs)

	ca, err := cert.NewCA("Ledger CA", keys.Ed25519)
	if err != nil {
		return err
	}
	nc, err := ca.IssueNameCertificate(oid, certSubject, issued, issued.Add(time.Hour))
	if err != nil {
		return err
	}
	trust := cert.NewTrustStore()
	trust.TrustCA(ca.Name, ca.Key.Public())
	l.m.set("cert.namecert_verify_us", l.us(l.calls, func() error { _, err := trust.Verify(nc, oid, at); return err }), unitUs)

	leaves := make(map[string][globeid.Size]byte, len(cert64.Entries))
	for _, e := range cert64.Entries {
		leaves[e.Name] = e.Hash
	}
	next := make(map[string][globeid.Size]byte, len(leaves))
	for name, h := range leaves {
		next[name] = h
	}
	next[cert64.Entries[0].Name] = globeid.HashElement(msg)
	l.m.set("merkle.root_64_us", l.us(l.calls, func() error { _ = merkle.RootFromLeaves(leaves); return nil }), unitUs)
	l.m.set("merkle.diff_64_us", l.us(l.calls, func() error {
		if changed, _ := merkle.DiffLeaves(leaves, next); len(changed) != 1 {
			return fmt.Errorf("merkle diff found %d changes, want 1", len(changed))
		}
		return nil
	}), unitUs)
	return nil
}

// caches: vcache, the selector and the tracer, no network.
func (l *ledger) caches(oid globeid.OID, big *document.Document) {
	e, err := big.Get("image.bin")
	l.check(err)
	at := now()
	expires := at.Add(time.Hour)
	vc := vcache.New(vcache.Config{MaxBytes: bulkElements * bulkElementSize / bulkCacheShare})
	// A content hash is only a key to the cache; distinct keys over the
	// same bytes fill it without 16 distinct MiB in memory.
	key := func(i int) (h [globeid.Size]byte) {
		h[0], h[1], h[2] = byte(i), byte(i>>8), byte(i>>16)
		return h
	}
	el := vcache.Element{ContentType: elementType, Data: e.Data}
	i := 0
	l.m.set("vcache.put_1mib_us", l.us(l.calls, func() error { i++; vc.Put(oid, key(i), el, expires); return nil }), unitUs)
	hot := key(i)
	l.m.set("vcache.get_hit_ns", l.ns(100, func() {
		if _, ok := vc.Get(hot, at, expires); !ok {
			l.check(fmt.Errorf("vcache lost the entry just put"))
		}
	}), unitNs)

	candidates := make([]location.ContactAddress, 12)
	health := telemetry.NewHealthTracker(nil)
	for i := range candidates {
		candidates[i] = location.ContactAddress{Address: fmt.Sprintf("site-%02d:objsvc", i), Protocol: object.Protocol, Zone: []string{"europe", "northamerica", "asia"}[i%3]}
		if i%2 == 0 {
			health.RecordSuccess(candidates[i].Address, time.Duration(i+1)*time.Millisecond)
		}
	}
	sel := core.HealthRankedSelector{Zone: "europe"}
	l.m.set("core.selector_rank_12_ns", l.ns(100, func() { _ = sel.Rank(candidates, health) }), unitNs)

	tracer := telemetry.NewTracer(nil)
	tracer.SetSampleRate(0)
	l.m.set("telemetry.span_ns", l.ns(100, func() { tracer.StartSpan("step").End() }), unitNs)
}

// echoServer answers "echo" with its request and "blob" with a fixed
// reply, for the bare transport measurements.
func echoServer(st *stack, blob []byte) (addr string, stop func(), err error) {
	srv := transport.NewServer()
	srv.Telemetry = st.tel
	srv.Handle("echo", func(b []byte) ([]byte, error) { return b, nil })
	srv.Handle("blob", func([]byte) ([]byte, error) { return blob, nil })
	lis, addr, err := st.listen(serverSite, "echo")
	if err != nil {
		return "", nil, err
	}
	srv.Start(lis)
	return addr, srv.Close, nil
}

// rpc: transport, naming, location and server over netsim at TimeScale 0.
func (l *ledger) rpc(ctx context.Context, owner *keys.KeyPair, small, page *document.Document) error {
	st, err := newNetsimStack(0, now)
	if err != nil {
		return err
	}
	defer st.close()
	if _, err := st.startServer(serverSite, "srv-ams"); err != nil {
		return err
	}
	cfg := transport.Config{Telemetry: st.tel}

	addr, stop, err := echoServer(st, nil)
	if err != nil {
		return err
	}
	defer stop()
	ping := newRand(1, "layers/ping").Bytes(64)
	warm := transport.NewClient(st.dial(clientSite, addr)).Configure(cfg)
	defer warm.Close()
	call := func(c *transport.Client) error { _, err := c.Call(ctx, "echo", ping); return err }
	l.check(call(warm))
	small64 := l.us(5*l.calls, func() error { return call(warm) })
	l.m.set("transport.rpc_small_us", small64, unitUs)
	mallocs, _ := allocsPer(1000, func() { l.check(call(warm)) })
	l.m.set("transport.allocs_per_rpc", mallocs, unitCount)
	// A first call on a fresh client dials, negotiates the protocol
	// version and makes one round trip; subtracting the warm round trip
	// leaves connection establishment.
	first := l.us(l.calls, func() error {
		c := transport.NewClient(st.dial(clientSite, addr)).Configure(cfg)
		defer c.Close()
		return call(c)
	})
	l.m.set("transport.dial_negotiate_us", first-small64, unitUs)

	// One published 1 KiB object and the 11-element page, on a live
	// object server.
	one, err := st.publish(small, "one.bench", owner, time.Hour)
	if err != nil {
		return err
	}
	l.m.set("naming.resolve_cold_us", l.us(l.calls, func() error {
		r := naming.NewResolver(st.dial(clientSite, st.namingAddr), st.authority.RootKey()).Configure(cfg)
		defer r.Close()
		_, err := r.Resolve(ctx, one.Name)
		return err
	}), unitUs)
	chain, err := st.authority.ResolveChain(one.Name)
	if err != nil {
		return err
	}
	root := st.authority.RootKey()
	l.m.set("naming.verify_chain_us", l.us(l.calls, func() error { _, err := naming.VerifyChain(chain, one.Name, root, now()); return err }), unitUs)

	loc := location.NewClient(st.dial(clientSite, st.locationAddr)).Configure(cfg)
	defer loc.Close()
	lookup := func() error { _, err := loc.Lookup(ctx, clientSite, one.OID); return err }
	l.check(lookup())
	l.m.set("location.lookup_us", l.us(l.calls, lookup), unitUs)
	l.m.set("location.tree_lookup_ns", l.ns(100, func() { _, err := st.tree.Lookup(ctx, clientSite, one.OID); l.check(err) }), unitNs)

	oc := object.NewClient(one.OID, st.addrs[serverSite], st.dial(clientSite, st.addrs[serverSite]))
	oc.Transport().Configure(cfg)
	defer oc.Close()
	l.check(oc.Ping(ctx))
	l.m.set("server.getkey_us", l.us(l.calls, func() error { _, err := oc.GetPublicKey(ctx); return err }), unitUs)
	l.m.set("server.getcert_us", l.us(l.calls, func() error { _, err := oc.GetIntegrityCert(ctx); return err }), unitUs)
	l.m.set("server.getelement_1k_us", l.us(l.calls, func() error { _, err := oc.GetElement(ctx, "image.bin"); return err }), unitUs)

	// The page goes under a second key: an OID is its key's hash, and
	// one server hosts an OID once.
	pageOwner, err := keys.Generate(keys.Ed25519)
	if err != nil {
		return err
	}
	pg, err := st.publish(page, "page.bench", pageOwner, time.Hour)
	if err != nil {
		return err
	}
	pc := object.NewClient(pg.OID, st.addrs[serverSite], st.dial(clientSite, st.addrs[serverSite]))
	pc.Transport().Configure(cfg)
	defer pc.Close()
	names := page.Names()
	l.m.set("server.getelements_11_us", l.us(l.calls, func() error {
		items, err := pc.GetElements(ctx, names)
		if err == nil && len(items) != len(names) {
			err = fmt.Errorf("batch returned %d items, want %d", len(items), len(names))
		}
		return err
	}), unitUs)
	return nil
}

// rpcTCP: the 1 MiB entries over loopback TCP, where bulk-stream runs.
func (l *ledger) rpcTCP(ctx context.Context, owner *keys.KeyPair, big *document.Document) error {
	st, err := newTCPStack(now)
	if err != nil {
		return err
	}
	defer st.close()
	if _, err := st.startServer(serverSite, "srv-ams"); err != nil {
		return err
	}
	cfg := transport.Config{Telemetry: st.tel}
	e, err := big.Get("image.bin")
	if err != nil {
		return err
	}
	addr, stop, err := echoServer(st, e.Data)
	if err != nil {
		return err
	}
	defer stop()
	c := transport.NewClient(st.dial(clientSite, addr)).Configure(cfg)
	defer c.Close()
	blob := func() error {
		reply, err := c.Call(ctx, "blob", nil)
		if err == nil && len(reply) != mib {
			err = fmt.Errorf("blob reply is %d bytes", len(reply))
		}
		return err
	}
	l.check(blob())
	l.m.set("transport.rpc_1mib_us", l.us(l.calls, blob), unitUs)
	_, bytes := allocsPer(20, func() { l.check(blob()) })
	l.m.set("transport.alloc_bytes_per_payload_byte", bytes/mib, unitRatio)

	pub, err := st.publish(big, "big.bench", owner, time.Hour)
	if err != nil {
		return err
	}
	oc := object.NewClient(pub.OID, st.addrs[serverSite], st.dial(clientSite, st.addrs[serverSite]))
	oc.Transport().Configure(cfg)
	defer oc.Close()
	l.check(oc.Ping(ctx))
	l.m.set("server.getelement_1mib_us", l.us(l.calls, func() error { _, err := oc.GetElement(ctx, "image.bin"); return err }), unitUs)
	return nil
}

// updates: the write side of update-churn, one call at a time — owner
// re-sign, primary update, delta computation, secondary pull.
func (l *ledger) updates(ctx context.Context, seed uint64, owner *keys.KeyPair, wide *document.Document) error {
	st, err := newNetsimStack(0, now)
	if err != nil {
		return err
	}
	defer st.close()
	primary, err := st.startServer(serverSite, "srv-ams")
	if err != nil {
		return err
	}
	secondary, err := st.startServer(clientSite, "srv-paris")
	if err != nil {
		return err
	}
	pub, err := st.publish(wide, churnObject, owner, time.Hour)
	if err != nil {
		return err
	}
	if err := st.world.ReplicateTo(pub, clientSite); err != nil {
		return err
	}
	const principal = "owner:" + churnObject
	puller := server.NewPuller(secondary, pub.OID, principal, st.addrs[serverSite], st.world.DialFrom(clientSite), time.Hour)
	defer puller.Stop()

	rng := newRand(seed, "layers/updates")
	names := wide.Names()
	var update, delta, pull []float64
	timed := func(into *[]float64, f func() error) {
		start := now()
		err := f()
		*into = append(*into, float64(now().Sub(start))/float64(time.Microsecond))
		l.check(err)
	}
	for i := 0; i < l.calls; i++ {
		name := names[rng.Intn(len(names))]
		l.check(wide.Put(document.Element{Name: name, ContentType: elementType, Data: rng.Bytes(churnElementSize)}))
		icert, err := document.IssueCertificate(wide, pub.OID, owner, now(), document.UniformTTL(time.Hour))
		if err != nil {
			return err
		}
		bundle := server.BundleFromDocument(pub.OID, owner.Public(), wide, icert, []*cert.NameCertificate{pub.NameCert})
		have := wide.Version() - 1
		timed(&update, func() error { return primary.Update(bundle, principal) })
		timed(&delta, func() error {
			d, err := primary.DeltaSince(pub.OID, have)
			if err == nil && d.FullRequired {
				err = fmt.Errorf("delta from version %d declined", have)
			}
			return err
		})
		timed(&pull, func() error {
			pulled, err := puller.CheckOnce(ctx)
			if err == nil && !pulled {
				err = errNoPull
			}
			return err
		})
	}
	l.m.set("server.update_64_us", median(update), unitUs)
	l.m.set("server.delta_since_us", median(delta), unitUs)
	l.m.set("server.puller_check_us", median(pull), unitUs)
	if puller.DeltaFallbacks() != 0 {
		l.check(fmt.Errorf("puller fell back to a full transfer %d times", puller.DeltaFallbacks()))
	}
	return nil
}

// install: what bulk-stream's set-up spends in server.Install.
func (l *ledger) install(owner *keys.KeyPair, seed uint64) error {
	n, size := bulkShape(l.small)
	doc := workload.WideDoc(n, size, newRand(seed, "layers/install").Uint64())
	oid := globeid.FromPublicKey(owner.Public())
	icert, err := document.IssueCertificate(doc, oid, owner, now(), document.UniformTTL(time.Hour))
	if err != nil {
		return err
	}
	bundle := server.BundleFromDocument(oid, owner.Public(), doc, icert, nil)
	us := l.us(3, func() error {
		return server.New("srv", serverSite, keys.NewKeystore(), nil, server.Limits{}).Install(bundle, "owner:bulk")
	})
	l.m.set("server.install_48mib_ms", us/1e3, unitMs)
	return nil
}

// httpPage: the denominators of vs_http_ratio and vs_https_ratio on
// wan-page — the same page over plain HTTP and HTTPS, Paris to
// Amsterdam at TimeScale 1.0.
func (l *ledger) httpPage(page *document.Document) error {
	scale := 1.0
	if l.small {
		scale = smallTimeScale
	}
	st, err := newNetsimStack(scale, now)
	if err != nil {
		return err
	}
	defer st.close()
	base, err := openBaseline(st, page)
	if err != nil {
		return err
	}
	defer base.close()
	if err := base.sample(3); err != nil {
		return err
	}
	l.m.set("httpbase.http_page_p50_ms", median(base.httpMs), unitMs)
	l.m.set("httpbase.https_page_p50_ms", median(base.httpsMs), unitMs)
	return nil
}
