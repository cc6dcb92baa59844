// Package globedoc_test holds the top-level benchmark suite: one
// testing.B benchmark per table/figure of the paper's evaluation (run
// them with `go test -bench=. -benchmem`), plus ablation benchmarks for
// the design choices called out in DESIGN.md §3.
//
// The figure benchmarks run the full protocol stack over the simulated
// testbed at a reduced time scale (so `go test -bench` stays fast);
// cmd/benchmark runs the same experiments at full scale and prints the
// paper-style tables. Custom metrics carry the quantities the paper
// plots: overhead-% for Figure 4, per-transport fetch times for Figures
// 5–7.
package globedoc_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"globedoc/internal/bench"
	"globedoc/internal/core"
	"globedoc/internal/deploy"
	"globedoc/internal/document"
	"globedoc/internal/globeid"
	"globedoc/internal/keys"
	"globedoc/internal/keys/keytest"
	"globedoc/internal/merkle"
	"globedoc/internal/netsim"
	"globedoc/internal/replication"
	"globedoc/internal/server"
	"globedoc/internal/workload"
)

// benchScale keeps the wide-area latencies proportionally correct while
// making `go test -bench` tolerable: 2% of the paper's delays.
const benchScale = 0.02

// BenchmarkTable1Testbed measures standing up the Table-1 testbed: the
// four hosts, their links, and the infrastructure services.
func BenchmarkTable1Testbed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w, err := deploy.NewWorld(deploy.Options{TimeScale: 0, KeyAlgorithm: keys.Ed25519})
		if err != nil {
			b.Fatal(err)
		}
		w.Close()
	}
}

// fig4World publishes one single-element object per benchmark size.
func fig4World(b *testing.B, size int) (*deploy.World, *deploy.Publication) {
	b.Helper()
	w, err := deploy.NewWorld(deploy.Options{TimeScale: benchScale})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(w.Close)
	if _, err := w.StartServer(netsim.AmsterdamPrimary, "srv", nil, nil, server.Limits{}); err != nil {
		b.Fatal(err)
	}
	doc := workload.SingleElementDoc(size, uint64(size))
	pub, err := w.Publish(doc, deploy.PublishOptions{
		Name: "bench.obj", TTL: 24 * time.Hour, OwnerKey: keytest.RSA(),
	})
	if err != nil {
		b.Fatal(err)
	}
	return w, pub
}

// BenchmarkFig4SecurityOverhead reproduces Figure 4: a cold secure fetch
// of one element, per size and client site. The security-overhead
// percentage is reported as the custom metric "overhead-%".
func BenchmarkFig4SecurityOverhead(b *testing.B) {
	for _, size := range []int{1 * workload.KB, 100 * workload.KB, 1024 * workload.KB} {
		for _, client := range netsim.ClientHosts {
			name := fmt.Sprintf("size=%s/client=%s", sizeLabel(size), netsim.ClientLabel(client))
			b.Run(name, func(b *testing.B) {
				w, pub := fig4World(b, size)
				sc := w.NewSecureClient(client)
				defer sc.Close()
				var sumSec, sumTot time.Duration
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					sc.Close()
					res, err := sc.Fetch(context.Background(), pub.OID, "image.bin")
					if err != nil {
						b.Fatal(err)
					}
					sumSec += res.Timing.Security()
					sumTot += res.Timing.Total()
				}
				b.StopTimer()
				if sumTot > 0 {
					b.ReportMetric(100*float64(sumSec)/float64(sumTot), "overhead-%")
				}
				b.SetBytes(int64(size))
			})
		}
	}
}

// BenchmarkFig5AmsterdamClient / Fig6 / Fig7 reproduce Figures 5–7: full
// composite-object fetch via GlobeDoc, HTTP and HTTPS.
func BenchmarkFig5AmsterdamClient(b *testing.B) { benchFig5(b, netsim.AmsterdamSecondary) }

// BenchmarkFig6ParisClient is Figure 6.
func BenchmarkFig6ParisClient(b *testing.B) { benchFig5(b, netsim.Paris) }

// BenchmarkFig7IthacaClient is Figure 7.
func BenchmarkFig7IthacaClient(b *testing.B) { benchFig5(b, netsim.Ithaca) }

func benchFig5(b *testing.B, client string) {
	// Reuse the harness row measurement inside testing.B: each
	// iteration is one full three-transport comparison row.
	for _, imageSize := range []int{1 * workload.KB, 100 * workload.KB} {
		total := 5*workload.KB + 10*imageSize
		b.Run(fmt.Sprintf("object=%s", sizeLabel(total)), func(b *testing.B) {
			cfg := bench.Config{
				TimeScale:  benchScale,
				Iterations: b.N,
				ImageSizes: []int{imageSize},
				Clients:    []string{client},
			}
			b.ResetTimer()
			res, err := bench.RunFig5(client, cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			row := res.Rows[0]
			b.ReportMetric(float64(row.GlobeDoc.Mean)/1e6, "globedoc-ms")
			b.ReportMetric(float64(row.HTTP.Mean)/1e6, "http-ms")
			b.ReportMetric(float64(row.HTTPS.Mean)/1e6, "https-ms")
		})
	}
}

func sizeLabel(size int) string {
	if size >= 1024*1024 {
		return fmt.Sprintf("%dMB", size/(1024*1024))
	}
	return fmt.Sprintf("%dKB", size/1024)
}

// --- Ablations (DESIGN.md §3, A1–A4) ---------------------------------------

// BenchmarkAblationCertVsMerkle (A1) compares per-element verification
// cost: GlobeDoc integrity certificate (verify signature once + hash the
// element) versus an r-oSFS-style Merkle tree (verify signed root + walk
// the authentication path).
func BenchmarkAblationCertVsMerkle(b *testing.B) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	now := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	for _, elems := range []int{16, 256} {
		contents := make(map[string][]byte, elems)
		doc := document.New()
		for i := 0; i < elems; i++ {
			name := fmt.Sprintf("element-%04d", i)
			data := workload.NewRand(uint64(i + 1)).Bytes(4 * workload.KB)
			contents[name] = data
			doc.Put(document.Element{Name: name, Data: data})
		}
		icert, err := document.IssueCertificate(doc, oid, owner, now, document.UniformTTL(time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		tree, err := merkle.Build(contents)
		if err != nil {
			b.Fatal(err)
		}
		root, err := merkle.SignRoot(tree, oid, owner, 1, now, now.Add(time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		target := "element-0007"
		proof, err := tree.Prove(target)
		if err != nil {
			b.Fatal(err)
		}
		at := now.Add(time.Minute)

		b.Run(fmt.Sprintf("cert/elements=%d", elems), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := icert.VerifySignature(oid, owner.Public()); err != nil {
					b.Fatal(err)
				}
				if err := icert.VerifyElement(target, contents[target], at); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("merkle/elements=%d", elems), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := root.VerifyElement(oid, owner.Public(), proof, contents[target], at); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationKeyAlgo (A2) compares the object-key algorithms on
// the owner-side signing and client-side verification paths.
func BenchmarkAblationKeyAlgo(b *testing.B) {
	now := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	doc := workload.SingleElementDoc(10*workload.KB, 1)
	for _, alg := range []keys.Algorithm{keys.RSA2048, keys.Ed25519} {
		owner := keytest.Pair(alg)
		oid := globeid.FromPublicKey(owner.Public())
		b.Run("sign/"+alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := document.IssueCertificate(doc, oid, owner, now, document.UniformTTL(time.Hour)); err != nil {
					b.Fatal(err)
				}
			}
		})
		icert, err := document.IssueCertificate(doc, oid, owner, now, document.UniformTTL(time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		b.Run("verify/"+alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := icert.VerifySignature(oid, owner.Public()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationReplication (A3) runs the per-document strategy
// selector on a flash-crowd trace and reports, as custom metrics, the
// cost of the adaptively selected strategy versus the one-size-fits-all
// choices — the quantitative form of ref [13]'s claim.
func BenchmarkAblationReplication(b *testing.B) {
	start := time.Date(2005, 4, 4, 12, 0, 0, 0, time.UTC)
	fc := workload.FlashCrowd{
		Start: start, Duration: 10 * time.Minute,
		BackgroundSite: "paris", BackgroundRPS: 0.5,
		SpikeSite: "ithaca", SpikeAfter: 2 * time.Minute, SpikeRPS: 20,
	}
	trace := workload.UpdateTrace(fc.Trace(1), time.Minute)
	env := replication.Env{
		PrimarySite: "amsterdam",
		Sites:       []string{"amsterdam", "paris", "ithaca"},
		DocSize:     100 * workload.KB,
		RTT: func(a, c string) time.Duration {
			if a == c {
				return 0
			}
			return 60 * time.Millisecond
		},
		Bandwidth: func(a, c string) float64 { return 1e6 },
	}
	candidates := replication.DefaultCandidates()
	var adaptive, fixedNoRepl, fixedFull float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		evals := replication.Select(trace, env, candidates, replication.DefaultWeights)
		adaptive = evals[0].Cost
		for _, ev := range evals {
			switch ev.Strategy.Name() {
			case "NoRepl":
				fixedNoRepl = ev.Cost
			case "FullRepl":
				fixedFull = ev.Cost
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(adaptive, "adaptive-cost")
	b.ReportMetric(fixedNoRepl, "norepl-cost")
	b.ReportMetric(fixedFull, "fullrepl-cost")
}

// BenchmarkAblationBindingCache (A4) compares cold versus warm secure
// fetches: the warm path reuses the verified binding (key, certificate,
// connection) and pays only element fetch + hash verification.
func BenchmarkAblationBindingCache(b *testing.B) {
	w, pub := fig4World(b, 10*workload.KB)
	b.Run("cold", func(b *testing.B) {
		sc := w.NewSecureClient(netsim.Paris)
		defer sc.Close()
		for i := 0; i < b.N; i++ {
			sc.Close()
			if _, err := sc.Fetch(context.Background(), pub.OID, "image.bin"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		sc, err := w.NewSecureClientOpts(netsim.Paris, core.Options{CacheBindings: true})
		if err != nil {
			b.Fatal(err)
		}
		defer sc.Close()
		if _, err := sc.Fetch(context.Background(), pub.OID, "image.bin"); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := sc.Fetch(context.Background(), pub.OID, "image.bin"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Micro-benchmarks for the crypto core ----------------------------------

// BenchmarkCertificateIssue measures owner-side certificate issuance as
// element count grows.
func BenchmarkCertificateIssue(b *testing.B) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	now := time.Now()
	for _, n := range []int{1, 11, 101} {
		doc := document.New()
		for i := 0; i < n; i++ {
			doc.Put(document.Element{Name: fmt.Sprintf("e%03d", i), Data: workload.NewRand(uint64(i)).Bytes(workload.KB)})
		}
		b.Run(fmt.Sprintf("elements=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := document.IssueCertificate(doc, oid, owner, now, document.UniformTTL(time.Hour)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkElementVerify measures the client-side per-element check
// (hash + freshness + consistency) across element sizes — the Figure-4
// numerator component that scales with size.
func BenchmarkElementVerify(b *testing.B) {
	owner := keytest.Ed()
	oid := globeid.FromPublicKey(owner.Public())
	now := time.Now()
	for _, size := range []int{1 * workload.KB, 100 * workload.KB, 1024 * workload.KB} {
		data := workload.NewRand(uint64(size)).Bytes(size)
		doc := document.New()
		doc.Put(document.Element{Name: "e", Data: data})
		icert, err := document.IssueCertificate(doc, oid, owner, now, document.UniformTTL(time.Hour))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sizeLabel(size), func(b *testing.B) {
			b.SetBytes(int64(size))
			for i := 0; i < b.N; i++ {
				if err := icert.VerifyElement("e", data, now.Add(time.Minute)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
