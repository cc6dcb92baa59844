package main

import (
	"context"
	"io"
	"math"
	"math/big"
	"net"
	"time"
)

// The machine this benchmark runs on does not hold its speed: the 2-vCPU
// sandbox switches, for seconds to minutes at a time and with nothing else
// running in the guest, between a fast state and a slow one in which
// 2048-bit arithmetic and goroutine hand-offs take 1.3× as long (1.7× and
// 1.4× in the worst spells seen), and the same binary's small fetches
// slow by a third with it — more than the 25 % that is the widest bound
// BENCHMARK.json's contract allows (README, "Steadiness"). So on the two
// workloads where what is measured is one client's CPU time (first-visit,
// update-churn) the gated times are reported relative to reference work
// timed in the same moments: a fixed sequence of standard-library
// operations, which nothing in this repository can speed up or slow down,
// run every few operations inside the measured loop. What is reported is
//
//	measured time ÷ slowdown
//
// where slowdown is how much longer than nominal the reference took — the
// time the operation would have taken had the machine run the reference
// at its nominal speed. The slowdown and the times as measured (raw_*)
// are printed beside them.
//
// The reference must measure the machine and not the program under test,
// or a change to the program would move both sides of the division. Its
// parts therefore touch a few hundred bytes and allocate nothing, the
// single client runs it on the one processor it has (nothing else is
// runnable but what the fetch just left behind), and the scheduler part
// is timed only after one untimed hand-off has let those leftovers
// finish. Timed right after a fetch and timed on an idle process, each
// part reads the same to within 3–6 % (README, "The machine-speed
// reference"). bulk-stream, whose two clients keep both processors, the
// collector and the memory bus busy, has no such quiet moment and reports
// its times as measured.

// The reference's parts: the two kinds of work a small fetch is made of
// that the machine's slow spells slow. (Hashing and copying, which the
// spells leave alone — 1.04× against a fetch's 1.35× — would only dilute
// the correction.) Each is timed on its own, because the spells do not
// slow both alike.
const (
	refBigmul = iota // 2048-bit multiplications: the arithmetic of a signature check
	refSwitch        // goroutine ping-pongs over net.Pipe: what an RPC over netsim asks of the scheduler
	refParts
)

// referenceNominalUs is each part's duration on the sandbox in its fast
// spells, with one processor. Only ratios between commits matter, so the
// values carry no meaning beyond keeping reported times near the raw ones
// of a fast spell.
var referenceNominalUs = [refParts]float64{refBigmul: 13.5, refSwitch: 3.95}

// reference is the single client's reference work. unit allocates
// nothing, so interleaving it leaves the allocation counts of the
// operations around it exact.
type reference struct {
	x, y, z *big.Int
	pipe    net.Conn // to the echo goroutine
}

func newReference() *reference {
	r := &reference{}
	r.x = new(big.Int).Lsh(big.NewInt(0x10001b), 2020)
	r.y = new(big.Int).Add(r.x, big.NewInt(12345))
	r.z = new(big.Int).Mul(r.x, r.y) // sized once; later products reuse it
	near, far := net.Pipe()
	r.pipe = near
	go echo(far)
	return r
}

// echo answers every read with the same bytes until the peer closes.
func echo(c net.Conn) {
	defer c.Close()
	b := make([]byte, 64)
	for {
		n, err := c.Read(b)
		if err != nil {
			return
		}
		if _, err := c.Write(b[:n]); err != nil {
			return
		}
	}
}

func (r *reference) close() { r.pipe.Close() }

// refSample is one timing of each part, in µs.
type refSample [refParts]float64

// unit runs the reference once. The first hand-off is not timed:
// blocking in it lets the goroutines the fetch left runnable finish, so
// the timed ones queue behind nothing of the program's.
func (r *reference) unit() (s refSample) {
	lap := func(part int, start time.Time) {
		s[part] = float64(now().Sub(start)) / float64(time.Microsecond)
	}
	t := now()
	for i := 0; i < 200; i++ {
		r.z.Mul(r.x, r.y)
	}
	lap(refBigmul, t)
	var b [64]byte
	for i := 0; i < 3; i++ {
		if i == 1 {
			t = now()
		}
		if _, err := r.pipe.Write(b[:]); err == nil {
			_, _ = io.ReadFull(r.pipe, b[:]) // a broken pipe shows as an absurd time, which is the signal
		}
	}
	lap(refSwitch, t)
	return s
}

// units runs the reference n times.
func (r *reference) units(n int) []refSample {
	out := make([]refSample, n)
	for i := range out {
		out[i] = r.unit()
	}
	return out
}

// partMedians returns each part's median duration over samples, in µs.
func partMedians(samples []refSample) (m refSample) {
	column := make([]float64, len(samples))
	for part := range m {
		for i, s := range samples {
			column[i] = s[part]
		}
		m[part] = median(column)
	}
	return m
}

// slowdown is how much slower than nominal the machine ran the reference
// over the given samples: the geometric mean, over the parts, of each
// part's median duration relative to its nominal one. No samples (a
// workload that does not interleave the reference) is no correction.
func slowdown(samples []refSample) float64 {
	if len(samples) == 0 {
		return 1
	}
	logSum := 0.0
	for part, us := range partMedians(samples) {
		logSum += math.Log(us / referenceNominalUs[part])
	}
	return math.Exp(logSum / refParts)
}

// referenced wraps an issuer so that a reference unit runs after every
// few fetches, outside their timed sections.
type referenced struct {
	inner   issuer
	ref     *reference
	every   int
	calls   int
	samples []refSample
	spent   time.Duration // total time in reference units, to take out of wall time
}

func (r *referenced) fetch(ctx context.Context, w want) (time.Duration, error) {
	d, err := r.inner.fetch(ctx, w)
	if r.calls++; r.calls%r.every == 0 {
		start := now()
		r.samples = append(r.samples, r.ref.unit())
		r.spent += now().Sub(start)
	}
	return d, err
}
