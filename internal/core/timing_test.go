package core_test

import (
	"context"
	"math"
	"testing"
	"time"

	"globedoc/internal/clock"
	"globedoc/internal/core"
	"globedoc/internal/netsim"
	"globedoc/internal/telemetry"
)

func fullTiming(unit time.Duration) core.Timing {
	return core.Timing{
		NameResolve:    1 * unit,
		Bind:           2 * unit,
		KeyFetch:       3 * unit,
		KeyVerify:      4 * unit,
		NameCertFetch:  5 * unit,
		NameCertVerify: 6 * unit,
		CertFetch:      7 * unit,
		CertVerify:     8 * unit,
		ElementFetch:   9 * unit,
		ElementVerify:  10 * unit,
	}
}

func TestTimingSecurityAndTotal(t *testing.T) {
	tm := fullTiming(time.Millisecond)
	// Security = KeyFetch+KeyVerify+NameCertFetch+NameCertVerify+
	// CertFetch+CertVerify+ElementVerify = 3+4+5+6+7+8+10 = 43ms.
	if got, want := tm.Security(), 43*time.Millisecond; got != want {
		t.Errorf("Security = %v, want %v", got, want)
	}
	// Total adds NameResolve+Bind+ElementFetch = 1+2+9 on top: 55ms.
	if got, want := tm.Total(), 55*time.Millisecond; got != want {
		t.Errorf("Total = %v, want %v", got, want)
	}
}

func TestTimingOverheadPercent(t *testing.T) {
	tm := fullTiming(time.Millisecond)
	want := 100 * 43.0 / 55.0
	if got := tm.OverheadPercent(); math.Abs(got-want) > 1e-9 {
		t.Errorf("OverheadPercent = %v, want %v", got, want)
	}
}

func TestTimingOverheadPercentZeroTotal(t *testing.T) {
	var zero core.Timing
	if got := zero.OverheadPercent(); got != 0 {
		t.Errorf("zero Timing OverheadPercent = %v, want 0 (not NaN)", got)
	}
	if math.IsNaN(zero.OverheadPercent()) {
		t.Error("zero Timing OverheadPercent is NaN")
	}
}

func TestTimingAddAccumulatesEveryField(t *testing.T) {
	var sum core.Timing
	sum.Add(fullTiming(time.Millisecond))
	sum.Add(fullTiming(2 * time.Millisecond))
	want := fullTiming(3 * time.Millisecond)
	if sum != want {
		t.Errorf("Add missed a field:\n got %+v\nwant %+v", sum, want)
	}
}

func TestTimingScale(t *testing.T) {
	tm := fullTiming(6 * time.Millisecond)
	if got, want := tm.Scale(3), fullTiming(2*time.Millisecond); got != want {
		t.Errorf("Scale(3):\n got %+v\nwant %+v", got, want)
	}
	// Non-positive n returns the input unchanged rather than dividing by
	// zero.
	if got := tm.Scale(0); got != tm {
		t.Errorf("Scale(0) = %+v, want input unchanged", got)
	}
	if got := tm.Scale(-2); got != tm {
		t.Errorf("Scale(-2) = %+v, want input unchanged", got)
	}
}

func TestTimingAddScaleRoundTrip(t *testing.T) {
	// The benchmark harness averages with Add then Scale(n); that must
	// reproduce the mean of identical samples exactly.
	var sum core.Timing
	one := fullTiming(time.Millisecond)
	for i := 0; i < 5; i++ {
		sum.Add(one)
	}
	if got := sum.Scale(5); got != one {
		t.Errorf("mean of 5 identical samples:\n got %+v\nwant %+v", got, one)
	}
}

// tickingClock is a clock.Fake that moves a millisecond forward at every
// reading, so each span measures a distinct, nonzero interval.
type tickingClock struct{ *clock.Fake }

func (c tickingClock) Now() time.Time {
	c.Advance(time.Millisecond)
	return c.Fake.Now()
}

// TestTimingIsTheSumOfItsSteps: a fetch's Timing is credited from its
// steps' leaf durations, so each field equals the sum of the durations
// its exported steps record — the steps timed in place for NameResolve,
// Bind and each verification, and for the four fetch fields, which share
// the one obj.bind exchange by their bytes, the bind.fetch step they
// split (less at most the nanosecond each share rounds away).
func TestTimingIsTheSumOfItsSteps(t *testing.T) {
	w, _, _ := batchWorld(t, 4)
	tel := telemetry.New(tickingClock{clock.NewFake(time.Unix(0, 0))})
	client, err := w.NewSecureClientOpts(netsim.Paris, core.Options{Telemetry: tel})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(client.Close)
	res, err := client.FetchNamed(context.Background(), "batch.vu.nl", "part-01.html")
	if err != nil {
		t.Fatal(err)
	}
	steps := make(map[string]time.Duration)
	for _, rec := range tel.Ring.Spans() {
		steps[rec.Name] += rec.Duration()
	}
	sum := func(names ...string) time.Duration {
		var d time.Duration
		for _, n := range names {
			d += steps[n]
		}
		return d
	}
	tm := res.Timing
	for _, c := range []struct {
		field     string
		got, want time.Duration
	}{
		{"NameResolve", tm.NameResolve, sum(core.StepNameResolve)},
		{"Bind", tm.Bind, sum(core.StepLocationLookup, core.StepDial)},
		{"KeyVerify", tm.KeyVerify, sum(core.StepKeyVerify)},
		{"NameCertVerify", tm.NameCertVerify, sum(core.StepNameCertVerify)},
		{"CertVerify", tm.CertVerify, sum(core.StepCertVerify)},
		{"ElementVerify", tm.ElementVerify, sum(core.StepVerifyConsistency, core.StepVerifyAuthenticity, core.StepVerifyFreshness)},
	} {
		if c.got != c.want || c.got <= 0 {
			t.Errorf("Timing.%s = %v, its steps' spans sum to %v; want them equal and nonzero", c.field, c.got, c.want)
		}
	}
	fetched := tm.KeyFetch + tm.NameCertFetch + tm.CertFetch + tm.ElementFetch
	if exchange := sum(core.StepBindFetch); fetched > exchange || fetched < exchange-4 || fetched <= 0 {
		t.Errorf("the fetch fields sum to %v (%+v), the bind.fetch span to %v", fetched, tm, exchange)
	}
	for _, name := range []string{core.StepKeyFetch, core.StepNameCertFetch, core.StepCertFetch, core.StepElementFetch} {
		if _, ok := steps[name]; !ok {
			t.Errorf("no %s span was exported", name)
		}
	}
}
