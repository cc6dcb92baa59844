package core

import (
	"context"
	"time"
)

// StepBindingFlight is the pipeline span recorded when a fetch joins an
// in-flight binding establishment for the same OID instead of running
// its own pipeline. Its duration is credited to Timing.Bind.
const StepBindingFlight = "binding.singleflight"

// flight is one in-progress binding establishment that concurrent
// fetches of the same OID can attach to. The leader fills vb/err and
// closes done; followers wait on done (or their own ctx).
type flight struct {
	done chan struct{}
	vb   *verifiedBinding
	err  error
}

// establishBinding returns a verified binding for pl's object,
// deduplicating concurrent establishment: when binding caching is on and
// another fetch is already running the pipeline for the object, this
// fetch waits for that run and shares its verified result instead of
// repeating the RPC-and-verify steps (counted in
// binding_singleflight_shared_total). shared reports that this caller
// joined another run — or lost a benign race and found the binding
// freshly cached. Only the caller that ran the pipeline gets its
// prefill: it is unverified bytes for that caller's plan, not part of
// the binding. Failover re-binds (excluded != nil) bypass deduplication:
// they must re-verify against a different replica, and sharing a
// possibly-tainted run would defeat that.
func (c *Client) establishBinding(ctx context.Context, p *pipeline, pl *fetchPlan, now time.Time, excluded map[string]bool) (vb *verifiedBinding, pre prefill, shared bool, err error) {
	oid := pl.oid
	if !c.cacheBindings || excluded != nil {
		vb, pre, err = c.establish(ctx, p, pl, now, excluded)
		if err != nil {
			return nil, nil, false, err
		}
		if c.cacheBindings {
			c.storeBinding(oid, vb)
		}
		return vb, pre, false, nil
	}

	c.mu.Lock()
	if vb, ok := c.lookupBindingLocked(oid); ok {
		// Another fetch finished establishing between this one's cache
		// miss and now; its verified binding is as good as ours would be.
		c.mu.Unlock()
		c.tel().SingleflightShared.Inc()
		return vb, nil, true, nil
	}
	if f, ok := c.flights[oid]; ok {
		c.mu.Unlock()
		vb, err = c.joinFlight(ctx, p, f)
		return vb, nil, err == nil, err
	}
	f := &flight{done: make(chan struct{})}
	c.flights[oid] = f
	c.mu.Unlock()

	vb, pre, err = c.establish(ctx, p, pl, now, nil)
	f.vb, f.err = vb, err
	c.mu.Lock()
	if err == nil {
		c.storeBindingLocked(oid, vb)
	}
	delete(c.flights, oid)
	c.mu.Unlock()
	close(f.done)
	if err != nil {
		return nil, nil, false, err
	}
	return vb, pre, false, nil
}

// joinFlight waits for the leader's pipeline run under a
// binding.singleflight span, sharing the leader's outcome — including
// its error, exactly as if this caller had run the pipeline itself.
func (c *Client) joinFlight(ctx context.Context, p *pipeline, f *flight) (*verifiedBinding, error) {
	var vb *verifiedBinding
	err := p.step(StepBindingFlight, &p.timing.Bind, func() error {
		select {
		case <-f.done:
		case <-ctx.Done():
			return ctx.Err()
		}
		if f.err != nil {
			return f.err
		}
		vb = f.vb
		return nil
	})
	if err != nil {
		return nil, err
	}
	c.tel().SingleflightShared.Inc()
	return vb, nil
}
