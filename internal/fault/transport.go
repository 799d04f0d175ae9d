package fault

import (
	"context"
	"fmt"
	"time"

	"parajoin/internal/engine"
	"parajoin/internal/rel"
)

// Wrap interposes the injector on a transport: Send, CloseSend, and Recv
// consult the plan before delegating. Injected errors wrap both ErrInjected
// and engine.ErrTransport, so the query-level recovery path classifies them
// as retryable — exactly like the real network failures they stand in for.
//
// The wrapper forwards TransportStats and ReleaseEpoch when the inner
// transport supports them, so metering and epoch cleanup see through it.
func Wrap(t engine.Transport, inj *Injector) engine.Transport {
	return &transport{inner: t, inj: inj}
}

type transport struct {
	inner engine.Transport
	inj   *Injector
}

// wireErr upgrades an injected fault to a transport-layer error.
func wireErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", engine.ErrTransport, err)
}

func (t *transport) Send(ctx context.Context, exchangeID, src, dst int, batch rel.Rows) error {
	delay, err := t.inj.Send(engine.PlanExchangeID(exchangeID), src)
	if delay > 0 {
		timer := time.NewTimer(delay)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
	if err != nil {
		return wireErr(err)
	}
	return t.inner.Send(ctx, exchangeID, src, dst, batch)
}

func (t *transport) CloseSend(ctx context.Context, exchangeID, src int) error {
	if err := t.inj.CloseSend(engine.PlanExchangeID(exchangeID), src); err != nil {
		return wireErr(err)
	}
	return t.inner.CloseSend(ctx, exchangeID, src)
}

func (t *transport) Recv(ctx context.Context, exchangeID, dst int) (rel.Rows, bool, error) {
	if err := t.inj.Recv(engine.PlanExchangeID(exchangeID), dst); err != nil {
		return rel.Rows{}, false, wireErr(err)
	}
	return t.inner.Recv(ctx, exchangeID, dst)
}

func (t *transport) Close() error { return t.inner.Close() }

// TransportStats implements engine.TransportMeter by delegation (zero when
// the inner transport doesn't meter).
func (t *transport) TransportStats() engine.TransportStats {
	if m, ok := t.inner.(engine.TransportMeter); ok {
		return m.TransportStats()
	}
	return engine.TransportStats{}
}

// ReleaseEpoch implements engine.EpochReleaser by delegation.
func (t *transport) ReleaseEpoch(epoch int64) {
	if r, ok := t.inner.(engine.EpochReleaser); ok {
		r.ReleaseEpoch(epoch)
	}
}
