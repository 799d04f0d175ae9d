package engine

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"parajoin/internal/rel"
)

// queueCounter is the introspection hook both transports expose for leak
// checks.
type queueCounter interface {
	QueueCount() int
}

// faultyAfter passes a fixed number of sends through and then fails every
// later one with a transport-flavored error, so a run dies mid-shuffle with
// data already sitting in receiver queues. ReleaseEpoch and Close delegate,
// keeping the inner transport's cleanup path reachable through the wrapper.
type faultyAfter struct {
	Transport
	calls atomic.Int64
	after int64 // 0 = never fail
}

func (f *faultyAfter) Send(ctx context.Context, exchangeID, src, dst int, batch rel.Rows) error {
	if f.after > 0 && f.calls.Add(1) > f.after {
		return fmt.Errorf("%w: injected link failure", ErrTransport)
	}
	return f.Transport.Send(ctx, exchangeID, src, dst, batch)
}

func (f *faultyAfter) ReleaseEpoch(epoch int64) {
	if r, ok := f.Transport.(EpochReleaser); ok {
		r.ReleaseEpoch(epoch)
	}
}

// testReleaseEpoch runs the success / mid-run error / client cancel
// trifecta against a transport and asserts the inbox queue count returns to
// zero each time: every run, however it ends, must release its epoch.
func testReleaseEpoch(t *testing.T, mk func(t *testing.T) Transport) {
	run := func(t *testing.T, after int64, cancelMidRun bool) (Transport, error) {
		t.Helper()
		inner := mk(t)
		wrapped := &faultyAfter{Transport: inner, after: after}
		c := NewClusterWithTransport(3, wrapped)
		t.Cleanup(func() { c.Close() })
		c.Load(randGraph("R", 900, 80, 303))
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		if cancelMidRun {
			go func() {
				time.Sleep(time.Millisecond)
				cancel()
			}()
		}
		_, _, err := c.Run(ctx, shuffleGather("R", []string{"dst"}))
		return inner, err
	}
	assertDrained := func(t *testing.T, inner Transport) {
		t.Helper()
		if n := inner.(queueCounter).QueueCount(); n != 0 {
			t.Fatalf("%d inbox queues survived the run's epoch release", n)
		}
	}

	t.Run("success", func(t *testing.T) {
		inner, err := run(t, 0, false)
		if err != nil {
			t.Fatalf("clean run failed: %v", err)
		}
		assertDrained(t, inner)
	})
	t.Run("error", func(t *testing.T) {
		inner, err := run(t, 2, false)
		if err == nil {
			t.Fatal("run survived a failing transport")
		}
		if !errors.Is(err, ErrTransport) {
			t.Fatalf("error %v does not wrap ErrTransport", err)
		}
		assertDrained(t, inner)
	})
	t.Run("cancel", func(t *testing.T) {
		inner, err := run(t, 0, true)
		// The cancel races run completion; either outcome must drain.
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled run returned %v, want nil or context.Canceled", err)
		}
		assertDrained(t, inner)
	})
}

func TestReleaseEpochMemTransport(t *testing.T) {
	testReleaseEpoch(t, func(t *testing.T) Transport {
		return NewMemTransport(3)
	})
}

func TestReleaseEpochTCPTransport(t *testing.T) {
	testReleaseEpoch(t, func(t *testing.T) Transport {
		tr, err := NewTCPTransport(
			[]string{"127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"}, []int{0, 1, 2})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	})
}
