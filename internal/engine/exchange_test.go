package engine

import (
	"context"
	"testing"

	"parajoin/internal/rel"
)

// TestExchangeAllocsPerBatch routes full batches through one producer's
// shuffle buffer and receives them back through the transport, plain and
// columnar. The shuffle buffer and the receive queue's decode array are
// reused batch after batch, so a batch costs a constant number of
// allocations — the transport's own copy or encoded frame and its queue
// bookkeeping — whether it holds 8 rows or 512. Under the race detector
// only the rows are checked.
func TestExchangeAllocsPerBatch(t *testing.T) {
	for _, columnar := range []bool{false, true} {
		perBatch := func(bs int) float64 {
			tr := NewMemTransport(1)
			tr.Columnar = columnar
			e := &exec{transport: tr, metrics: NewMetrics(1), batchSize: bs, ctx: context.Background()}
			sh := &shuffle{e: e, spec: &ExchangeSpec{Name: "x"}, outs: make([]rel.Rows, 1)}
			recv := &recvOp{t: &task{ex: e}}
			rows := make([]rel.Tuple, bs)
			for i := range rows {
				rows[i] = rel.Tuple{int64(i), int64(i % 7)}
			}
			const batches = 32
			run := func() {
				for i := 0; i < batches; i++ {
					for _, r := range rows {
						if err := sh.add(0, r); err != nil {
							t.Fatal(err)
						}
					}
					b, err := recv.next()
					if err != nil || b.N != bs || b.Row(bs - 1)[0] != int64(bs-1) {
						t.Fatalf("received %d rows (%v), want %d", b.N, err, bs)
					}
				}
			}
			run() // warm-up: the buffers reach their steady size
			return testing.AllocsPerRun(5, run) / batches
		}
		small, large := perBatch(8), perBatch(512)
		t.Logf("columnar=%v: %.2f allocations per batch at 8 rows, %.2f at 512 rows", columnar, small, large)
		if raceEnabled {
			continue // the rows were checked; the pools are not reliable here
		}
		if small > 3 || large > 3 {
			t.Fatalf("columnar=%v: %.2f (8 rows) and %.2f (512 rows) allocations per batch, want at most 3",
				columnar, small, large)
		}
	}
}
