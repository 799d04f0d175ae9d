package planner

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"parajoin/internal/engine"
	"parajoin/internal/fault"
	"parajoin/internal/rel"
	"parajoin/internal/stats"
)

// exchangeKey names one exchange of one run: the run's position in first-
// send order (rounds run one after another) and its plan-local id.
type exchangeKey struct{ run, exchange int }

// exchangeCount is what a transport carried for one exchange.
type exchangeCount struct{ batches, tuples, bytes int64 }

// exchangeMeter wraps a transport and records per-exchange batches, tuples
// and metered bytes. Sends are serialized so that each one's byte delta on
// the inner transport's meter is its own.
type exchangeMeter struct {
	engine.Transport
	mu     sync.Mutex
	epochs map[int64]int
	counts map[exchangeKey]exchangeCount
}

func newExchangeMeter(inner engine.Transport) *exchangeMeter {
	return &exchangeMeter{Transport: inner}
}

// reset forgets everything recorded so far (a retried run starts over).
func (m *exchangeMeter) reset() {
	m.mu.Lock()
	m.epochs = map[int64]int{}
	m.counts = map[exchangeKey]exchangeCount{}
	m.mu.Unlock()
}

func (m *exchangeMeter) Send(ctx context.Context, exchangeID, src, dst int, batch rel.Rows) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	meter := m.Transport.(engine.TransportMeter)
	before := meter.TransportStats().BytesSent
	if err := m.Transport.Send(ctx, exchangeID, src, dst, batch); err != nil {
		return err
	}
	epoch := int64(exchangeID >> 20)
	run, ok := m.epochs[epoch]
	if !ok {
		run = len(m.epochs)
		m.epochs[epoch] = run
	}
	k := exchangeKey{run, engine.PlanExchangeID(exchangeID)}
	c := m.counts[k]
	c.batches++
	c.tuples += int64(batch.N)
	c.bytes += meter.TransportStats().BytesSent - before
	m.counts[k] = c
	return nil
}

func (m *exchangeMeter) TransportStats() engine.TransportStats {
	return m.Transport.(engine.TransportMeter).TransportStats()
}

func (m *exchangeMeter) ReleaseEpoch(epoch int64) {
	m.Transport.(engine.EpochReleaser).ReleaseEpoch(epoch)
}

// readsExchange reports whether a plan tree consumes an exchange.
func readsExchange(n engine.Node) bool {
	switch v := n.(type) {
	case engine.Recv:
		return true
	case engine.Select:
		return readsExchange(v.Input)
	case engine.Project:
		return readsExchange(v.Input)
	case engine.Count:
		return readsExchange(v.Input)
	case engine.HashJoin:
		return readsExchange(v.Left) || readsExchange(v.Right)
	case engine.SemiJoin:
		return readsExchange(v.Left) || readsExchange(v.Right)
	case engine.Tributary:
		for _, in := range v.Inputs {
			if readsExchange(in) {
				return true
			}
		}
	}
	return false
}

// orderDeterministic reports whether every exchange's batches have a fixed
// row order: a single round whose exchanges all read base fragments. Rows
// that passed through an earlier exchange arrive in scheduling order, which
// changes how a batch encodes but not which rows or how many batches.
func orderDeterministic(rounds []engine.Round) bool {
	if len(rounds) != 1 {
		return false
	}
	for _, ex := range rounds[0].Plan.Exchanges {
		if readsExchange(ex.Input) {
			return false
		}
	}
	return true
}

func sortedRows(r *rel.Relation) []rel.Tuple {
	ts := slices.Clone(r.Tuples)
	slices.SortFunc(ts, rel.Tuple.Compare)
	return ts
}

// TestExchangeTransportMatrix runs random conjunctive queries under every
// plan configuration over four exchange transports — MemTransport plain,
// MemTransport columnar, TCP loopback, and a seeded fault plan (stalls and
// drops, with retries) wrapped around a columnar MemTransport. Every arm
// must return the same rows. The two columnar in-memory arms must also
// carry the same batches and tuples per exchange, and the same encoded
// bytes wherever the row order inside batches is fixed by the plan.
func TestExchangeTransportMatrix(t *testing.T) {
	const workers = 3
	trials := 5
	if testing.Short() {
		trials = 2
	}
	var injected int64 // faults the fault arm suffered, over all trials
	bytesChecked := 0  // configurations whose encoded bytes were compared
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(7000 + trial)))
		rels := []*rel.Relation{
			randGraph("R0", 60+rng.Intn(80), 8+rng.Intn(8), rng.Int63()),
			randGraph("R1", 60+rng.Intn(80), 8+rng.Intn(8), rng.Int63()),
			randGraph("R2", 60+rng.Intn(80), 8+rng.Intn(8), rng.Int63()),
		}
		q := randomQuery(rng, trial)
		relMap := map[string]*rel.Relation{}
		for _, r := range rels {
			relMap[r.Name] = r
		}
		pl := &Planner{Workers: workers, Catalog: stats.NewCatalog(rels...), Relations: relMap, MaxOrders: 720}

		type arm struct {
			name    string
			meter   *exchangeMeter
			cluster *engine.Cluster
		}
		newArm := func(name string, tr engine.Transport) arm {
			m := newExchangeMeter(tr)
			c := engine.NewClusterWithTransport(workers, m)
			t.Cleanup(func() { c.Close() })
			for _, r := range rels {
				c.Load(r)
			}
			return arm{name, m, c}
		}
		plain := engine.NewMemTransport(workers)
		columnar := engine.NewMemTransport(workers)
		columnar.Columnar = true
		addrs := make([]string, workers)
		hosted := make([]int, workers)
		for i := range addrs {
			addrs[i], hosted[i] = "127.0.0.1:0", i
		}
		tcp, err := engine.NewTCPTransport(addrs, hosted)
		if err != nil {
			t.Fatal(err)
		}
		faulted := engine.NewMemTransport(workers)
		faulted.Columnar = true
		plan, err := fault.ParsePlan(fmt.Sprintf("seed=%d;stall:prob=0.2,delay=50us;drop:prob=0.05,count=1", trial))
		if err != nil {
			t.Fatal(err)
		}
		inj := plan.NewInjector()
		arms := []arm{
			newArm("mem", plain),
			newArm("mem-columnar", columnar),
			newArm("tcp", tcp),
			newArm("fault", fault.Wrap(faulted, inj)),
		}

		for _, cfg := range Configs {
			res, err := pl.Plan(q, cfg)
			if err != nil {
				t.Fatalf("trial %d (%s) %v: planning: %v", trial, q, cfg, err)
			}
			var want []rel.Tuple
			for i, a := range arms {
				var got *rel.Relation
				for attempt := 0; ; attempt++ {
					a.meter.reset()
					got, _, err = a.cluster.RunRounds(context.Background(), res.Rounds)
					if err == nil || !engine.Retryable(err) || attempt == 20 {
						break
					}
				}
				if err != nil {
					t.Fatalf("trial %d (%s) %v on %s: %v", trial, q, cfg, a.name, err)
				}
				rows := sortedRows(got)
				if i == 0 {
					want = rows
					continue
				}
				if !slices.EqualFunc(rows, want, rel.Tuple.Equal) {
					t.Fatalf("trial %d (%s) %v: %s returned %d rows, %s %d",
						trial, q, cfg, a.name, len(rows), arms[0].name, len(want))
				}
			}
			col, flt := arms[1].meter.counts, arms[3].meter.counts
			checkBytes := orderDeterministic(res.Rounds)
			if checkBytes {
				bytesChecked++
			}
			if len(col) != len(flt) {
				t.Fatalf("trial %d (%s) %v: columnar arms used %d and %d exchanges", trial, q, cfg, len(col), len(flt))
			}
			for k, c := range col {
				f := flt[k]
				if !checkBytes {
					c.bytes, f.bytes = 0, 0
				}
				if c != f {
					t.Fatalf("trial %d (%s) %v: exchange %+v carried %+v on mem-columnar, %+v under faults",
						trial, q, cfg, k, c, f)
				}
			}
		}
		injected += inj.InjectedTotal()
	}
	if injected == 0 || bytesChecked == 0 {
		t.Fatalf("the matrix exercised %d faults and compared bytes for %d configurations; want both > 0", injected, bytesChecked)
	}
	t.Logf("%d faults injected; encoded bytes compared for %d configurations", injected, bytesChecked)
}
