package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"parajoin"
	"parajoin/internal/core"
	"parajoin/internal/dataset"
	"parajoin/internal/engine"
	"parajoin/internal/ljoin"
	"parajoin/internal/planner"
	"parajoin/internal/queries"
	"parajoin/internal/rel"
	"parajoin/internal/stats"
)

const batchWhy = "Q1 under all six shuffle x join configs, a spilling RS_TJ, Q3 and Q4 through the embedding API: exchange, Tributary sort/join, planning, spill"

// batchSizes are the batch-joins size parameters.
type batchSizes struct {
	Workers     int
	Graph       dataset.GraphConfig
	KB          dataset.KBConfig
	SpillBudget int64
}

func batchSizesFor(cfg config) batchSizes {
	kb := dataset.DefaultKB()
	graph := dataset.DefaultTwitter()
	graph.Seed = datasetSeed(cfg.graphSeed, graph.Seed)
	kb.Actors, kb.Films, kb.Performances = kb.Actors/2, kb.Films/2, kb.Performances/2
	kb.Directors, kb.Honors, kb.Awards = kb.Directors/2, kb.Honors/2, kb.Awards/2
	kb.Seed = datasetSeed(cfg.kbSeed, kb.Seed)
	s := batchSizes{
		Workers:     16,
		Graph:       graph,
		KB:          kb,
		SpillBudget: 60000,
	}
	if cfg.tiny {
		s.Workers = 4
		s.Graph.Edges, s.Graph.Nodes = 1500, 200
		s.KB = dataset.KBConfig{Actors: 120, Films: 80, Performances: 400, Directors: 12, Honors: 50, Awards: 4, Seed: kb.Seed}
		s.SpillBudget = 400
	}
	return s
}

// batchOp is one query execution of a pass.
type batchOp struct {
	query    string
	strategy parajoin.Strategy
	config   planner.PlanConfig
	spill    bool // run under the tuple budget with SpillOnPressure
}

func (o batchOp) label() string {
	l := o.query + "/" + string(o.strategy)
	if o.spill {
		l += "/spill"
	}
	return l
}

// batchOps is one pass, run in an order drawn from the seed: Q1 under all six configurations, Q1 RS_TJ again
// under a tuple budget that makes it spill, Q3 under RS_HJ and HC_TJ, and
// Q4 under HC_TJ. Q4's regular and broadcast plans run out of memory or
// take tens of seconds, so they are left out.
var batchOps = []batchOp{
	{"Q1", parajoin.RegularHash, planner.RSHJ, false},
	{"Q1", parajoin.RegularTributary, planner.RSTJ, false},
	{"Q1", parajoin.BroadcastHash, planner.BRHJ, false},
	{"Q1", parajoin.BroadcastTributary, planner.BRTJ, false},
	{"Q1", parajoin.HyperCubeHash, planner.HCHJ, false},
	{"Q1", parajoin.HyperCubeTributary, planner.HCTJ, false},
	{"Q1", parajoin.RegularTributary, planner.RSTJ, true},
	{"Q3", parajoin.RegularHash, planner.RSHJ, false},
	{"Q3", parajoin.HyperCubeTributary, planner.HCTJ, false},
	{"Q4", parajoin.HyperCubeTributary, planner.HCTJ, false},
}

func opLabels(ops []batchOp) []string {
	var out []string
	for _, o := range ops {
		out = append(out, o.label())
	}
	return out
}

// batchEnv is one set-up: the generated workload behind a root-API DB and,
// for the traced path, an engine cluster holding the same relations.
type batchEnv struct {
	sizes    batchSizes
	workload *queries.Workload
	db       *parajoin.DB
	cluster  *engine.Cluster
	ops      []batchOp // one pass, in the seeded order
	rules    map[string]string
	oracle   map[string]setDigest
	// opLatency collects each operation's latencies over the plain passes.
	opLatency map[string][]time.Duration
}

func (e *batchEnv) close() {
	if e.db != nil {
		e.db.Close()
	}
	if e.cluster != nil {
		e.cluster.Close()
	}
}

func runBatch(cfg config, rep *report) error {
	sizes := batchSizesFor(cfg)
	rep.params["sizes"] = sizes
	ops := shuffled(cfg.seed, batchOps)
	rep.params["ops"] = opLabels(ops)
	spillDir := filepath.Join(rep.runDir, "spill")

	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return err
	}
	env, err := repeatSetup(rep, func() (*batchEnv, error) {
		return setupBatch(sizes, spillDir, cfg.trace)
	}, (*batchEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	env.ops = ops
	env.oracle = batchOracle(env.workload)
	env.opLatency = map[string][]time.Duration{}

	if !cfg.trace {
		costs, err := timedPasses(cfg.seconds, 2, func(int) error { return env.plainPass(rep) })
		if err != nil {
			return err
		}
		rep.reportCosts(costs)
		rep.reportOpLatencies(env.opLatency)
		return nil
	}

	// Traced run: untraced and traced passes alternate, so the tracing
	// overhead is measured against passes interleaved with the traced ones.
	tr := newTracer()
	rep.spans = tr
	var plain, traced []time.Duration
	var layers []map[string]float64
	costs, err := timedPasses(cfg.seconds, 4, func(i int) error {
		start := time.Now()
		if i%2 == 0 {
			err := env.plainPass(rep)
			plain = append(plain, time.Since(start))
			return err
		}
		m, err := env.tracedPass(rep, tr)
		traced = append(traced, time.Since(start))
		layers = append(layers, m)
		return err
	})
	if err != nil {
		return err
	}
	rep.params["passes"] = len(costs)
	rep.reportLayers(layers)
	rep.set("trace.overhead_frac", "ratio", median(seconds(traced))/median(seconds(plain))-1)
	return nil
}

func setupBatch(sizes batchSizes, spillDir string, traced bool) (*batchEnv, error) {
	w := queries.New(sizes.Graph, sizes.KB)
	db := parajoin.Open(sizes.Workers,
		parajoin.WithSeed(1),
		parajoin.WithColumnarExchange(true),
		parajoin.WithSpillDir(spillDir))
	env := &batchEnv{sizes: sizes, workload: w, db: db}
	// Register the knowledge base's names in its own code order so the
	// DB dictionary encodes Q3's quoted constants exactly as the KB did.
	for c := 0; c < w.KB.Dict.Len(); c++ {
		name := w.KB.Dict.Name(int64(c))
		if got := db.Code(name); got != int64(c) {
			env.close()
			return nil, fmt.Errorf("dictionary code %d for %q, want %d", got, name, c)
		}
	}
	for name, r := range w.Relations {
		rows := make([][]int64, len(r.Tuples))
		for i, t := range r.Tuples {
			rows[i] = t
		}
		if err := db.Load(name, []string(r.Schema), rows); err != nil {
			env.close()
			return nil, err
		}
	}
	env.rules = map[string]string{}
	for _, name := range []string{"Q1", "Q3", "Q4"} {
		env.rules[name] = w.Query(name).String()
	}
	if traced {
		c := engine.NewCluster(sizes.Workers)
		c.Transport().(*engine.MemTransport).Columnar = true
		c.SpillDir = spillDir
		for _, r := range w.Relations {
			c.Load(r)
		}
		env.cluster = c
	}
	return env, nil
}

// plainPass runs every operation through the root API and checks each
// answer against the oracle.
func (e *batchEnv) plainPass(rep *report) error {
	var tuples int64
	for _, op := range e.ops {
		rep.attempted++
		start := time.Now()
		q, err := e.db.Query(e.rules[op.query])
		if err != nil {
			return err
		}
		res, err := q.RunWithOptions(context.Background(), e.runOptions(op))
		e.opLatency[op.label()] = append(e.opLatency[op.label()], time.Since(start))
		if err != nil {
			rep.fail("%s: %v", op.label(), err)
			continue
		}
		e.checkAnswer(rep, op, digestRows(res.Rows))
		tuples += res.Stats.TuplesShuffled
		if op.strategy != parajoin.RegularHash {
			// A regular-shuffle hash plan ships its first join's output,
			// whose order follows Go map iteration, so its encoded byte
			// count varies slightly from run to run; every other plan's is
			// exact.
			rep.setExact("bytes."+op.label(), res.Stats.BytesShuffled)
		}
		rep.setExact("tuples."+op.label(), res.Stats.TuplesShuffled)
		rep.setExact("rows."+op.label(), int64(len(res.Rows)))
		if op.spill && res.Stats.SpilledBytes == 0 {
			rep.fail("%s: the budgeted run did not spill", op.label())
		}
	}
	rep.setExact("engine.tuples_shuffled", tuples)
	return nil
}

func (e *batchEnv) runOptions(op batchOp) parajoin.RunOptions {
	o := parajoin.RunOptions{Strategy: op.strategy}
	if op.spill {
		o.MaxLocalTuples = e.sizes.SpillBudget
		o.Spill = parajoin.SpillOnPressure
	}
	return o
}

func (e *batchEnv) checkAnswer(rep *report, op batchOp, got setDigest) {
	if want := e.oracle[op.query]; got != want {
		rep.fail("%s: answer digest %v, oracle %v", op.label(), got, want)
	}
}

// tracedPass runs every operation by calling the modules' public entry
// points in the order the root API does — core.ParseRule, planner
// Planner.Plan, engine Cluster.RunRoundsOpts, rel Relation.Dedup — with a
// span around each call, and returns the pass's per-layer values.
func (e *batchEnv) tracedPass(rep *report, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	var peak int64
	var skew float64
	var stealMax int64
	var rsTJ, rsTJSpill time.Duration
	for _, op := range e.ops {
		rep.attempted++
		id := tr.newOp()
		root := tr.begin(id, 0, "op."+op.label())
		var perr error
		var q *core.Query
		var res *planner.Result
		var out *rel.Relation
		var report *engine.Report

		tr.timed(id, root, "core.parse", func() { q, perr = core.ParseRule(e.rules[op.query], e.db) })
		if perr != nil {
			return m, perr
		}
		var catalog *stats.Catalog
		m["planner.plan_s"] += tr.timed(id, root, "stats.catalog", func() {
			catalog = stats.NewCatalog()
			for _, r := range e.workload.Relations {
				catalog.Add(r)
			}
		}).Seconds()
		before := sampleUsage()
		m["planner.plan_s"] += tr.timed(id, root, "planner.plan", func() {
			p := &planner.Planner{
				Workers:   e.sizes.Workers,
				Catalog:   catalog,
				Relations: e.workload.Relations,
				MaxOrders: 5040,
				Seed:      1,
				Mode:      ljoin.SeekBinary,
			}
			res, perr = p.Plan(q, op.config)
		}).Seconds()
		m["planner.plan_allocs_m"] += sampleUsage().since(before).allocsM
		if perr != nil {
			return m, perr
		}

		ro := e.runOptions(op)
		before = sampleUsage()
		exec := tr.timed(id, root, "engine.run", func() {
			out, report, perr = e.cluster.RunRoundsOpts(context.Background(), res.Rounds,
				engine.RunOpts{MaxLocalTuples: ro.MaxLocalTuples, Spill: ro.Spill})
		})
		ec := sampleUsage().since(before)
		if perr != nil {
			tr.end(root)
			rep.fail("%s: %v", op.label(), perr)
			continue
		}
		if !q.IsFull() {
			m["rel.dedup_s"] += tr.timed(id, root, "rel.dedup", func() { out.Dedup() }).Seconds()
		}
		tr.end(root)
		m["trace.unattributed_s"] += selfTimes(tr.opSpans(id))[root].Seconds()

		var d setDigest
		for _, t := range out.Tuples {
			d.add(t)
		}
		e.checkAnswer(rep, op, d)
		rep.setExact("rows."+op.label(), int64(d.rows))
		rep.setExact("tuples."+op.label(), report.TotalTuplesShuffled())
		if op.strategy != parajoin.RegularHash {
			rep.setExact("bytes."+op.label(), report.BytesSent)
		}

		m["engine.exec_s"] += exec.Seconds()
		m["engine.exec_alloc_mb"] += ec.allocMB
		m["engine.exec_allocs_m"] += ec.allocsM
		busy := sumDur(report.BusyTime)
		m["engine.busy_s"] += busy.Seconds()
		m["engine.wait_s"] += (time.Duration(report.Workers)*exec - busy).Seconds()
		m["engine.tuples_shuffled"] += float64(report.TotalTuplesShuffled())
		m["engine.bytes_sent"] += float64(report.BytesSent)
		m["engine.batches_sent"] += float64(report.BatchesSent)
		m["engine.processed_tuples"] += float64(sum64(report.Processed))
		m["ljoin.sort_s"] += sumDur(report.SortTime).Seconds()
		m["ljoin.join_s"] += sumDur(report.JoinTime).Seconds()
		m["ljoin.join_tasks"] += float64(report.JoinTasks)
		m["ljoin.seeks"] += float64(sum64(report.Seeks))
		m["ljoin.sorted_tuples"] += float64(sum64(report.Sorted))
		m["spill.bytes"] += float64(report.SpilledBytes)
		m["spill.segments"] += float64(report.SpillSegments)
		m["spill.seals"] += float64(report.Spills)
		peak = max(peak, max64s(report.PeakResidentTuples))
		skew = max(skew, report.MaxConsumerSkew())
		stealMax = max(stealMax, report.JoinStealMax)
		if op.strategy == parajoin.RegularTributary {
			if op.spill {
				rsTJSpill = exec
				if report.SpilledBytes == 0 {
					rep.fail("%s: the budgeted run did not spill", op.label())
				}
			} else {
				rsTJ = exec
			}
		}
	}
	m["engine.peak_resident_tuples"] = float64(peak)
	m["engine.max_consumer_skew"] = skew
	m["ljoin.steal_max"] = float64(stealMax)
	m["spill.extra_s"] = (rsTJSpill - rsTJ).Seconds()
	if m["engine.tuples_shuffled"] > 0 {
		m["colbatch.bytes_per_tuple"] = m["engine.bytes_sent"] / m["engine.tuples_shuffled"]
	}
	for _, k := range []string{"engine.tuples_shuffled", "ljoin.seeks", "ljoin.sorted_tuples"} {
		rep.setExact(k, int64(m[k]))
	}
	return m, nil
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func sum64(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func max64s(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
