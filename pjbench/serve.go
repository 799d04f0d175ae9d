package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"parajoin"
	"parajoin/client"
	"parajoin/internal/server"
)

const serveWhy = "2 closed-loop clients run 4 prepared shapes with Zipf(1.2) args through wire, server and both caches; a load every 100 requests invalidates them"

// serveShapes are the prepared statements, run round-robin: the 5-cycle
// and 5-path of the plan-cache replay, a triangle anchored at a parameter,
// and a 2-hop lookup.
var serveShapes = []string{
	"R1(v,w,x,y,z) :- E(v,w), E(w,x), E(x,y), E(y,z), E(z,v), E(v,?)",
	"R3(v,z) :- E(v,w), E(w,x), E(x,y), E(y,z), E(?,v)",
	"T(x,y,z) :- E(x,y), E(y,z), E(z,x), E(?,x)",
	"H(y,z) :- E(?,y), E(y,z)",
}

// serveSizes are the serve-zipf size parameters.
type serveSizes struct {
	Workers           int
	Edges, Nodes      int
	GraphSeed         int64
	Zipf              float64
	ZipfSeed          int64
	Clients           int
	RequestsPerPass   int
	LoadEvery         int
	ResultCacheTuples int64
}

func serveSizesFor(cfg config) serveSizes {
	zipfSeed := cfg.seed
	if cfg.zipfSeed != 0 {
		zipfSeed = cfg.zipfSeed
	}
	s := serveSizes{
		Workers: 8, Edges: 4000, Nodes: 600, GraphSeed: datasetSeed(cfg.graphSeed, 5),
		Zipf: 1.2, ZipfSeed: zipfSeed,
		Clients:         min(2, runtime.NumCPU()),
		RequestsPerPass: 300, LoadEvery: 100,
		ResultCacheTuples: 4 << 20,
	}
	if cfg.tiny {
		s.Workers, s.Edges, s.Nodes = 2, 300, 60
		s.RequestsPerPass, s.LoadEvery = 40, 20
	}
	return s
}

// serveCall is one request of a pass: a load, or a statement execution.
type serveCall struct {
	load  bool
	shape int
	arg   int64
}

// serveCalls draws one pass's request sequence from the Zipf seed. Every
// pass replays it, so passes do equal work. Statements run round-robin and
// every LoadEvery-th request is a load, which ends a cache epoch; within
// each epoch, each statement's arguments are a stratified Zipf sample in
// seeded order, so an epoch repeats its heavy arguments — the result
// cache's hits — an almost fixed number of times whatever the seed.
func serveCalls(s serveSizes) []serveCall {
	r := rand.New(rand.NewSource(s.ZipfSeed))
	calls := make([]serveCall, 0, s.RequestsPerPass)
	q := 0
	for len(calls) < s.RequestsPerPass {
		n := min(s.LoadEvery-1, s.RequestsPerPass-len(calls))
		counts := make([]int, len(serveShapes))
		for j := 0; j < n; j++ {
			counts[(q+j)%len(serveShapes)]++
		}
		args := make([][]int64, len(serveShapes))
		for sh, c := range counts {
			args[sh] = zipfStratified(r, s.Zipf, s.Nodes-1, c)
		}
		for j := 0; j < n; j++ {
			sh := (q + j) % len(serveShapes)
			calls = append(calls, serveCall{shape: sh, arg: args[sh][0]})
			args[sh] = args[sh][1:]
		}
		q += n
		if len(calls) < s.RequestsPerPass {
			calls = append(calls, serveCall{load: true})
		}
	}
	return calls
}

// zipfStratified draws n values from the Zipf distribution P(k) ∝ (1+k)^-s
// on [0, imax] — rand.Zipf's with v = 1 — by stratified inverse-CDF
// sampling: draw j falls in the j-th n-quantile, so every sample holds each
// heavy value an almost fixed number of times and the seed moves only which
// light values appear and in what order. Independent draws would let the
// count of the heaviest arguments, and with it a pass's work, swing by a
// third between seeds.
func zipfStratified(r *rand.Rand, s float64, imax, n int) []int64 {
	cdf := make([]float64, imax+1)
	var total float64
	for k := range cdf {
		total += math.Pow(1+float64(k), -s)
		cdf[k] = total
	}
	out := make([]int64, n)
	for j := range out {
		u := (float64(j) + r.Float64()) / float64(n) * total
		out[j] = int64(min(sort.SearchFloat64s(cdf, u), imax))
	}
	r.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// serveEnv is one set-up: a DB with both caches behind an in-process
// server, and one connection per client with every statement prepared.
type serveEnv struct {
	db      *parajoin.DB
	srv     *server.Server
	served  chan error
	clients []*client.Client
	stmts   [][]*client.Stmt // [client][shape]
}

func (e *serveEnv) close() {
	for _, c := range e.clients {
		c.Close()
	}
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		e.srv.Shutdown(ctx)
		cancel()
		<-e.served
	}
	if e.db != nil {
		e.db.Close()
	}
}

func setupServe(s serveSizes) (*serveEnv, error) {
	graph := parajoin.SyntheticGraph(s.Edges, s.Nodes, s.GraphSeed)
	e := &serveEnv{db: parajoin.Open(s.Workers,
		parajoin.WithSeed(7),
		parajoin.WithColumnarExchange(true),
		parajoin.WithPlanCache(0),
		parajoin.WithResultCache(s.ResultCacheTuples))}
	if err := e.db.LoadEdges("E", graph); err != nil {
		e.close()
		return nil, err
	}
	if err := e.db.Load("Side", []string{"k", "v"}, [][]int64{{0, 0}}); err != nil {
		e.close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	e.srv = server.New(e.db, server.Config{Logf: func(string, ...any) {}})
	e.served = make(chan error, 1)
	go func() { e.served <- e.srv.Serve(ln) }()
	ctx := context.Background()
	for i := 0; i < s.Clients; i++ {
		c, err := client.Dial(ln.Addr().String(), client.Options{})
		if err != nil {
			e.close()
			return nil, err
		}
		e.clients = append(e.clients, c)
		var stmts []*client.Stmt
		for _, rule := range serveShapes {
			st, err := c.Prepare(ctx, rule)
			if err != nil {
				e.close()
				return nil, fmt.Errorf("prepare %q: %w", rule, err)
			}
			stmts = append(stmts, st)
		}
		e.stmts = append(e.stmts, stmts)
	}
	return e, nil
}

// serveReference answers every distinct call of the sequence through the
// root API, on a DB holding the same graph with no result cache and no
// server in front of it.
func serveReference(s serveSizes, calls []serveCall) (map[serveCall]setDigest, error) {
	db := parajoin.Open(s.Workers, parajoin.WithSeed(7), parajoin.WithPlanCache(0))
	defer db.Close()
	if err := db.LoadEdges("E", parajoin.SyntheticGraph(s.Edges, s.Nodes, s.GraphSeed)); err != nil {
		return nil, err
	}
	stmts := make([]*parajoin.Prepared, len(serveShapes))
	for i, rule := range serveShapes {
		p, err := db.Prepare(rule)
		if err != nil {
			return nil, err
		}
		stmts[i] = p
	}
	ref := map[serveCall]setDigest{}
	for _, c := range calls {
		if _, ok := ref[c]; ok || c.load {
			continue
		}
		res, err := stmts[c.shape].Execute(context.Background(), c.arg)
		if err != nil {
			return nil, fmt.Errorf("reference %q(%d): %w", serveShapes[c.shape], c.arg, err)
		}
		ref[c] = digestRows(res.Rows)
	}
	return ref, nil
}

// serveTally is what one client observed over one pass.
type serveTally struct {
	attempted, rows           int64
	planHits, resultHits      int64
	queries, loads, retries   int64
	lat, exec, queue, wireOvh []time.Duration
	failures                  []string
}

func runServe(cfg config, rep *report) error {
	sizes := serveSizesFor(cfg)
	calls := serveCalls(sizes)
	rep.params["sizes"] = sizes
	rep.params["shapes"] = serveShapes
	rep.params["loop"] = fmt.Sprintf("closed, %d clients", sizes.Clients)

	env, err := repeatSetup(rep, func() (*serveEnv, error) { return setupServe(sizes) }, (*serveEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	ref, err := serveReference(sizes, calls)
	if err != nil {
		return err
	}
	rep.params["distinct_calls"] = len(ref)

	var tr *tracer
	if cfg.trace {
		tr = newTracer()
		rep.spans = tr
	}
	var all serveTally
	var plainWall, tracedWall []time.Duration
	var layers []map[string]float64
	var hits []int64
	costs, err := timedPasses(cfg.seconds, 2, func(i int) error {
		// In the traced run, untraced and traced passes alternate.
		ptr := tr
		if i%2 == 0 {
			ptr = nil
		}
		start := time.Now()
		before := sampleRegistry()
		t := env.pass(calls, ref, ptr)
		wall := time.Since(start)
		all.merge(t)
		hits = append(hits, t.resultHits)
		rep.attempted += t.attempted
		for _, f := range t.failures {
			rep.fail("%s", f)
		}
		rep.setExact("wire.result_rows", t.rows)
		if ptr == nil {
			plainWall = append(plainWall, wall)
			return nil
		}
		tracedWall = append(tracedWall, wall)
		layers = append(layers, serveLayers(t, sampleRegistry().since(before)))
		return nil
	})
	if err != nil {
		return err
	}
	rep.params["pass_result_hits"] = hits
	if !cfg.trace {
		rep.reportCosts(costs)
		rep.reportLatencies(all.lat)
		return nil
	}
	rep.params["passes"] = len(costs)
	rep.reportLayers(layers)
	rep.set("trace.overhead_frac", "ratio", median(seconds(tracedWall))/median(seconds(plainWall))-1)
	return nil
}

// serveLayers turns one traced pass into per-layer values.
func serveLayers(t serveTally, reg regSample) map[string]float64 {
	m := map[string]float64{
		"cache.invalidating_loads": float64(t.loads),
		"server.exec_p50_ms":       median(millis(t.exec)),
		"server.queue_wait_p50_ms": median(millis(t.queue)),
		"server.retries":           float64(t.retries),
		"wire.overhead_p50_ms":     median(millis(t.wireOvh)),
		"wire.result_rows":         float64(t.rows),
		"planner.plan_s":           reg["plan_s"],
		"engine.exec_s":            reg["round_s"],
		"engine.tuples_shuffled":   reg["tuples_sent"],
		"engine.bytes_sent":        reg["bytes_sent"],
		"engine.batches_sent":      reg["batches_sent"],
	}
	if t.queries > 0 {
		m["cache.result_hit_rate"] = float64(t.resultHits) / float64(t.queries)
	}
	if probes := t.queries - t.resultHits; probes > 0 {
		m["cache.plan_hit_rate"] = float64(t.planHits) / float64(probes)
	}
	if reg["tuples_sent"] > 0 {
		m["colbatch.bytes_per_tuple"] = reg["bytes_sent"] / reg["tuples_sent"]
	}
	var self time.Duration
	for _, d := range t.wireOvh {
		self += d
	}
	m["trace.unattributed_s"] = self.Seconds()
	return m
}

func (t *serveTally) merge(o serveTally) {
	t.attempted += o.attempted
	t.rows += o.rows
	t.planHits += o.planHits
	t.resultHits += o.resultHits
	t.queries += o.queries
	t.loads += o.loads
	t.retries += o.retries
	t.lat = append(t.lat, o.lat...)
	t.exec = append(t.exec, o.exec...)
	t.queue = append(t.queue, o.queue...)
	t.wireOvh = append(t.wireOvh, o.wireOvh...)
	t.failures = append(t.failures, o.failures...)
}

// pass runs the request sequence once: each client takes the next request
// as soon as its previous one has been answered.
func (e *serveEnv) pass(calls []serveCall, ref map[serveCall]setDigest, tr *tracer) serveTally {
	var next atomic.Int64
	tallies := make([]serveTally, len(e.clients))
	var wg sync.WaitGroup
	for ci := range e.clients {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			t := &tallies[ci]
			for {
				i := int(next.Add(1) - 1)
				if i >= len(calls) {
					return
				}
				e.request(ci, i, calls[i], ref, tr, t)
			}
		}(ci)
	}
	wg.Wait()
	var out serveTally
	for _, t := range tallies {
		out.merge(t)
	}
	return out
}

// request sends one request on client ci and checks its answer.
func (e *serveEnv) request(ci, i int, c serveCall, ref map[serveCall]setDigest, tr *tracer, t *serveTally) {
	ctx := context.Background()
	t.attempted++
	op := tr.newOp()
	if c.load {
		start := time.Now()
		root := tr.begin(op, 0, "client.load")
		err := e.clients[ci].Load(ctx, "Side", []string{"k", "v"}, [][]int64{{int64(i), int64(ci)}})
		tr.end(root)
		t.lat = append(t.lat, time.Since(start))
		t.loads++
		if err != nil {
			t.failures = append(t.failures, fmt.Sprintf("load %d: %v", i, err))
		}
		return
	}
	start := time.Now()
	root := tr.begin(op, 0, "client.execute")
	res, err := e.stmts[ci][c.shape].Execute(ctx, c.arg)
	tr.end(root)
	t.lat = append(t.lat, time.Since(start))
	t.queries++
	if err != nil {
		t.failures = append(t.failures, fmt.Sprintf("%s(%d): %v", serveShapes[c.shape], c.arg, err))
		return
	}
	if got := digestRows(res.Rows); got != ref[c] {
		t.failures = append(t.failures, fmt.Sprintf("%s(%d): answer %v, root API %v", serveShapes[c.shape], c.arg, got, ref[c]))
	}
	t.rows += int64(len(res.Rows))
	if res.Stats.ResultCached {
		t.resultHits++
	} else if res.Stats.PlanCached {
		t.planHits++
	}
	t.retries += max(0, res.Stats.Attempts-1)
	if tr == nil {
		return
	}
	// Split the client's call with the durations the server returned: the
	// admission-queue wait, then the execution. What is left of the
	// client span is wire and client overhead.
	sp := tr.spanAt(root)
	tr.derived(op, root, "server.queue_wait", sp.StartNS, res.Stats.QueueWait)
	tr.derived(op, root, "server.exec", sp.StartNS+res.Stats.QueueWait.Nanoseconds(), res.Stats.Wall)
	t.exec = append(t.exec, res.Stats.Wall)
	t.queue = append(t.queue, res.Stats.QueueWait)
	t.wireOvh = append(t.wireOvh, selfTimes(tr.opSpans(op))[root])
}
