package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"parajoin"
	"parajoin/internal/cluster"
	"parajoin/internal/dataset"
	"parajoin/internal/partstore"
)

const distWhy = "Q1's six configs pushed to 3 in-process data nodes over TCP: cluster dispatch, plan codec, framing and the fragment merge, with a local arm"

const distQ1 = "Q1(x,y,z) :- Twitter(x,y), Twitter(y,z), Twitter(z,x)"

// distConfigs are the six shuffle × join configurations; a pass runs them
// in an order drawn from the seed.
var distConfigs = []parajoin.Strategy{
	parajoin.RegularHash, parajoin.RegularTributary,
	parajoin.BroadcastHash, parajoin.BroadcastTributary,
	parajoin.HyperCubeHash, parajoin.HyperCubeTributary,
}

var distMembers = []string{"n0", "n1", "n2"}

// distSizes are the dist-3node size parameters.
type distSizes struct {
	Members int
	Slots   int
	Graph   dataset.GraphConfig
}

func distSizesFor(cfg config) distSizes {
	s := distSizes{
		Members: len(distMembers),
		Slots:   16,
		Graph:   dataset.GraphConfig{Edges: 15000, Nodes: 1000, Skew: 1.3, Seed: datasetSeed(cfg.graphSeed, dataset.DefaultTwitter().Seed)},
	}
	if cfg.tiny {
		s.Slots = 4
		s.Graph.Edges, s.Graph.Nodes = 600, 100
	}
	return s
}

// distEnv is one set-up: a persisted catalog, a coordinator with three
// joined members, and two DBs over the same member set — one executing
// coordinator-local, one pushing fragments to the members.
type distEnv struct {
	dir        string
	coord      *cluster.Coordinator
	coordDone  chan error
	members    []*cluster.Member
	memberDone []chan error
	stopMember context.CancelFunc
	local      *parajoin.DB
	dist       *parajoin.DB
	dispatcher *cluster.Dispatcher
	configs    []parajoin.Strategy // one pass, in the seeded order
	persist    time.Duration
	open       time.Duration
	edges      [][]int64
}

func (e *distEnv) close() {
	if e.dist != nil {
		e.dist.Close()
	}
	if e.dispatcher != nil {
		e.dispatcher.Close()
	}
	if e.local != nil {
		e.local.Close()
	}
	if e.stopMember != nil {
		e.stopMember()
	}
	for i, m := range e.members {
		m.Close()
		<-e.memberDone[i]
	}
	if e.coord != nil {
		e.coord.Close()
		<-e.coordDone
	}
	os.RemoveAll(e.dir)
}

func setupDist(s distSizes, dir string) (e *distEnv, err error) {
	e = &distEnv{dir: dir}
	defer func() {
		if err != nil {
			e.close()
			e = nil
		}
	}()
	graph := dataset.Twitter(s.Graph)
	for _, t := range graph.Tuples {
		e.edges = append(e.edges, t)
	}

	start := time.Now()
	store, err := partstore.Open(filepath.Join(dir, "catalog"))
	if err != nil {
		return e, err
	}
	db := parajoin.Open(s.Members, parajoin.WithSeed(1))
	if err := db.Load("Twitter", []string(graph.Schema), e.edges); err != nil {
		db.Close()
		return e, err
	}
	err = db.PersistTo(store, s.Slots)
	db.Close()
	if err != nil {
		return e, err
	}
	e.persist = time.Since(start)

	commits := make(chan []string, 16)
	e.coord = cluster.NewCoordinator(store, cluster.CoordinatorConfig{
		HeartbeatEvery: 100 * time.Millisecond,
		Logf:           func(string, ...any) {},
		OnChange: func(members []string) {
			select {
			case commits <- append([]string(nil), members...):
			default:
			}
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return e, err
	}
	e.coordDone = make(chan error, 1)
	go func() { e.coordDone <- e.coord.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	e.stopMember = cancel
	for _, name := range distMembers[:s.Members] {
		mstore, err := partstore.Open(filepath.Join(dir, name))
		if err != nil {
			return e, err
		}
		m, err := cluster.NewMember(mstore, cluster.MemberConfig{
			Name:            name,
			CoordinatorAddr: ln.Addr().String(),
			JoinBackoff:     20 * time.Millisecond,
			Logf:            func(string, ...any) {},
		})
		if err != nil {
			return e, err
		}
		done := make(chan error, 1)
		go func() { done <- m.Run(ctx) }()
		e.members = append(e.members, m)
		e.memberDone = append(e.memberDone, done)
	}
	want := distMembers[:s.Members]
	deadline := time.After(30 * time.Second)
	for joined := false; !joined; {
		select {
		case got := <-commits:
			joined = reflect.DeepEqual(got, want)
		case <-deadline:
			return e, fmt.Errorf("timed out waiting for members %v to join", want)
		}
	}

	start = time.Now()
	// Both arms meter exchange traffic as encoded colbatch bytes, so their
	// byte counts are comparable.
	opts := []parajoin.Option{parajoin.WithSeed(1), parajoin.WithColumnarExchange(true)}
	if e.local, err = parajoin.OpenFromStore(store, want, opts...); err != nil {
		return e, err
	}
	if e.dist, err = parajoin.OpenFromStore(store, want, opts...); err != nil {
		return e, err
	}
	e.open = time.Since(start)
	addrs := map[string]string{}
	for _, ep := range e.coord.Endpoints() {
		addrs[ep.Name] = ep.Addr
	}
	var eps []cluster.Endpoint
	for _, name := range want {
		eps = append(eps, cluster.Endpoint{Name: name, Addr: addrs[name]})
	}
	e.dispatcher = cluster.NewDispatcher(store, eps, cluster.DispatcherConfig{Logf: func(string, ...any) {}})
	e.dist.SetRemoteRunner(e.dispatcher)

	// Warm-up: one distributed pass caches every member's fragment runtime.
	for _, cfg := range distConfigs {
		if _, err := distRunOnce(e.dist, cfg); err != nil {
			return e, fmt.Errorf("warm-up %s: %w", cfg, err)
		}
	}
	return e, nil
}

// distRunOnce runs Q1 under one configuration, retrying the transient
// generation-mismatch errors a member answers while a commit is landing.
func distRunOnce(db *parajoin.DB, cfg parajoin.Strategy) (*parajoin.Result, error) {
	q, err := db.Query(distQ1)
	if err != nil {
		return nil, err
	}
	for attempt := 0; ; attempt++ {
		res, err := q.RunWithOptions(context.Background(), parajoin.RunOptions{Strategy: cfg})
		if err == nil || attempt == 5 || !parajoin.Retryable(err) {
			return res, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func hashJoin(c parajoin.Strategy) bool {
	return c == parajoin.RegularHash || c == parajoin.BroadcastHash || c == parajoin.HyperCubeHash
}

// distAnswer is one configuration's reference answer from the local arm.
type distAnswer struct {
	ordered  string
	set      setDigest
	shuffled int64
}

func runDist(cfg config, rep *report) error {
	sizes := distSizesFor(cfg)
	rep.params["sizes"] = sizes
	n := 0
	var persist, open []float64
	env, err := repeatSetup(rep, func() (*distEnv, error) {
		n++
		e, err := setupDist(sizes, filepath.Join(rep.runDir, fmt.Sprintf("setup%d", n)))
		if err == nil {
			persist = append(persist, e.persist.Seconds())
			open = append(open, e.open.Seconds())
		}
		return e, err
	}, (*distEnv).close)
	if err != nil {
		return err
	}
	defer env.close()
	env.configs = shuffled(cfg.seed, distConfigs)
	rep.params["configs"] = env.configs

	oracle := triangleOracle(env.edges)
	ref := map[parajoin.Strategy]distAnswer{}
	for _, c := range distConfigs {
		res, err := distRunOnce(env.local, c)
		if err != nil {
			return fmt.Errorf("local %s: %w", c, err)
		}
		a := distAnswer{ordered: orderedDigest(res.Rows), set: digestRows(res.Rows), shuffled: res.Stats.TuplesShuffled}
		if a.set != oracle {
			rep.fail("local %s: answer %v, oracle %v", c, a.set, oracle)
		}
		ref[c] = a
	}

	if !cfg.trace {
		lat := map[string][]time.Duration{}
		costs, err := timedPasses(cfg.seconds, 2, func(int) error {
			env.distPass(rep, ref, nil, lat)
			return nil
		})
		if err != nil {
			return err
		}
		rep.reportCosts(costs)
		rep.reportOpLatencies(lat)
		return nil
	}

	// Traced run: an untraced distributed pass, a traced one, and the
	// coordinator-local arm on the same members, in rotation.
	tr := newTracer()
	rep.spans = tr
	var plain, traced, local []time.Duration
	var layers []map[string]float64
	_, err = timedPasses(cfg.seconds, 6, func(i int) error {
		start := time.Now()
		switch i % 3 {
		case 0:
			env.distPass(rep, ref, nil, nil)
			plain = append(plain, time.Since(start))
		case 1:
			m := env.distPass(rep, ref, tr, nil)
			traced = append(traced, time.Since(start))
			layers = append(layers, m)
		case 2:
			for _, c := range env.configs {
				rep.attempted++
				if _, err := distRunOnce(env.local, c); err != nil {
					rep.fail("local %s: %v", c, err)
				}
			}
			local = append(local, time.Since(start))
		}
		return nil
	})
	if err != nil {
		return err
	}
	rep.reportLayers(layers)
	rep.set("cluster.local_arm_s", "s", median(seconds(local)))
	rep.set("cluster.dist_overhead_s", "s", median(seconds(plain))-median(seconds(local)))
	rep.set("partstore.persist_s", "s", median(persist))
	rep.set("partstore.open_s", "s", median(open))
	rep.set("trace.overhead_frac", "ratio", median(seconds(traced))/median(seconds(plain))-1)
	return nil
}

// distPass runs the six configurations on the distributed arm and checks
// each answer is byte-identical to the local arm's, adding each query's
// latency to lat when it is not nil. With a tracer it returns the pass's
// per-layer values.
func (e *distEnv) distPass(rep *report, ref map[parajoin.Strategy]distAnswer, tr *tracer, lat map[string][]time.Duration) map[string]float64 {
	m := map[string]float64{}
	var remote int64
	passStart := sampleRegistry()
	for _, c := range e.configs {
		rep.attempted++
		op := tr.newOp()
		before := sampleRegistry()
		start := time.Now()
		root := tr.begin(op, 0, "query.run/"+string(c))
		res, err := distRunOnce(e.dist, c)
		tr.end(root)
		if lat != nil {
			lat[string(c)] = append(lat[string(c)], time.Since(start))
		}
		if err != nil {
			rep.fail("dist %s: %v", c, err)
			continue
		}
		want := ref[c]
		if hashJoin(c) {
			// A hash join emits rows in Go map iteration order, which
			// differs from run to run in any one process; only the row set
			// is comparable.
			if got := digestRows(res.Rows); got != want.set {
				rep.fail("dist %s: row set %v differs from the local arm's %v", c, got, want.set)
			}
		} else if got := orderedDigest(res.Rows); got != want.ordered {
			rep.fail("dist %s: rows %s are not byte-identical to the local arm's %s", c, got, want.ordered)
		}
		if res.Stats.TuplesShuffled != want.shuffled {
			rep.fail("dist %s: shuffled %d tuples, the local arm %d", c, res.Stats.TuplesShuffled, want.shuffled)
		}
		if res.Stats.RemoteFragments != len(distMembers) {
			rep.fail("dist %s: ran %d remote fragments, want %d", c, res.Stats.RemoteFragments, len(distMembers))
		}
		remote += int64(res.Stats.RemoteFragments)
		rep.setExact("rows."+string(c), int64(len(res.Rows)))
		rep.setExact("tuples."+string(c), res.Stats.TuplesShuffled)
		if tr == nil {
			continue
		}
		reg := sampleRegistry().since(before)
		sp := tr.spanAt(root)
		tr.derived(op, root, "planner.plan", sp.StartNS, time.Duration(reg["plan_s"]*float64(time.Second)))
		m["planner.plan_s"] += reg["plan_s"]
		m["engine.exec_s"] += (sp.dur() - time.Duration(reg["plan_s"]*float64(time.Second))).Seconds()
		m["engine.tuples_shuffled"] += float64(res.Stats.TuplesShuffled)
		m["engine.bytes_sent"] += float64(res.Stats.BytesShuffled)
		m["engine.peak_resident_tuples"] = max(m["engine.peak_resident_tuples"], float64(res.Stats.PeakResidentTuples))
		m["engine.max_consumer_skew"] = max(m["engine.max_consumer_skew"], res.Stats.MaxConsumerSkew)
		m["trace.unattributed_s"] += selfTimes(tr.opSpans(op))[root].Seconds()
	}
	reg := sampleRegistry().since(passStart)
	rep.setExact("cluster.remote_fragments", remote)
	rep.setExact("cluster.fragment_result_rows", int64(reg["frag_rows"]))
	if tr != nil {
		m["cluster.remote_fragments"] = float64(remote)
		m["cluster.fragment_result_rows"] = reg["frag_rows"]
		m["cluster.dispatch_errors"] = reg["dispatch_errors"]
		m["engine.batches_sent"] = reg["batches_sent"]
		if m["engine.tuples_shuffled"] > 0 {
			m["colbatch.bytes_per_tuple"] = m["engine.bytes_sent"] / m["engine.tuples_shuffled"]
		}
	}
	return m
}
