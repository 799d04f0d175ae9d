// The distributed scaling study (EXPERIMENTS.md, "Distributed scaling"):
// the Figure-3 six-configuration suite for Q1, executed twice per cluster
// size — once coordinator-local, once pushed to real data-node members over
// TCP — at 1, 2, and 3 data nodes. Unlike every other experiment it does
// not run on the suite's in-process clusters: it stands up a partition
// catalog, a cluster coordinator, and member processes-in-miniature, then
// opens one facade DB per (size, arm) the way parajoind's rebuild does,
// with a fragment dispatcher installed on the distributed arm.
package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"reflect"
	"sort"
	"time"

	"parajoin"
	"parajoin/internal/cluster"
	"parajoin/internal/experiments"
	"parajoin/internal/partstore"
)

// distConfigs is the Figure-3 configuration set.
var distConfigs = []parajoin.Strategy{
	parajoin.RegularHash, parajoin.RegularTributary,
	parajoin.BroadcastHash, parajoin.BroadcastTributary,
	parajoin.HyperCubeHash, parajoin.HyperCubeTributary,
}

const distQ1 = "Q1(x,y,z) :- Twitter(x,y), Twitter(y,z), Twitter(z,x)"

// distRun is one measured execution.
type distRun struct {
	nodes    int
	config   parajoin.Strategy
	arm      string // "local" or "dist"
	wall     time.Duration
	shuffled int64
	bytes    int64
	results  int
}

func runDistScale(s *experiments.Suite) error {
	quiet := func(string, ...any) {}
	w := s.Workload()
	twitter := w.Relations["Twitter"]

	// Persist the workload graph to a durable partition catalog — the
	// ground truth both arms open their engines from.
	dir, err := os.MkdirTemp("", "parajoin-distscale-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	store, err := partstore.Open(dir)
	if err != nil {
		return err
	}
	seed := parajoin.WithSeed(s.Seed)
	db := parajoin.Open(4, seed)
	rows := make([][]int64, len(twitter.Tuples))
	for i, t := range twitter.Tuples {
		rows[i] = t
	}
	if err := db.Load("Twitter", []string(twitter.Schema), rows); err != nil {
		db.Close()
		return err
	}
	if err := db.PersistTo(store, 16); err != nil {
		db.Close()
		return err
	}
	db.Close()

	// Coordinator plus up to three data nodes, each with its own data dir.
	commits := make(chan []string, 64)
	coord := cluster.NewCoordinator(store, cluster.CoordinatorConfig{
		HeartbeatEvery: 50 * time.Millisecond,
		Logf:           quiet,
		OnChange: func(members []string) {
			commits <- append([]string(nil), members...)
		},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go coord.Serve(ln)
	defer coord.Close()
	coordAddr := ln.Addr().String()

	memberCtx, stopMembers := context.WithCancel(context.Background())
	defer stopMembers()
	var memberCloses []func() error
	defer func() {
		for _, c := range memberCloses {
			c()
		}
	}()

	members := []string{"n0", "n1", "n2"}
	var (
		runs    []distRun
		answers [][][]int64 // one hc_tj result per (size, arm)
	)
	for n := 1; n <= len(members); n++ {
		mdir, err := os.MkdirTemp("", "parajoin-distscale-node-*")
		if err != nil {
			return err
		}
		defer os.RemoveAll(mdir)
		mstore, err := partstore.Open(mdir)
		if err != nil {
			return err
		}
		m, err := cluster.NewMember(mstore, cluster.MemberConfig{
			Name:            members[n-1],
			CoordinatorAddr: coordAddr,
			JoinBackoff:     50 * time.Millisecond,
			Logf:            quiet,
		})
		if err != nil {
			return err
		}
		go m.Run(memberCtx)
		memberCloses = append(memberCloses, m.Close)
		if err := waitCommit(commits, members[:n]); err != nil {
			return err
		}

		for _, arm := range []string{"local", "dist"} {
			armRuns, err := distArm(s, store, coord, members[:n], arm, &answers)
			if err != nil {
				return fmt.Errorf("distscale: %d node(s), %s arm: %w", n, arm, err)
			}
			runs = append(runs, armRuns...)
		}
	}

	if err := distVerify(runs, answers); err != nil {
		return err
	}
	for _, r := range runs {
		s.RecordOutcome(&experiments.RecordedOutcome{
			Query:    "Q1",
			Config:   fmt.Sprintf("%s/%s", string(r.config), r.arm),
			Workers:  r.nodes,
			Wall:     r.wall,
			Shuffled: r.shuffled,
			Bytes:    r.bytes,
			Results:  r.results,
		})
	}
	renderDistScale(os.Stdout, runs)
	return nil
}

// distArm opens one engine generation for the member set — with a fragment
// dispatcher on the "dist" arm, none on "local" — and runs Q1 under every
// Figure-3 configuration.
func distArm(s *experiments.Suite, store *partstore.Store, coord *cluster.Coordinator,
	members []string, arm string, answers *[][][]int64) ([]distRun, error) {
	// Both arms meter colbatch bytes: the local arm's in-memory transport
	// would otherwise count a flat 8 bytes per value against the members'
	// encoded TCP frames.
	db, err := parajoin.OpenFromStore(store, members, parajoin.WithSeed(s.Seed),
		parajoin.WithColumnarExchange(true))
	if err != nil {
		return nil, err
	}
	defer db.Close()
	if arm == "dist" {
		byName := make(map[string]string)
		for _, ep := range coord.Endpoints() {
			byName[ep.Name] = ep.Addr
		}
		eps := make([]cluster.Endpoint, 0, len(members))
		for _, m := range members {
			addr, ok := byName[m]
			if !ok {
				return nil, fmt.Errorf("member %q has no live endpoint", m)
			}
			eps = append(eps, cluster.Endpoint{Name: m, Addr: addr})
		}
		db.SetRemoteRunner(cluster.NewDispatcher(store, eps,
			cluster.DispatcherConfig{Logf: func(string, ...any) {}}))
	}

	q, err := db.Query(distQ1)
	if err != nil {
		return nil, err
	}
	var runs []distRun
	for _, cfg := range distConfigs {
		res, err := distRunOnce(q, cfg, s.Timeout)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cfg, err)
		}
		if arm == "dist" && res.Stats.RemoteFragments != len(members) {
			return nil, fmt.Errorf("%s: ran %d remote fragments, want %d",
				cfg, res.Stats.RemoteFragments, len(members))
		}
		runs = append(runs, distRun{
			nodes:    len(members),
			config:   cfg,
			arm:      arm,
			wall:     res.Stats.Wall,
			shuffled: res.Stats.TuplesShuffled,
			bytes:    res.Stats.BytesShuffled,
			results:  len(res.Rows),
		})
		// Every arm and size must agree with the serial hc_tj answer row
		// for row; keep the deterministic strategy's rows for distVerify.
		if cfg == parajoin.HyperCubeTributary {
			*answers = append(*answers, res.Rows)
		}
	}
	return runs, nil
}

// distRunOnce executes one configuration, retrying the transient
// generation-mismatch errors a member answers with while a commit broadcast
// is still landing.
func distRunOnce(q *parajoin.Query, cfg parajoin.Strategy, timeout time.Duration) (*parajoin.Result, error) {
	var lastErr error
	for attempt := 0; attempt < 10; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		res, err := q.RunWithOptions(ctx, parajoin.RunOptions{Strategy: cfg})
		cancel()
		if err == nil {
			return res, nil
		}
		lastErr = err
		if !parajoin.Retryable(err) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	return nil, lastErr
}

// distVerify enforces the byte-identical-merge invariant: at every cluster
// size, the distributed hc_tj answer must equal the coordinator-local one
// row for row in serial order (answers arrive paired local-then-dist per
// size). Across sizes the serial order legitimately changes with the worker
// grid, so sizes are compared as sorted sets.
func distVerify(runs []distRun, answers [][][]int64) error {
	if len(answers) < 2 || len(answers)%2 != 0 {
		return fmt.Errorf("distscale: recorded %d hc_tj answers, want a local/dist pair per size", len(answers))
	}
	for i := 0; i+1 < len(answers); i += 2 {
		if !reflect.DeepEqual(answers[i], answers[i+1]) {
			return fmt.Errorf("distscale: at size %d the distributed hc_tj answer differs from "+
				"coordinator-local (%d vs %d rows): distributed merge is not byte-identical",
				i/2+1, len(answers[i+1]), len(answers[i]))
		}
	}
	first := canonRows(answers[0])
	for i := 2; i < len(answers); i += 2 {
		if !reflect.DeepEqual(canonRows(answers[i]), first) {
			return fmt.Errorf("distscale: size %d answers a different row set than size 1", i/2+1)
		}
	}
	counts := map[int]int{}
	for _, r := range runs {
		counts[r.results]++
	}
	if len(counts) != 1 {
		return fmt.Errorf("distscale: result cardinality differs across runs: %v", counts)
	}
	return nil
}

// canonRows returns the rows sorted lexicographically — set comparison.
func canonRows(rows [][]int64) [][]int64 {
	out := make([][]int64, len(rows))
	copy(out, rows)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

func renderDistScale(out *os.File, runs []distRun) {
	fmt.Fprintf(out, "\nDistributed scaling — Q1 six configurations, coordinator-local vs pushed to data nodes\n")
	fmt.Fprintf(out, "%-6s %-7s %12s %12s %12s %12s %10s %10s\n",
		"nodes", "config", "local wall", "dist wall", "local bytes", "dist bytes", "shuffled", "results")
	type key struct {
		nodes  int
		config parajoin.Strategy
	}
	byKey := map[key]map[string]distRun{}
	var order []key
	for _, r := range runs {
		k := key{r.nodes, r.config}
		if byKey[k] == nil {
			byKey[k] = map[string]distRun{}
			order = append(order, k)
		}
		byKey[k][r.arm] = r
	}
	for _, k := range order {
		l, d := byKey[k]["local"], byKey[k]["dist"]
		fmt.Fprintf(out, "%-6d %-7s %12v %12v %12d %12d %10d %10d\n",
			k.nodes, string(k.config), l.wall.Round(time.Millisecond), d.wall.Round(time.Millisecond),
			l.bytes, d.bytes, d.shuffled, d.results)
	}
}

// waitCommit drains membership commits until the wanted set is current.
func waitCommit(commits <-chan []string, want []string) error {
	deadline := time.After(30 * time.Second)
	for {
		select {
		case got := <-commits:
			if reflect.DeepEqual(got, want) {
				return nil
			}
		case <-deadline:
			return fmt.Errorf("distscale: timed out waiting for membership %v", want)
		}
	}
}
