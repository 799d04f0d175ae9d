// Command pjbench is parajoin's repository benchmark: three workloads that
// together exercise every layer of the system, an untraced run that reports
// end-to-end metrics, and a traced run that splits the same work by layer.
// Run it from the root of a checkout through run.sh, which builds it from
// that checkout's sources and keeps every build and scratch file inside it:
//
//	bash pjbench/run.sh --workload batch-joins --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Earlier lines carry the host
// fingerprint, provenance, every metric with its unit, and the error rate
// (failed ÷ attempted operations). Every run checks the answers it
// receives; a wrong answer or a drifting exact count is a failed operation,
// clears "correct" and makes the exit code 1.
//
// A pass is one run of a workload's fixed work. wall_s, cpu_s, alloc_mb and
// allocs_m are medians over the passes of the timed phase. Latencies are
// client-observed: over every request for serve-zipf, and over the per-query
// medians for batch-joins and dist-3node, whose passes are fixed lists of
// distinct queries. setup_s is the median of several set-ups.
//
// The smoke tests run every workload at a tiny size:
//
//	go -C pjbench test ./...
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	// graphSeed and kbSeed override a workload's dataset seeds; zipfSeed
	// overrides the Zipf argument seed derived from seed.
	graphSeed, kbSeed, zipfSeed int64
	seconds                     float64
	trace                       bool
	// workDir holds everything the run writes: spill files, partition
	// catalogs, the span dump and the exact-count ledger.
	workDir string
	// tiny shrinks every workload to smoke-test size (tests only).
	tiny bool
}

// datasetSeed returns override when it is set, else the workload's default.
// The datasets are fixed parts of a workload's definition: between seeds a
// generated graph's join work varies by more than any bound could hold, so
// --seed drives the request stream instead (operation order and Zipf
// arguments) and the dataset seeds are arguments of their own.
func datasetSeed(override, def int64) int64 {
	if override != 0 {
		return override
	}
	return def
}

// shuffled returns a seeded permutation of xs.
func shuffled[T any](seed int64, xs []T) []T {
	out := make([]T, len(xs))
	for i, j := range rand.New(rand.NewSource(seed)).Perm(len(xs)) {
		out[i] = xs[j]
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one benchmark workload.
type workload struct {
	name string
	why  string
	run  func(cfg config, rep *report) error
}

var workloads = []workload{
	{"batch-joins", batchWhy, runBatch},
	{"serve-zipf", serveWhy, runServe},
	{"dist-3node", distWhy, runDist},
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: batch-joins, serve-zipf or dist-3node")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the request stream: operation order and Zipf arguments")
	flag.Int64Var(&cfg.graphSeed, "graph-seed", 0, "graph seed (0 takes the workload's default)")
	flag.Int64Var(&cfg.kbSeed, "kb-seed", 0, "knowledge-base seed (0 takes the workload's default)")
	flag.Int64Var(&cfg.zipfSeed, "zipf-seed", 0, "Zipf argument seed (0 takes --seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "0 reports end-to-end metrics; 1 runs the traced per-layer split")
	flag.StringVar(&cfg.workDir, "work-dir", filepath.Join(".bench_build", "work"), "directory for spill files, catalogs, span dumps and the count ledger")
	flag.Parse()
	cfg.trace = trace == 1

	out, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pjbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pjbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result line. Informational
// lines (fingerprint, per-workload summary) go to info.
func run(cfg config, info *os.File) (*outcome, error) {
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q (want batch-joins, serve-zipf or dist-3node)", cfg.workload)
	}
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	runDir, err := os.MkdirTemp(cfg.workDir, w.name+"-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(runDir)

	rep := newReport(cfg, w)
	rep.runDir = runDir
	if err := w.run(cfg, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	if err := rep.finish(); err != nil {
		return nil, err
	}
	if info != nil {
		rep.printInfo(info)
	}
	return rep.outcome(), nil
}

// report accumulates a run's metrics, failures, provenance and spans.
type report struct {
	cfg       config
	w         *workload
	runDir    string
	params    map[string]any
	metrics   map[string]metric
	attempted int64
	failed    int64
	failures  []string
	spans     *tracer
	// exact holds the counts that must repeat exactly between runs of the
	// same code and seed.
	exact map[string]int64
}

func newReport(cfg config, w *workload) *report {
	return &report{
		cfg:     cfg,
		w:       w,
		params:  map[string]any{},
		metrics: map[string]metric{},
		exact:   map[string]int64{},
	}
}

func (r *report) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail records one failed or wrong-answer operation.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// setExact records a count that must repeat exactly. A pass that reports a
// different value than an earlier pass of the same run is drift, and drift
// is an error.
func (r *report) setExact(name string, v int64) {
	if old, ok := r.exact[name]; ok && old != v {
		r.fail("exact count %s drifted within the run: %d then %d", name, old, v)
		return
	}
	r.exact[name] = v
}

// finish checks the per-layer metric set is complete, fills the ones a
// workload bypasses with zero, and runs the cross-run count check.
func (r *report) finish() error {
	if r.cfg.trace {
		for _, m := range perLayerMetrics {
			if _, ok := r.metrics[m.name]; !ok {
				r.set(m.name, m.unit, 0)
			}
		}
		if r.spans != nil {
			path := filepath.Join(r.cfg.workDir, fmt.Sprintf("spans-%s-seed%d.jsonl", r.w.name, r.cfg.seed))
			if err := r.spans.writeJSONL(path); err != nil {
				return err
			}
			r.params["span_dump"] = path
		}
	}
	if !r.cfg.trace {
		for _, m := range endToEndMetrics {
			if _, ok := r.metrics[m.name]; !ok {
				return fmt.Errorf("workload did not report end-to-end metric %s", m.name)
			}
		}
	}
	return r.checkLedger()
}

func (r *report) outcome() *outcome {
	want := endToEndMetrics
	if r.cfg.trace {
		want = perLayerMetrics
	}
	out := &outcome{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for _, m := range want {
		out.Metrics[m.name] = r.metrics[m.name]
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	return out
}

// printInfo writes the provenance line, the error rate and any failures.
func (r *report) printInfo(f *os.File) {
	errRate := 0.0
	if r.attempted > 0 {
		errRate = float64(r.failed) / float64(r.attempted)
	}
	prov := map[string]any{
		"workload":   r.w.name,
		"why":        r.w.why,
		"seed":       r.cfg.seed,
		"seconds":    r.cfg.seconds,
		"trace":      r.cfg.trace,
		"params":     r.params,
		"host":       hostFingerprint(),
		"source":     sourceProvenance(),
		"error_rate": metric{Value: errRate, Unit: "ratio"},
		"exact":      r.exact,
	}
	line, _ := json.Marshal(prov)
	fmt.Fprintln(f, "info", string(line))
	names := make([]string, 0, len(r.metrics))
	for n := range r.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.metrics[n]
		fmt.Fprintf(f, "metric %-32s %16.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(f, "metric %-32s %16.6g %s\n", "error_rate", errRate, "ratio")
	for _, msg := range r.failures {
		fmt.Fprintln(f, "failure", msg)
	}
}
