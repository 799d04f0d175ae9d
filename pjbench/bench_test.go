package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// smoke runs one workload at smoke-test size and checks the result line:
// every metric of the mode present with its unit, and no failures.
func smoke(t *testing.T, workload string, trace bool, workDir string) *outcome {
	t.Helper()
	cfg := config{workload: workload, seed: 3, seconds: 0.2, trace: trace, workDir: workDir, tiny: true}
	out, err := run(cfg, nil)
	if err != nil {
		t.Fatalf("%s trace=%v: %v", workload, trace, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
		t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d", workload, trace, out.Correct, out.Attempted, out.Failed)
	}
	want := endToEndMetrics
	if trace {
		want = perLayerMetrics
	}
	if len(out.Metrics) != len(want) {
		t.Errorf("%s trace=%v: %d metrics, want %d", workload, trace, len(out.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := out.Metrics[m.name]
		if !ok {
			t.Errorf("%s trace=%v: metric %s missing", workload, trace, m.name)
			continue
		}
		if got.Unit != m.unit {
			t.Errorf("%s trace=%v: metric %s has unit %q, want %q", workload, trace, m.name, got.Unit, m.unit)
		}
	}
	if !trace {
		for _, m := range endToEndMetrics {
			if out.Metrics[m.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", workload, m.name, out.Metrics[m.name].Value)
			}
		}
	}
	return out
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			smoke(t, w.name, false, dir)
			// A second untraced run of the same code and seed must repeat
			// every exact count recorded by the first (the ledger check).
			smoke(t, w.name, false, dir)
			traced := smoke(t, w.name, true, dir)
			checkSpanDump(t, filepath.Join(dir, "spans-"+w.name+"-seed3.jsonl"))

			m := traced.Metrics
			switch w.name {
			case "batch-joins":
				if m["spill.bytes"].Value <= 0 || m["ljoin.seeks"].Value <= 0 || m["planner.plan_s"].Value <= 0 {
					t.Errorf("batch-joins: spill, seek or planner metrics are zero: %v", m)
				}
			case "serve-zipf":
				if m["cache.result_hit_rate"].Value <= 0 || m["cache.invalidating_loads"].Value <= 0 {
					t.Errorf("serve-zipf: cache metrics are zero: %v", m)
				}
			case "dist-3node":
				if m["cluster.remote_fragments"].Value <= 0 || m["cluster.fragment_result_rows"].Value <= 0 {
					t.Errorf("dist-3node: cluster metrics are zero: %v", m)
				}
			}
			// Layers a workload bypasses report zero.
			if w.name != "batch-joins" && m["spill.bytes"].Value != 0 {
				t.Errorf("%s: spill.bytes = %v, want 0", w.name, m["spill.bytes"].Value)
			}
			if w.name != "serve-zipf" && m["cache.result_hit_rate"].Value != 0 {
				t.Errorf("%s: cache.result_hit_rate = %v, want 0", w.name, m["cache.result_hit_rate"].Value)
			}
			if w.name != "dist-3node" && m["cluster.remote_fragments"].Value != 0 {
				t.Errorf("%s: cluster.remote_fragments = %v, want 0", w.name, m["cluster.remote_fragments"].Value)
			}
		})
	}
}

// checkSpanDump parses a span dump and checks every self time lies between
// zero and the span's duration.
func checkSpanDump(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	n := 0
	for sc.Scan() {
		var s struct {
			span
			SelfNS int64 `json:"self_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("span line %d: %v", n+1, err)
		}
		if s.ID == 0 || s.Op == 0 || s.Name == "" || s.EndNS < s.StartNS {
			t.Errorf("malformed span %+v", s)
		}
		if s.SelfNS < 0 || s.SelfNS > s.EndNS-s.StartNS {
			t.Errorf("span %s: self time %d outside [0, %d]", s.Name, s.SelfNS, s.EndNS-s.StartNS)
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Errorf("%s holds no spans", path)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Op: 1, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Op: 1, Parent: 1, Name: "a", StartNS: 10, EndNS: 40},
		{ID: 3, Op: 1, Parent: 1, Name: "b", StartNS: 30, EndNS: 50},  // overlaps a
		{ID: 4, Op: 1, Parent: 1, Name: "c", StartNS: 90, EndNS: 120}, // reaches past root
		{ID: 5, Op: 1, Parent: 2, Name: "a1", StartNS: 15, EndNS: 20},
	}
	self := selfTimes(spans)
	want := map[int]int64{1: 100 - 40 - 10, 2: 25, 3: 20, 4: 30, 5: 5}
	for id, w := range want {
		if got := int64(self[id]); got != w {
			t.Errorf("span %d: self %d, want %d", id, got, w)
		}
	}
}

func TestSetDigestIgnoresOrder(t *testing.T) {
	a := digestRows([][]int64{{1, 2}, {3, 4}, {5, 6}})
	b := digestRows([][]int64{{5, 6}, {1, 2}, {3, 4}})
	if a != b {
		t.Errorf("same rows in another order: %v vs %v", a, b)
	}
	if c := digestRows([][]int64{{1, 2}, {3, 4}, {5, 7}}); c == a {
		t.Errorf("different rows share digest %v", a)
	}
	if orderedDigest([][]int64{{1, 2}, {3, 4}}) == orderedDigest([][]int64{{3, 4}, {1, 2}}) {
		t.Error("ordered digest ignores row order")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := run(config{workload: "nope", seconds: 1, workDir: t.TempDir()}, nil); err == nil {
		t.Fatal("unknown workload accepted")
	}
}
