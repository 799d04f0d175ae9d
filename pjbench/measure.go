package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// usage is a snapshot of the process's clocks and allocator counters.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	alloc   uint64
	mallocs uint64
}

func sampleUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: processCPU(), alloc: ms.TotalAlloc, mallocs: ms.Mallocs}
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cost is the difference between two usage snapshots.
type cost struct {
	wall    time.Duration
	cpu     time.Duration
	allocMB float64
	allocsM float64
}

func (u usage) since(start usage) cost {
	return cost{
		wall:    u.wall.Sub(start.wall),
		cpu:     u.cpu - start.cpu,
		allocMB: float64(u.alloc-start.alloc) / (1 << 20),
		allocsM: float64(u.mallocs-start.mallocs) / 1e6,
	}
}

// timedPasses runs pass repeatedly until the timed phase has lasted the
// given number of seconds, and at least minPasses times. A garbage
// collection before each pass keeps one pass's garbage from being billed
// to the next. The index passed to pass counts from 0.
func timedPasses(seconds float64, minPasses int, pass func(i int) error) ([]cost, error) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	var costs []cost
	for i := 0; i < minPasses || time.Now().Before(deadline); i++ {
		runtime.GC()
		start := sampleUsage()
		if err := pass(i); err != nil {
			return costs, err
		}
		costs = append(costs, sampleUsage().since(start))
	}
	return costs, nil
}

// reportCosts sets wall_s, cpu_s, alloc_mb and allocs_m to the medians of
// per-pass costs.
func (r *report) reportCosts(costs []cost) {
	var wall, cpu, alloc, allocs []float64
	for _, c := range costs {
		wall = append(wall, c.wall.Seconds())
		cpu = append(cpu, c.cpu.Seconds())
		alloc = append(alloc, c.allocMB)
		allocs = append(allocs, c.allocsM)
	}
	r.set("wall_s", "s", median(wall))
	r.set("cpu_s", "s", median(cpu))
	r.set("alloc_mb", "MB", median(alloc))
	r.set("allocs_m", "M", median(allocs))
	r.params["passes"] = len(costs)
	r.params["pass_wall_s"] = wall
}

// reportLayers sets every per-layer metric to its median over the traced
// passes.
func (r *report) reportLayers(passes []map[string]float64) {
	units := map[string]string{}
	for _, m := range perLayerMetrics {
		units[m.name] = m.unit
	}
	vals := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p {
			vals[k] = append(vals[k], v)
		}
	}
	for k, vs := range vals {
		r.set(k, units[k], median(vs))
	}
	r.params["traced_passes"] = len(passes)
}

// reportLatencies sets latency_p50_ms and latency_p99_ms from a stream of
// interchangeable requests: the percentiles of every request's latency.
func (r *report) reportLatencies(lat []time.Duration) {
	ms := millis(lat)
	r.set("latency_p50_ms", "ms", quantile(ms, 0.50))
	r.set("latency_p99_ms", "ms", quantile(ms, 0.99))
	r.params["latency_samples"] = len(lat)
}

// reportOpLatencies sets latency_p50_ms and latency_p99_ms for a pass made
// of a fixed list of distinct operations: each operation's latency is its
// median over the passes, and the percentiles are taken over operations.
// Pooling the raw samples instead would put p99 on the slowest
// operation's single worst pass.
func (r *report) reportOpLatencies(perOp map[string][]time.Duration) {
	byOp := map[string]float64{}
	var meds []float64
	for op, lat := range perOp {
		byOp[op] = median(millis(lat))
		meds = append(meds, byOp[op])
	}
	r.set("latency_p50_ms", "ms", quantile(meds, 0.50))
	r.set("latency_p99_ms", "ms", quantile(meds, 0.99))
	r.params["op_median_ms"] = byOp
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the closest ranks; 0 for no data.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// repeatSetup runs setup several times, closing every instance but the
// last, and reports the median set-up time as setup_s. It sets up at least
// minSetups times, and more (up to maxSetups) while the set-ups so far
// took under setupBudget, so that a fast set-up's median rests on enough
// samples to be steady.
func repeatSetup[T any](r *report, setup func() (T, error), closeFn func(T)) (T, error) {
	const (
		minSetups   = 3
		maxSetups   = 15
		setupBudget = 2 * time.Second
	)
	var last T
	var times []float64
	var total time.Duration
	for i := 0; i < minSetups || (i < maxSetups && total < setupBudget); i++ {
		if i > 0 {
			closeFn(last)
			runtime.GC()
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			var zero T
			return zero, err
		}
		d := time.Since(start)
		total += d
		times = append(times, d.Seconds())
		last = v
	}
	r.set("setup_s", "s", median(times))
	r.params["setups"] = len(times)
	return last, nil
}
