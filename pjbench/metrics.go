package main

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEndMetrics are what a user of parajoin sees; the untraced run
// reports every one of them on every workload. The error rate is reported
// beside them (the result line's failed ÷ attempted, and an "error_rate"
// info line) rather than among them, because on a correct build it is 0.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"allocs_m", "M"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
}

// perLayerMetrics come from the traced run. Every workload reports all of
// them; a layer the workload bypasses reports 0.
var perLayerMetrics = []metricDef{
	{"planner.plan_s", "s"},
	{"planner.plan_allocs_m", "M"},

	{"engine.exec_s", "s"},
	{"engine.busy_s", "s"},
	{"engine.wait_s", "s"},
	{"engine.exec_alloc_mb", "MB"},
	{"engine.exec_allocs_m", "M"},
	{"engine.peak_resident_tuples", "tuples"},
	{"engine.max_consumer_skew", "ratio"},
	{"engine.tuples_shuffled", "tuples"},
	{"engine.bytes_sent", "B"},
	{"engine.batches_sent", "count"},
	{"engine.processed_tuples", "tuples"},

	{"ljoin.sort_s", "s"},
	{"ljoin.join_s", "s"},
	{"ljoin.join_tasks", "count"},
	{"ljoin.steal_max", "count"},
	{"ljoin.seeks", "count"},
	{"ljoin.sorted_tuples", "tuples"},

	{"colbatch.bytes_per_tuple", "B/tuple"},

	{"spill.bytes", "B"},
	{"spill.segments", "count"},
	{"spill.seals", "count"},
	{"spill.extra_s", "s"},

	{"rel.dedup_s", "s"},

	{"cache.plan_hit_rate", "ratio"},
	{"cache.result_hit_rate", "ratio"},
	{"cache.invalidating_loads", "count"},

	{"server.exec_p50_ms", "ms"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.retries", "count"},

	{"wire.overhead_p50_ms", "ms"},
	{"wire.result_rows", "rows"},

	{"cluster.dist_overhead_s", "s"},
	{"cluster.local_arm_s", "s"},
	{"cluster.dispatch_errors", "count"},
	{"cluster.remote_fragments", "count"},
	{"cluster.fragment_result_rows", "rows"},

	{"partstore.persist_s", "s"},
	{"partstore.open_s", "s"},

	{"trace.overhead_frac", "ratio"},
	{"trace.unattributed_s", "s"},
}
