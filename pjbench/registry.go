package main

import "parajoin/internal/metrics"

// regSample is a snapshot of the metrics-registry series the traced run
// splits end-to-end calls with. The registry is process-wide, so in-process
// data nodes add their work to the same series.
type regSample map[string]float64

// regCounters maps a sample key to a registry counter series; dir is the
// series' "dir" label ("" for none).
var regCounters = []struct{ key, name, dir string }{
	{"tuples_sent", "parajoin_exchange_tuples_total", "sent"},
	{"bytes_sent", "parajoin_exchange_bytes_total", "sent"},
	{"batches_sent", "parajoin_exchange_batches_total", "sent"},
	{"frag_rows", "parajoin_cluster_fragment_result_rows_total", ""},
	{"dispatch_errors", "parajoin_cluster_fragment_dispatch_errors_total", ""},
}

// regHistSums maps a sample key to a registry histogram whose sum is read.
var regHistSums = []struct{ key, name string }{
	{"plan_s", "parajoin_query_plan_seconds"},
	{"round_s", "parajoin_round_seconds"},
}

func sampleRegistry() regSample {
	s := regSample{}
	for _, c := range regCounters {
		var labels []metrics.Label
		if c.dir != "" {
			labels = append(labels, metrics.Label{Name: "dir", Value: c.dir})
		}
		s[c.key] = float64(metrics.Default.Counter(c.name, "", labels...).Value())
	}
	for _, h := range regHistSums {
		s[h.key] = metrics.Default.Histogram(h.name, "", nil).Sum()
	}
	return s
}

// since returns the per-series change from an earlier sample.
func (s regSample) since(prev regSample) regSample {
	d := regSample{}
	for k, v := range s {
		d[k] = v - prev[k]
	}
	return d
}
