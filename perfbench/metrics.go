package main

// metricDef names one reported metric and its unit; the lists match
// BENCHMARK.json and METRICS.md.
type metricDef struct{ name, unit string }

// e2eMetrics are printed by every untraced run.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"batch_s", "s"},
	{"append_p50_ms", "ms"},
	{"append_tail_ms", "ms"},
	{"visible_p50_ms", "ms"},
	{"visible_tail_ms", "ms"},
	{"read_p50_ms", "ms"},
	{"read_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are printed by every traced run.
var layerMetrics = []metricDef{
	{"server.append_ms", "ms"},
	{"server.read_truth_ms", "ms"},
	{"server.read_copies_ms", "ms"},
	{"server.read_304_ms", "ms"},
	{"server.read_bytes", "bytes"},
	{"server.round_wall_ms", "ms"},
	{"server.round_wait_ms", "ms"},
	{"server.rounds_published", "count"},
	{"server.appends_per_round", "count"},
	{"server.admission_rejects", "count"},
	{"telemetry.overhead_ms", "ms"},
	{"wal.append_ms", "ms"},
	{"wal.fsync_ms", "ms"},
	{"wal.bytes_per_obs", "bytes"},
	{"dataset.build_ms", "ms"},
	{"index.structure_ms", "ms"},
	{"index.prepare_ms", "ms"},
	{"core.detect_ms", "ms"},
	{"core.computations", "count"},
	{"core.pairs_considered", "count"},
	{"core.entries_scanned", "count"},
	{"core.values_examined", "count"},
	{"fusion.self_ms", "ms"},
	{"fusion.inner_rounds", "count"},
	{"gen.generate_ms", "ms"},
	{"bench.lag_tail_ms", "ms"},
	{"bench.trace_overhead_ms", "ms"},
}
