package main

// metricSpec names one reported metric. BENCHMARK.json lists the same
// metrics (a test holds the two equal) and adds each end-to-end metric's
// regression bound.
type metricSpec struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

// e2eSpecs are the end-to-end metrics every workload reports from its
// untraced run: what a client of cupidd sees, plus the server's cost. The
// 90th percentile and recover_s are measured and printed too, but not
// gated: on a 2-core shared host their run-to-run spread reached 45% and
// 66%, past any bound a regression gate can use (bench/README.md).
var e2eSpecs = []metricSpec{
	{"setup_s", "s", "lower"},
	{"latency_p50_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"rss_peak_mb", "MB", "lower"},
}

// layerSpecs are the per-layer metrics of the traced replay.
var layerSpecs = []metricSpec{
	{"importer.parse_us", "us", "lower"},
	{"core.prepare_us", "us", "lower"},
	{"core.prepare_allocs", "count", "lower"},
	{"core.prepare_kb", "KB", "lower"},
	{"schematree.build_us", "us", "lower"},
	{"linguistic.analyze_us", "us", "lower"},
	{"schematree.nodes", "count", "lower"},
	{"registry.plan_ns", "ns", "lower"},
	{"registry.plan_allocs", "count", "lower"},
	{"index.topk_us", "us", "lower"},
	{"index.scored", "count", "lower"},
	{"core.match_prepared_us", "us", "lower"},
	{"core.match_prepared_allocs", "count", "lower"},
	{"core.match_prepared_kb", "KB", "lower"},
	{"linguistic.lsim_us", "us", "lower"},
	{"linguistic.blend_us", "us", "lower"},
	{"structural.treematch_us", "us", "lower"},
	{"structural.secondpass_us", "us", "lower"},
	{"mapping.generate_us", "us", "lower"},
	{"registry.score_ns", "ns", "lower"},
	{"core.match_other_us", "us", "lower"},
	{"registry.matched", "count", "lower"},
	{"registry.useful_ratio", "ratio", "higher"},
	{"registry.match_us", "us", "lower"},
	{"registry.rank_other_us", "us", "lower"},
	{"registry.wal_commit_us", "us", "lower"},
	{"registry.recover_ms", "ms", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}
