package main

import "fmt"

// metricDef declares one reported metric. The two lists below are the
// benchmark's contract with BENCHMARK.json at the repository root; the
// self-test fails when they disagree.
type metricDef struct {
	name string
	unit string
}

// endToEndMetrics are reported on every workload (--trace 0).
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"bytes_per_row", "B/row"},
	{"reads_per_s", "reads/s"},
	{"read_mean_us", "us"},
	{"read_tail_us", "us"},
	{"call_p50_us", "us"},
}

// queries are the TPC-H queries tpch-olap runs; the exec.* metrics are
// reported per query.
var queries = []int{1, 3, 4, 5, 6, 12, 14, 19}

// joinQueries have build sides (exec.build_ms).
var joinQueries = []int{3, 4, 5, 12, 14, 19}

// perLayerMetrics are reported on every workload (--trace 1). A layer the
// workload does not exercise reports 0, and so does its base count.
var perLayerMetrics = buildPerLayer()

func buildPerLayer() []metricDef {
	d := []metricDef{
		{"api.lookup_ns", "ns"},
		{"api.insert_ns", "ns"},
		{"api.update_ns", "ns"},
		{"api.delete_ns", "ns"},
		{"api.write_tail_us", "us"},
		{"api.writes_per_s", "writes/s"},
		{"api.traced_calls", "count"},
		{"api.allocs_per_lookup", "allocs/op"},
		{"api.allocs_per_write", "allocs/op"},
		{"api.query_overhead_us", "us"},
	}
	for _, q := range queries {
		d = append(d, metricDef{fmt.Sprintf("exec.run_ms.q%d", q), "ms"})
	}
	for _, q := range joinQueries {
		d = append(d, metricDef{fmt.Sprintf("exec.build_ms.q%d", q), "ms"})
	}
	d = append(d,
		metricDef{"exec.scan_self_ns_per_row", "ns/row"},
		metricDef{"exec.filter_self_ns_per_row", "ns/row"},
		metricDef{"exec.probe_self_ns_per_row", "ns/row"},
		metricDef{"exec.agg_self_ns_per_row", "ns/row"},
		metricDef{"exec.probe_hit_ratio", "ratio"},
		metricDef{"exec.probe_rows_in", "count"},
		metricDef{"exec.probe_hits", "count"},
		metricDef{"exec.spilled_groups.q1", "count"},
		metricDef{"exec.worker_skew", "ratio"},
	)
	for _, q := range queries {
		d = append(d, metricDef{fmt.Sprintf("exec.alloc_bytes_per_query.q%d", q), "B"})
	}
	for _, q := range queries {
		d = append(d, metricDef{fmt.Sprintf("exec.allocs_per_query.q%d", q), "count"})
	}
	d = append(d,
		metricDef{"exec.batch_fallbacks", "count"},
		metricDef{"exec.profiled_queries", "count"},

		metricDef{"core.chunks_skipped_ratio.q6", "ratio"},
		metricDef{"core.q6_chunks", "count"},
		metricDef{"core.q6_chunks_skipped", "count"},
		metricDef{"core.vectors_pruned_ratio.q6", "ratio"},
		metricDef{"core.q6_vectors", "count"},
		metricDef{"core.q6_vectors_pruned", "count"},
		metricDef{"core.match_ratio.q6", "ratio"},
		metricDef{"core.q6_rows_matched", "count"},
		metricDef{"core.q6_rows_scanned", "count"},
		metricDef{"core.unpacks_per_query.q1", "count"},
		metricDef{"core.unpack_ns_per_row", "ns/row"},
		metricDef{"core.unpack_rows", "count"},
		metricDef{"core.find_ns_per_row", "ns/row"},
		metricDef{"core.find_rows", "count"},
		metricDef{"core.point_get_ns.frozen", "ns"},
		metricDef{"core.point_get_ns.hot", "ns"},
		metricDef{"core.point_gets.frozen", "count"},
		metricDef{"core.point_gets.hot", "count"},
		metricDef{"psma.range_share.q6", "ratio"},
		metricDef{"psma.q6_block_rows", "count"},
		metricDef{"psma.q6_range_rows", "count"},

		metricDef{"simd.find_bytes_per_ns.w1", "B/ns"},
		metricDef{"simd.find_bytes_per_ns.w2", "B/ns"},
		metricDef{"simd.find_bytes_per_ns.w4", "B/ns"},
		metricDef{"simd.sum_f64_bytes_per_ns", "B/ns"},
		metricDef{"simd.mix64_ns_per_key", "ns"},

		metricDef{"storage.freeze_ns_per_row", "ns/row"},
		metricDef{"storage.frozen_rows", "count"},
		metricDef{"compress.ratio", "ratio"},
		metricDef{"compress.bytes_in", "B"},
		metricDef{"compress.bytes_out", "B"},
		metricDef{"compress.bytes_out.uncompressed", "B"},
		metricDef{"compress.bytes_out.single", "B"},
		metricDef{"compress.bytes_out.dict", "B"},
		metricDef{"compress.bytes_out.trunc", "B"},
		metricDef{"storage.hot_row_share", "ratio"},
		metricDef{"storage.hot_rows", "count"},
		metricDef{"storage.live_rows", "count"},
		metricDef{"storage.retired_rows", "count"},

		metricDef{"index.lookup_ns", "ns"},
		metricDef{"index.publishes_per_write", "ratio"},
		metricDef{"index.publishes", "count"},
		metricDef{"index.writes", "count"},

		metricDef{"wal.records_per_batch", "ratio"},
		metricDef{"wal.records", "count"},
		metricDef{"wal.batches", "count"},
		metricDef{"wal.bytes_per_record", "B"},
		metricDef{"wal.commit_us", "us"},

		metricDef{"blockstore.reloads_per_query.q1", "count"},
		metricDef{"blockstore.reloads_per_query.q6", "count"},
		metricDef{"blockstore.pin_wait_us_per_query", "us"},
		metricDef{"blockstore.hit_ratio", "ratio"},
		metricDef{"blockstore.frozen_chunks_visited", "count"},
		metricDef{"blockstore.reloads", "count"},
		metricDef{"blockstore.evictions_per_s", "1/s"},
		metricDef{"blockstore.evictions", "count"},
		metricDef{"blockstore.read_bytes_per_reload", "B"},

		metricDef{"gc.cpu_fraction", "ratio"},
		metricDef{"gc.cycles", "count"},
		metricDef{"trace.spans", "count"},
	)
	for _, e := range endToEndMetrics {
		d = append(d, metricDef{"trace.overhead." + e.name, e.unit})
	}
	return d
}

// ratioBases names, for each metric of unit "ratio", the counts it is
// computed from, denominator last; they are reported beside it.
var ratioBases = map[string][]string{
	"exec.probe_hit_ratio":         {"exec.probe_hits", "exec.probe_rows_in"},
	"exec.worker_skew":             {"exec.profiled_queries"},
	"core.chunks_skipped_ratio.q6": {"core.q6_chunks_skipped", "core.q6_chunks"},
	"core.vectors_pruned_ratio.q6": {"core.q6_vectors_pruned", "core.q6_vectors"},
	"core.match_ratio.q6":          {"core.q6_rows_matched", "core.q6_rows_scanned"},
	"psma.range_share.q6":          {"psma.q6_range_rows", "psma.q6_block_rows"},
	"compress.ratio":               {"compress.bytes_in", "compress.bytes_out"},
	"storage.hot_row_share":        {"storage.hot_rows", "storage.live_rows"},
	"index.publishes_per_write":    {"index.publishes", "index.writes"},
	"wal.records_per_batch":        {"wal.records", "wal.batches"},
	"blockstore.hit_ratio":         {"blockstore.reloads", "blockstore.frozen_chunks_visited"},
	"gc.cpu_fraction":              {"gc.cycles"},
}

// metricSet holds values for a fixed list of declared metrics; every
// declared metric is reported, 0 unless set. Setting an undeclared name
// is a bug in the benchmark and panics.
type metricSet struct {
	defs []metricDef
	vals map[string]float64
}

func newMetricSet(defs []metricDef) metricSet {
	m := metricSet{defs: defs, vals: make(map[string]float64, len(defs))}
	for _, d := range defs {
		m.vals[d.name] = 0
	}
	return m
}

func (m metricSet) set(name string, v float64) {
	if _, ok := m.vals[name]; !ok {
		panic("perfbench: undeclared metric " + name)
	}
	m.vals[name] = v
}

func (m metricSet) get(name string) float64 { return m.vals[name] }

func (m metricSet) values() map[string]metricValue {
	out := make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		out[d.name] = metricValue{Value: m.vals[d.name], Unit: d.unit}
	}
	return out
}
