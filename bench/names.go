package main

// metricDef names one metric the benchmark emits. BENCHMARK.json lists
// the same names with the same units; a test holds the two together.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the numbers a caller of the deployment sees, printed by an
// untraced run (-trace 0).
var endToEnd = []metricDef{
	{"recall_at_9", "ratio"},
	{"rss_setup_mb", "MiB"},
	{"setup_s", "s"},
}

// demoted are the end-to-end metrics ISSUE 11 asked for that do not
// repeat within 10 % on this sandbox and therefore, by the issue's own
// rule, are reported per layer as client.<name> with no bound (README,
// "What was demoted"). Every run measures them; -agree prints them next
// to the bounded metrics.
var demoted = []metricDef{
	{"client.throughput_items_s", "1/s"},
	{"client.latency_p50_ms", "ms"},
	{"client.latency_p95_ms", "ms"},
	{"client.cpu_ms_per_item", "ms"},
	{"client.rss_peak_mb", "MiB"},
}

// perLayer are the numbers of single layers, printed by a traced run
// (-trace 1). The first group comes from the in-process layer pass and is
// the same for every workload; the second is measured on the workload's
// own deployment.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"kernel.rows_ns_per_vec", "ns"},
		{"kernel.batch_ns_per_pair", "ns"},
		{"kernel.gather_ns_per_vec", "ns"},
		{"kernel.adc_ns_per_code", "ns"},
		{"kernel.rows_speedup_vs_generic", "ratio"},
		{"kernel.adc_speedup_vs_generic", "ratio"},
	}
	for _, b := range []string{"flat", "ivf", "ivfpq"} {
		defs = append(defs,
			metricDef{"index." + b + ".search_us", "us"},
			metricDef{"index." + b + ".batch16_us", "us"},
			metricDef{"index." + b + ".allocs_per_search", "count"},
			metricDef{"index." + b + ".append_us_per_entry", "us"},
			metricDef{"index." + b + ".bytes_per_entry", "B"},
			metricDef{"index." + b + ".speedup_vs_generic", "ratio"},
		)
	}
	defs = append(defs,
		metricDef{"index.flat.topk_overhead_us", "us"},
		metricDef{"index.ivf.train_s", "s"},
		metricDef{"index.ivfpq.train_s", "s"},

		metricDef{"fingerprint.codec.query_decode_us", "us"},
		metricDef{"fingerprint.codec.batch16_decode_us", "us"},
		metricDef{"fingerprint.codec.response_encode_us", "us"},
		metricDef{"fingerprint.codec.ingest16_decode_us", "us"},
		metricDef{"fingerprint.service.run_batch1_overhead_us", "us"},
		metricDef{"fingerprint.service.handler_query_us", "us"},
		metricDef{"fingerprint.service.allocs_per_query", "count"},
		metricDef{"fingerprint.service.alloc_bytes_per_query", "B"},
		metricDef{"fingerprint.client.loopback_hop_us", "us"},

		metricDef{"ingest.wal.append16_never_us", "us"},
		metricDef{"ingest.wal.append16_always_us", "us"},
		metricDef{"ingest.wal.fsync_us", "us"},
		metricDef{"ingest.wal.bytes_per_entry", "B"},
		metricDef{"ingest.wal.replay_entries_per_s", "1/s"},
		metricDef{"ingest.store.batch16_us", "us"},
		metricDef{"ingest.store.allocs_per_batch16", "count"},

		metricDef{"shard.router.local_query_us", "us"},
		metricDef{"shard.router.overhead_us", "us"},
		metricDef{"shard.router.allocs_per_query", "count"},
		metricDef{"shard.router.batch16_split_us", "us"},
		metricDef{"shard.cache.hit_us", "us"},
	)

	// Per workload, from the untraced half of the traced run.
	defs = append(defs,
		metricDef{"fingerprint.search_share", "ratio"},
		metricDef{"ingest.wal.live_bytes_per_entry", "B"},
		metricDef{"shard.cache.hit_ratio", "ratio"},
		metricDef{"serve.daemon_ready_s", "s"},
		metricDef{"serve.router_ready_s", "s"},
		metricDef{"client.cpu_share", "ratio"},
		metricDef{"client.steal_share", "ratio"},
		metricDef{"client.failed_share", "ratio"},
	)
	defs = append(defs, demoted...)
	for _, bin := range []string{"caltrain-router", "caltrain-serve"} {
		defs = append(defs,
			metricDef{bin + ".cpu_ms_per_item", "ms"},
			metricDef{bin + ".mallocs_per_item", "count"},
			metricDef{bin + ".alloc_bytes_per_item", "B"},
			metricDef{bin + ".gc_pause_ms_per_s", "ms/s"},
		)
	}
	// Per workload, from the spans of the traced half.
	for _, s := range spanMetrics {
		defs = append(defs, metricDef{s.metric, "ms"})
	}
	return append(defs,
		metricDef{"client.unattributed_ms", "ms"},
		metricDef{"obs.span_sum_share", "ratio"},
		metricDef{"obs.tracing_overhead_share", "ratio"},
	)
}()

// spanMetrics maps the span layers of a stitched trace (see spanLayer) to
// the per-layer metric that reports the layer's share of the client's
// latency.
var spanMetrics = []struct{ layer, metric string }{
	{"router_root", "shard.span.router_root_self_ms"},
	{"cache_lookup", "shard.span.cache_lookup_ms"},
	{"route", "shard.span.route_self_ms"},
	{"scatter", "shard.span.scatter_self_ms"},
	{"replicate", "shard.span.replicate_self_ms"},
	{"rpc", "shard.span.rpc_self_ms"},
	{"daemon_root", "fingerprint.span.daemon_root_self_ms"},
	{"search", "fingerprint.span.search_ms"},
	{"wal_append", "ingest.span.wal_append_self_ms"},
	{"fsync", "ingest.span.fsync_ms"},
}
