package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// harvestTraces is how many requests of the traced phase are stitched
// into full traces, spread evenly over the phase.
const harvestTraces = 200

// runTraced is the per-layer run of one workload: one deployment serves
// an untraced phase of the full length (what the clients saw, process
// counters per item, the base latency) and then a traced phase of half
// of it (span self times); the two medians give the cost of tracing.
// The stitched traces are written to outDir.
func runTraced(ctx context.Context, rc runConfig, w workload, outDir string) (*report, error) {
	r := &report{Workload: w.Name, Metrics: map[string]metric{}, Windows: map[string]spread{}}
	w.cfg.traced = true
	env, d, err := prepare(rc, w, "traced")
	if err != nil {
		return nil, err
	}
	defer d.stop()
	if err := d.start(ctx); err != nil {
		return nil, err
	}
	r.set("serve.daemon_ready_s", d.daemonReady.Seconds(), "s")
	r.set("serve.router_ready_s", d.routerReady.Seconds(), "s")

	runPhase(ctx, env, w, d.url(), "warmup", warmupFor(rc.seconds), false)
	length := time.Duration(rc.seconds * float64(time.Second))
	s1, err := takeScrape(ctx, d)
	if err != nil {
		return nil, err
	}
	plain := runPhase(ctx, env, w, d.url(), "plain", length, false)
	s2, err := takeScrape(ctx, d)
	if err != nil {
		return nil, err
	}
	traced := runPhase(ctx, env, w, d.url(), "traced", length/2, true)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	r.Attempted = plain.attempted() + traced.attempted()
	r.Failed = plain.failed() + traced.failed()
	if r.Attempted == 0 {
		return nil, fmt.Errorf("%s: no request completed: %v", w.Name, cmp.Or(plain.firstErr, traced.firstErr))
	}
	if r.Failed > 0 {
		r.problemf("%d of %d requests failed, first: %v", r.Failed, r.Attempted, cmp.Or(plain.firstErr, traced.firstErr))
	}
	clientMetrics(r, plain)
	processMetrics(r, s1, s2, plain)
	r.set("client.rss_peak_mb", s2.peakRSSMiB(), "MiB")
	var clientS float64
	for _, ms := range plain.latenciesMS() {
		clientS += ms / 1e3
	}
	r.set("fingerprint.search_share", promDelta(s1, s2, "caltrain_query_latency_seconds_sum", shardProcs...)/clientS, "ratio")
	hits := promDelta(s1, s2, "caltrain_router_cache_hits_total", routerProc)
	misses := promDelta(s1, s2, "caltrain_router_cache_misses_total", routerProc)
	r.set("shard.cache.hit_ratio", hits/max(hits+misses, 1), "ratio")
	accepted := promDelta(s1, s2, "caltrain_ingest_accepted_total", shardProcs...)
	r.set("ingest.wal.live_bytes_per_entry", promDelta(s1, s2, "caltrain_wal_bytes", shardProcs...)/max(accepted, 1), "B")

	// Spread the harvest evenly over the traced phase, then fold.
	n := min(harvestTraces, len(traced.traces))
	traces := make([]trace, 0, n)
	for i := 0; i < n; i++ {
		traces = append(traces, harvest(ctx, d, traced.traces[i*len(traced.traces)/n]))
	}
	layers, clientMS := meanByLayer(traces)
	named := layers["client_request"]
	for _, sm := range spanMetrics {
		r.set(sm.metric, layers[sm.layer], "ms")
		named += layers[sm.layer]
	}
	r.set("client.unattributed_ms", layers["client_request"], "ms")
	r.set("obs.span_sum_share", named/max(clientMS, 1e-9), "ratio")
	r.set("obs.tracing_overhead_share", median(traced.latenciesMS())/max(median(plain.latenciesMS()), 1e-9)-1, "ratio")

	if err := writeJSON(filepath.Join(outDir, w.Name+".trace.json"), traces); err != nil {
		return nil, err
	}
	return r, nil
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
