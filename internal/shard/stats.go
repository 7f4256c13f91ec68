package shard

import (
	"context"
	"net/http"
	"strconv"

	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
)

// ShardStats is one shard's contribution to the router's aggregated
// GET /stats, as reported by the first replica that answered.
type ShardStats struct {
	ID      int    `json:"id"`
	Replica string `json:"replica"`
	fingerprint.StatsResponse
}

// StatsResponse is the JSON body of the router's GET /stats. The
// embedded fields mirror a single daemon's /stats — Entries is the sum
// over shards, Index is "router", LatencyUS the router-level
// (network-scale) histogram — so fingerprint.Client.Stats decodes it
// unchanged. Shards carries each shard's own counters and
// ShardLatencyUS their latency histograms rolled up bucket-by-bucket.
type StatsResponse struct {
	fingerprint.StatsResponse
	Shards            []ShardStats               `json:"shards"`
	ShardLatencyUS    []fingerprint.HistogramBin `json:"shard_latency_us,omitempty"`
	UnreachableShards []string                   `json:"unreachable_shards,omitempty"`
	// Repair reports the anti-entropy repair loop, present only when
	// WithRepair is configured.
	Repair *RepairStats `json:"repair,omitempty"`
}

// shardTotals is one stats fan-out folded once: GET /stats renders it
// as JSON, and a /metrics scrape stores it for the per-shard gauges and
// the rolled-up histogram to read.
type shardTotals struct {
	// shards holds the shards that answered, in shard order, each as
	// reported by its first answering replica; unreachable names the rest.
	shards      []ShardStats
	unreachable []string
	entries     int // summed over shards
	dim         int
	// latency is the MergeBins roll-up of the shards' latency histograms,
	// latencySumUS their summed latency sums.
	latency      []fingerprint.HistogramBin
	latencySumUS int64
	// ingest aggregates the write path across shards, nil when no shard
	// has one.
	ingest *fingerprint.IngestStats
}

// shardTotals asks every shard for /stats concurrently and folds the
// answers.
func (r *Router) shardTotals(ctx context.Context) shardTotals {
	answers := make([]*ShardStats, len(r.shards))
	eachShard(r.shards, func(sid int, _ []*replicaState) {
		_ = r.tryReplicas(ctx, sid, func(ctx context.Context, s *replicaState) (bool, error) {
			st, err := s.r.Stats(ctx)
			if err != nil {
				return false, err
			}
			answers[sid] = &ShardStats{ID: sid, Replica: s.r.Addr(), StatsResponse: *st}
			return true, nil
		})
	})
	var t shardTotals
	var bins [][]fingerprint.HistogramBin
	down := make([]bool, len(r.shards))
	for sid, st := range answers {
		if st == nil {
			down[sid] = true
			continue
		}
		t.shards = append(t.shards, *st)
		t.entries += st.Entries
		if t.dim == 0 {
			t.dim = st.Dim
		}
		bins = append(bins, st.LatencyUS)
		t.latencySumUS += st.LatencySumUS
		if ing := st.Ingest; ing != nil {
			// Sums for the counters, the worst case for drift and snapshot
			// age (the shard most overdue is the one a dashboard should
			// page on), and the oldest snapshot time.
			if t.ingest == nil {
				t.ingest = &fingerprint.IngestStats{}
			}
			agg := t.ingest
			agg.Accepted += ing.Accepted
			agg.WALBytes += ing.WALBytes
			agg.ReplayEntries += ing.ReplayEntries
			agg.Retrains += ing.Retrains
			agg.Segments += ing.Segments
			agg.Drift = max(agg.Drift, ing.Drift)
			agg.LastSnapshotAgeSeconds = max(agg.LastSnapshotAgeSeconds, ing.LastSnapshotAgeSeconds)
			if ing.LastSnapshotUnix > 0 &&
				(agg.LastSnapshotUnix == 0 || ing.LastSnapshotUnix < agg.LastSnapshotUnix) {
				agg.LastSnapshotUnix = ing.LastSnapshotUnix
			}
		}
	}
	if len(bins) > 0 {
		t.latency = fingerprint.MergeBins(bins...)
	}
	t.unreachable = shardNames(down)
	return t
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	t := r.shardTotals(req.Context())
	head := r.front.Stats()
	head.Entries, head.Dim, head.Index, head.Ingest = t.entries, t.dim, "router", t.ingest
	out := StatsResponse{
		StatsResponse:     head,
		Shards:            t.shards,
		ShardLatencyUS:    t.latency,
		UnreachableShards: t.unreachable,
	}
	if r.repair != nil {
		st := r.repair.stats()
		out.Repair = &st
	}
	writeJSON(w, out)
}

// handleMetrics refreshes the scrape with a fresh stats fan-out, then
// serves the registry — so the per-shard gauges a scrape reports are at
// most one shard-stats round trip old.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	t := r.shardTotals(req.Context())
	r.scrapeMu.Lock()
	r.scrape = t
	r.scrapeMu.Unlock()
	r.metrics.ServeHTTP(w, req)
}

// lastScrape returns the totals the last /metrics request stored.
func (r *Router) lastScrape() shardTotals {
	r.scrapeMu.Lock()
	defer r.scrapeMu.Unlock()
	return r.scrape
}

// buildMetrics assembles the router's Prometheus registry: the Front's
// families (same names a single daemon exports, so dashboards work
// against either tier) plus the router-only shard topology gauges and
// the shard-latency roll-up read from the totals handleMetrics stores.
func (r *Router) buildMetrics() *obs.Registry {
	fams := []*obs.Family{
		obs.GaugeFunc("caltrain_router_shards",
			"Shards this router fans out across.",
			func() float64 { return float64(len(r.shards)) }),
		obs.GaugeFunc("caltrain_router_degraded_replicas",
			"Replicas currently in failure cooldown.",
			func() float64 {
				now := r.now()
				var n int
				for _, states := range r.shards {
					for _, s := range states {
						if !s.healthy(now) {
							n++
						}
					}
				}
				return float64(n)
			}),
		obs.GaugeFunc("caltrain_router_unreachable_shards",
			"Shards with no replica answering /stats at the last scrape.",
			func() float64 { return float64(len(r.lastScrape().unreachable)) }),
		obs.SamplesFunc("caltrain_shard_entries",
			"Entries served per shard, as of the last scrape; unreachable shards are absent.",
			obs.KindGauge, func() []obs.Sample {
				var out []obs.Sample
				for _, st := range r.lastScrape().shards {
					out = append(out, obs.Sample{
						Labels: []obs.Label{{Name: "shard", Value: strconv.Itoa(st.ID)}},
						Value:  float64(st.Entries),
					})
				}
				return out
			}),
		obs.HistogramFunc("caltrain_shard_query_latency_seconds",
			"Shard-reported query latency rolled up across shards (MergeBins), as of the last scrape.",
			func() obs.HistogramSnapshot {
				sc := r.lastScrape()
				return fingerprint.PromHistogram(sc.latency, sc.latencySumUS)
			}),
	}
	if r.repair != nil {
		fams = append(fams, r.repair.metricFamilies()...)
	}
	if r.cache != nil {
		fams = append(fams,
			obs.CounterFunc("caltrain_router_cache_hits_total",
				"Single-query requests answered from the router's response cache.",
				func() float64 { return float64(r.cache.hits.Load()) }),
			obs.CounterFunc("caltrain_router_cache_misses_total",
				"Single-query cache lookups that missed (absent or invalidated by a write).",
				func() float64 { return float64(r.cache.misses.Load()) }),
		)
	}
	return r.front.Registry(fams...)
}
