package fingerprint

import (
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"caltrain/internal/obs"
)

// StatsResponse is the JSON body of GET /stats.
type StatsResponse struct {
	Entries        int            `json:"entries"`
	Dim            int            `json:"dim"`
	Index          string         `json:"index"`
	UptimeSeconds  float64        `json:"uptime_seconds"`
	Queries        uint64         `json:"queries"`
	BatchRequests  uint64         `json:"batch_requests"`
	IngestRequests uint64         `json:"ingest_requests,omitempty"`
	Errors         uint64         `json:"errors"`
	LatencyUS      []HistogramBin `json:"latency_us"`
	// LatencySumUS is the sum of all observed latencies (microseconds),
	// so rates and averages derive without bucket interpolation.
	LatencySumUS int64 `json:"latency_sum_us,omitempty"`
	// Ingest carries the write path's counters when the daemon has one
	// (started with -wal).
	Ingest *IngestStats `json:"ingest,omitempty"`
	// LinkageResidentBytes is the caltrain_linkage_resident_bytes gauge
	// family by its part label: what the linkages cost resident in the
	// database's rows, provenance and class index, and in the index.
	LinkageResidentBytes map[string]int64 `json:"linkage_resident_bytes,omitempty"`
}

// ResidentBytesMetric names the gauge family StatsSnapshot re-reports as
// StatsResponse.LinkageResidentBytes; the deployment that knows the
// database declares it through MustRegisterMetrics.
const ResidentBytesMetric = "caltrain_linkage_resident_bytes"

func (s *Service) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.StatsSnapshot())
}

// StatsSnapshot returns the same counters GET /stats serves — the
// in-process path a local shard replica reports through.
func (s *Service) StatsSnapshot() StatsResponse {
	sr := s.Searcher()
	out := s.front.Stats()
	out.Entries, out.Dim, out.Index = sr.Len(), sr.Dim(), sr.Kind()
	if s.ingester != nil {
		st := s.ingester.IngestStats()
		out.Ingest = &st
	}
	for _, part := range s.metrics.Collect(ResidentBytesMetric) {
		if out.LinkageResidentBytes == nil {
			out.LinkageResidentBytes = make(map[string]int64)
		}
		out.LinkageResidentBytes[part.Labels[0].Value] = int64(part.Value)
	}
	return out
}

// buildMetrics assembles the daemon's Prometheus registry: the Front's
// shared families plus the serving backend's size and the write path's.
// Every family reads the existing serving counters at scrape time; the
// ingest families collect nothing (and so vanish from the exposition)
// on a read-only daemon.
func (s *Service) buildMetrics() *obs.Registry {
	// One gauge/counter per write-path stat, suppressed when the daemon
	// has no ingester so a read-only daemon's scrape reports no WAL.
	ing := func(fn func(IngestStats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			if s.ingester == nil {
				return nil
			}
			return []obs.Sample{{Value: fn(s.ingester.IngestStats())}}
		}
	}
	return s.front.Registry(
		obs.GaugeFunc("caltrain_entries",
			"Entries in the serving backend.",
			func() float64 { return float64(s.Searcher().Len()) }),
		obs.SamplesFunc("caltrain_wal_bytes",
			"Bytes across all live WAL segments — the cue that a snapshot is overdue.",
			obs.KindGauge, ing(func(st IngestStats) float64 { return float64(st.WALBytes) })),
		obs.SamplesFunc("caltrain_wal_segments",
			"Live WAL segments.",
			obs.KindGauge, ing(func(st IngestStats) float64 { return float64(st.Segments) })),
		obs.SamplesFunc("caltrain_ingest_accepted_total",
			"Entries durably applied since startup (replay excluded).",
			obs.KindCounter, ing(func(st IngestStats) float64 { return float64(st.Accepted) })),
		obs.SamplesFunc("caltrain_ingest_replayed_entries",
			"Entries restored from the WAL at startup.",
			obs.KindGauge, ing(func(st IngestStats) float64 { return float64(st.ReplayEntries) })),
		obs.SamplesFunc("caltrain_ingest_retrains_total",
			"Background index retrain and hot-swap cycles.",
			obs.KindCounter, ing(func(st IngestStats) float64 { return float64(st.Retrains) })),
		obs.SamplesFunc("caltrain_index_drift",
			"Serving backend's appended fraction since its last (re)train.",
			obs.KindGauge, ing(func(st IngestStats) float64 { return st.Drift })),
		obs.SamplesFunc("caltrain_last_snapshot_age_seconds",
			"Seconds since the last snapshot+truncate compaction; absent before the first.",
			obs.KindGauge, func() []obs.Sample {
				if s.ingester == nil {
					return nil
				}
				st := s.ingester.IngestStats()
				if st.LastSnapshotUnix == 0 {
					return nil
				}
				return []obs.Sample{{Value: st.LastSnapshotAgeSeconds}}
			}),
	)
}

// HistogramBin is one cumulative-style latency bucket: Count queries took
// at most LeUS microseconds (the final bin has LeUS == -1, meaning +Inf).
type HistogramBin struct {
	LeUS  int64  `json:"le_us"`
	Count uint64 `json:"count"`
}

// DefaultLatencyBucketsUS is the default latency-bucket upper bounds
// (microseconds), tuned for sub-millisecond in-process index scans. Treat
// it as read-only; pass WithLatencyBuckets to change a service's bounds.
var DefaultLatencyBucketsUS = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10_000, 25_000, 50_000, 100_000}

// Histogram is a fixed-bucket latency histogram with lock-free atomic
// counters, safe for concurrent Observe and Bins.
type Histogram struct {
	boundsUS []int64
	counts   []atomic.Uint64 // len(boundsUS) + overflow
	sumUS    atomic.Int64
}

// NewHistogram creates a histogram with the given bucket upper bounds
// (microseconds). Bounds are sorted, deduplicated, and stripped of
// non-positive values; nil or empty falls back to
// DefaultLatencyBucketsUS.
func NewHistogram(boundsUS []int64) *Histogram {
	cleaned := make([]int64, 0, len(boundsUS))
	for _, b := range boundsUS {
		if b > 0 {
			cleaned = append(cleaned, b)
		}
	}
	if len(cleaned) == 0 {
		cleaned = append(cleaned, DefaultLatencyBucketsUS...)
	}
	sort.Slice(cleaned, func(i, j int) bool { return cleaned[i] < cleaned[j] })
	dedup := cleaned[:1]
	for _, b := range cleaned[1:] {
		if b != dedup[len(dedup)-1] {
			dedup = append(dedup, b)
		}
	}
	return &Histogram{boundsUS: dedup, counts: make([]atomic.Uint64, len(dedup)+1)}
}

// Observe records one duration in the owning bucket and the sum.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	h.sumUS.Add(us)
	for i, b := range h.boundsUS {
		if us <= b {
			h.counts[i].Add(1)
			return
		}
	}
	h.counts[len(h.boundsUS)].Add(1)
}

// SumUS returns the sum of all observed durations in microseconds.
func (h *Histogram) SumUS() int64 { return h.sumUS.Load() }

// Bins snapshots the histogram as cumulative-style buckets, the overflow
// bucket (LeUS == -1) last.
func (h *Histogram) Bins() []HistogramBin {
	out := make([]HistogramBin, len(h.boundsUS)+1)
	for i, b := range h.boundsUS {
		out[i] = HistogramBin{LeUS: b, Count: h.counts[i].Load()}
	}
	out[len(h.boundsUS)] = HistogramBin{LeUS: -1, Count: h.counts[len(h.boundsUS)].Load()}
	return out
}

// PromHistogram converts the per-bucket /stats bins (microsecond
// bounds, overflow bin LeUS == -1 last) into the cumulative
// seconds-based snapshot the Prometheus exposition requires.
func PromHistogram(bins []HistogramBin, sumUS int64) obs.HistogramSnapshot {
	snap := obs.HistogramSnapshot{Sum: float64(sumUS) / 1e6}
	var cum uint64
	for _, b := range bins {
		cum += b.Count
		if b.LeUS == -1 {
			continue
		}
		snap.Buckets = append(snap.Buckets, obs.Bucket{UpperBound: float64(b.LeUS) / 1e6, Count: cum})
	}
	snap.Count = cum
	return snap
}

// MergeBins sums histogram bins across services bucket-by-bucket — how a
// router rolls shard-reported latency histograms into one aggregate. Sets
// with differing bounds merge into the union of bounds, each count kept
// at its own upper bound: the "at most LeUS" reading stays true, but a
// count from a coarser histogram keeps its coarse bound rather than
// being redistributed (sub-bound resolution cannot be recovered). The
// roll-up is exact when every service shares one bounds configuration —
// run all shard daemons of a deployment with the same -latency-buckets.
// The overflow bucket (LeUS == -1) stays last.
func MergeBins(sets ...[]HistogramBin) []HistogramBin {
	byBound := make(map[int64]uint64)
	for _, set := range sets {
		for _, bin := range set {
			byBound[bin.LeUS] += bin.Count
		}
	}
	bounds := make([]int64, 0, len(byBound))
	for b := range byBound {
		if b != -1 {
			bounds = append(bounds, b)
		}
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i] < bounds[j] })
	out := make([]HistogramBin, 0, len(bounds)+1)
	for _, b := range bounds {
		out = append(out, HistogramBin{LeUS: b, Count: byBound[b]})
	}
	out = append(out, HistogramBin{LeUS: -1, Count: byBound[-1]})
	return out
}
