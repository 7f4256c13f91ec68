package fingerprint

import (
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"caltrain/internal/obs"
)

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
	out.Entries, out.Dim, out.Index, out.Ingest = sr.Len(), sr.Dim(), sr.Kind(), s.ingestStats()
	for _, part := range s.metrics.Collect(ResidentBytesMetric) {
		if out.LinkageResidentBytes == nil {
			out.LinkageResidentBytes = make(map[string]int64)
		}
		out.LinkageResidentBytes[part.Labels[0].Value] = int64(part.Value)
	}
	return out
}

// buildMetrics assembles the daemon's Prometheus registry: the Front's
// shared families plus the serving backend's size and the write path's
// stats, which a read-only daemon's scrape leaves out.
func (s *Service) buildMetrics() *obs.Registry {
	entries := obs.GaugeFunc("caltrain_entries",
		"Entries in the serving backend.",
		func() float64 { return float64(s.Searcher().Len()) })
	return s.front.Registry(append([]*obs.Family{entries}, obs.Fields(s.ingestStats)...)...)
}

// ingestStats reads the write path's stats, nil on a read-only daemon.
func (s *Service) ingestStats() *IngestStats {
	if s.ingester == nil {
		return nil
	}
	st := s.ingester.IngestStats()
	return &st
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
