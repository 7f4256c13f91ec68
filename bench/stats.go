package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of an ascending
// slice by nearest rank, or 0 for an empty slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

// median returns the middle value (mean of the two middle values for an
// even count) without reordering vs, or 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// spread is one metric over the timed windows: the median is what the
// benchmark reports, min and max are printed next to it.
type spread struct{ Median, Min, Max float64 }

func spreadOf(vs []float64) spread {
	if len(vs) == 0 {
		return spread{}
	}
	s := spread{Median: median(vs), Min: vs[0], Max: vs[0]}
	for _, v := range vs {
		s.Min, s.Max = min(s.Min, v), max(s.Max, v)
	}
	return s
}

// sample is one completed request as the client saw it.
type sample struct {
	done    time.Duration // completion time since the phase began
	latency time.Duration
	items   int // queries answered or linkages acked; 0 when failed
	failed  bool
}

// windowStats are the client-side numbers of one window of the timed
// phase.
type windowStats struct {
	requests  int
	itemsPerS float64
	p50ms     float64
}

// windowize splits a phase of the given length into n equal windows by
// completion time and computes each window's throughput and latency
// median. Failed requests count in requests and carry no items; their
// latency still counts, since the caller waited.
// A request still in flight when the phase ended belongs to no window.
func windowize(samples []sample, phase time.Duration, n int) []windowStats {
	lat := make([][]float64, n)
	out := make([]windowStats, n)
	width := phase / time.Duration(n)
	for _, s := range samples {
		w := int(s.done / width)
		if w >= n {
			continue
		}
		out[w].requests++
		out[w].itemsPerS += float64(s.items)
		lat[w] = append(lat[w], float64(s.latency)/float64(time.Millisecond))
	}
	for w := range out {
		out[w].itemsPerS /= width.Seconds()
		sort.Float64s(lat[w])
		out[w].p50ms = percentile(lat[w], 50)
	}
	return out
}

// timeReps runs f reps times and returns the median seconds per call of
// f divided by perCall — f usually loops perCall times over the thing
// being measured, so one timer read covers many short calls.
func timeReps(reps, perCall int, f func()) float64 {
	f() // warm caches and lazy set-up
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = time.Since(t0).Seconds() / float64(perCall)
	}
	return median(ds)
}
