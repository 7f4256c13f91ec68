package obs

import "runtime/metrics"

// RuntimeFamilies is the process-health set both daemons export next to
// their request metrics, read from runtime/metrics at scrape time.
// caltrain_process_resident_bytes ÷ caltrain_entries is the live
// resident-bytes-per-linkage figure the bench reports as rss_setup_mb.
func RuntimeFamilies() []*Family {
	return []*Family{
		GaugeFunc("caltrain_process_resident_bytes",
			"Memory the Go runtime holds from the OS: mapped and not released back.",
			func() float64 {
				return runtimeValue("/memory/classes/total:bytes") - runtimeValue("/memory/classes/heap/released:bytes")
			}),
		GaugeFunc("caltrain_go_heap_inuse_bytes",
			"Bytes in in-use heap spans: live and not-yet-swept objects plus their spans' free slots.",
			func() float64 {
				return runtimeValue("/memory/classes/heap/objects:bytes") + runtimeValue("/memory/classes/heap/unused:bytes")
			}),
		GaugeFunc("caltrain_go_goroutines",
			"Goroutines that currently exist.",
			func() float64 { return runtimeValue("/sched/goroutines:goroutines") }),
	}
}

// runtimeValue reads one uint64-valued runtime/metrics sample; a name
// this Go version does not export reads as 0.
func runtimeValue(name string) float64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}
