package obs

import (
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
)

// RuntimeFamilies is the process-health set both daemons export next to
// their request metrics, read at scrape time: from runtime/metrics, and
// the peak resident set from /proc/self/status (omitted where that file
// does not exist). caltrain_process_resident_bytes ÷ caltrain_entries is
// the live bytes-per-linkage figure; caltrain_process_peak_resident_bytes
// is the VmHWM the bench sums over a deployment's processes as
// rss_setup_mb.
func RuntimeFamilies() []*Family {
	return []*Family{
		GaugeFunc("caltrain_process_resident_bytes",
			"Memory the Go runtime holds from the OS: mapped and not released back.",
			func() float64 {
				return runtimeValue("/memory/classes/total:bytes") - runtimeValue("/memory/classes/heap/released:bytes")
			}),
		SamplesFunc("caltrain_process_peak_resident_bytes",
			"Peak resident set size of the process since it started (VmHWM).",
			KindGauge, func() []Sample {
				raw, err := os.ReadFile("/proc/self/status")
				if err != nil {
					return nil
				}
				hwm, ok := parseVmHWM(string(raw))
				if !ok {
					return nil
				}
				return []Sample{{Value: hwm}}
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

// parseVmHWM returns the peak resident set in bytes from the content of
// a /proc/<pid>/status file: its "VmHWM: <n> kB" line.
func parseVmHWM(status string) (float64, bool) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, false
			}
			kb, err := strconv.ParseUint(f[0], 10, 64)
			return float64(kb) * 1024, err == nil
		}
	}
	return 0, false
}
