package serve

import (
	"flag"
	"fmt"
	"slices"
	"strings"

	"caltrain/internal/fingerprint"
)

// Flags are an overlay on Config: the daemons bind each serving knob's
// flag straight into the Config field it sets, so the flag path and the
// -deployment file path meet in one value and share Config.Deployment /
// Config.RouterPlan, and with them Deployment's one validation. The
// binders below cover the flags more than one binary declares.

// ResolveConfig picks the one Config a daemon runs from: the flag-bound
// overlay or, when path names a -deployment file, that file whole. The
// file declares the entire topology, so a flag given alongside it would
// silently lose to (or fight with) the file: any flag but those process
// allows — the ones saying where the process runs — is a conflict,
// reported by name.
func ResolveConfig(fs *flag.FlagSet, overlay Config, path string, process map[string]bool) (Config, error) {
	if path == "" {
		return overlay, nil
	}
	if conflict := firstGiven(fs, func(name string) bool { return !process[name] }); conflict != "" {
		return Config{}, fmt.Errorf("-%s conflicts with -deployment: the config file declares the topology", conflict)
	}
	return LoadConfig(path)
}

// FlagGiven returns the first (in sorted order) of the named flags that
// was set on fs's command line, "" when none was — how a daemon decides
// which optional blocks (wal, replication, repair, tracing: presence is
// itself a setting) survive in the overlay, exactly as a config file
// would spell them, and which flag to name in a conflict.
func FlagGiven(fs *flag.FlagSet, names ...string) string {
	return firstGiven(fs, func(name string) bool { return slices.Contains(names, name) })
}

func firstGiven(fs *flag.FlagSet, match func(name string) bool) string {
	var given string
	fs.Visit(func(f *flag.Flag) {
		if given == "" && match(f.Name) {
			given = f.Name
		}
	})
	return given
}

// BindBackendFlags binds the index training and search flags (-nlist
// -nprobe -iters -seed -pq-m) into b. caltrain-serve and caltrain-shard
// share it, so an index trained offline and one trained at daemon
// startup get the same knobs and the same -seed default.
func BindBackendFlags(fs *flag.FlagSet, b *BackendConfig) {
	fs.IntVar(&b.Nlist, "nlist", 0, "IVF/IVFPQ lists per label (0 = auto ≈√n)")
	fs.IntVar(&b.Nprobe, "nprobe", 0, "IVF/IVFPQ lists probed per query (0 = auto)")
	fs.IntVar(&b.Iters, "iters", 0, "IVF/IVFPQ k-means iterations (0 = default)")
	fs.Uint64Var(&b.Seed, "seed", 42, "IVF/IVFPQ training seed")
	fs.IntVar(&b.M, "pq-m", 0, "IVFPQ subquantizers (code bytes per entry, must divide the fingerprint dim; 0 = auto)")
}

// BindLimitFlags binds the request bounds both serving daemons enforce
// (-max-body -max-batch -latency-buckets) into l; bucketsUsage is the
// daemon's own help text for its latency histogram.
func BindLimitFlags(fs *flag.FlagSet, l *LimitsConfig, bucketsUsage string) {
	fs.Int64Var(&l.MaxBodyBytes, "max-body", fingerprint.DefaultMaxBodyBytes, "request body size limit in bytes (0 = default)")
	fs.IntVar(&l.MaxBatch, "max-batch", fingerprint.DefaultMaxBatch, "queries per batch request limit (0 = default)")
	fs.Var((*durationList)(&l.LatencyBuckets), "latency-buckets", bucketsUsage)
}

// BindObservabilityFlags binds the logging and tracing flags both
// serving daemons take (-request-log -slow-query-threshold
// -trace-sample-rate -trace-store -trace-slow) into o. It allocates
// o.Trace to bind into; like every optional block, the caller drops it
// again when none of its flags was given.
func BindObservabilityFlags(fs *flag.FlagSet, o *ObservabilityConfig) {
	fs.BoolVar(&o.RequestLog, "request-log", false, "log one structured line per request: request ID, trace ID, status, duration, stage timings")
	fs.Var(&o.SlowQueryThreshold, "slow-query-threshold", "warn about requests slower than this, even without -request-log (0 = disabled)")
	rate := 1.0
	o.Trace = &TraceConfig{SampleRate: &rate}
	fs.Float64Var(o.Trace.SampleRate, "trace-sample-rate", rate, "head-sampling probability for request traces, in [0,1] (0 = keep only slow/error traces)")
	fs.IntVar(&o.Trace.StoreSize, "trace-store", 0, "in-memory trace store size behind /v1/debug/traces (0 = default, negative = no retention)")
	fs.Var(&o.Trace.SlowAlways, "trace-slow", "always store traces slower than this, even when not head-sampled (0 = disabled)")
}

// durationList is the flag form of a []Duration field: a
// comma-separated list of unit-carrying durations ("100us,1ms,10ms").
type durationList []Duration

func (l *durationList) Set(s string) error {
	*l = nil
	if s == "" {
		return nil
	}
	for _, part := range strings.Split(s, ",") {
		var d Duration
		if err := d.Set(strings.TrimSpace(part)); err != nil {
			return err
		}
		*l = append(*l, d)
	}
	return nil
}

func (l *durationList) String() string { return fmt.Sprint([]Duration(*l)) }
