package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/ingest"
)

// Config is the file form of a Deployment: one JSON document declares
// the complete serving topology — backend, sharding, durability,
// limits — so an operator ships a config file instead of N flag sets
// (caltrain-serve -deployment config.json). Deployment translates it
// into the in-memory Deployment the daemons and the facade build.
//
//	{
//	  "backend": {"kind": "ivf", "nlist": 64, "nprobe": 8},
//	  "shards": 4,
//	  "replicas_per_shard": 2,
//	  "wal": {"dir": "wal/", "fsync": "interval", "fsync_every": "50ms"},
//	  "limits": {"max_k": 256, "max_batch": 128}
//	}
//
// Unknown fields are rejected, so a typo'd knob fails at startup
// instead of silently serving defaults.
type Config struct {
	// Backend selects the index backend; the zero value means flat.
	Backend BackendConfig `json:"backend"`
	// Shards >1 builds the in-process sharded router; see Deployment.Shards.
	Shards int `json:"shards,omitempty"`
	// ReplicasPerShard replicates each shard; see Deployment.ReplicasPerShard.
	ReplicasPerShard int `json:"replicas_per_shard,omitempty"`
	// WAL enables the durable write path; see WALConfig.
	WAL *WALFileConfig `json:"wal,omitempty"`
	// VolatileWrites enables the non-durable write path when WAL is
	// absent; see Deployment.VolatileWrites.
	VolatileWrites bool `json:"volatile_writes,omitempty"`
	// Limits bounds request sizes on every built query service.
	Limits *LimitsConfig `json:"limits,omitempty"`
	// Observability tunes metrics, request logging, and the debug
	// listener; see ObsFileConfig.
	Observability *ObsFileConfig `json:"observability,omitempty"`
	// Replication enables the self-healing sync state machine on a
	// single-service WAL deployment; see ReplicationFileConfig.
	Replication *ReplicationFileConfig `json:"replication,omitempty"`
	// Topology is the routed-topology block consumed by caltrain-router
	// -deployment; it conflicts with every daemon-shape field. See
	// TopologyConfig.
	Topology *TopologyConfig `json:"topology,omitempty"`
}

// ReplicationFileConfig is the replication block of a daemon config:
//
//	"replication": {"peer": "replica-a:8791"}
//
// It requires a wal block (the WAL is the replication transport) and a
// single-service shape. With a peer, the daemon syncs from it at
// startup (snapshot bootstrap or WAL catchup) before accepting external
// writes; without one, the daemon only serves the /v1/repl/* source
// endpoints and syncs when a repair nudge names a peer.
type ReplicationFileConfig struct {
	// Peer is the sync source base URL — normally another replica of the
	// same shard. Empty means source-only until nudged.
	Peer string `json:"peer,omitempty"`
}

// TopologyConfig is the routed-topology block of a deployment config —
// the caltrain-router shape, where the shards live in other processes:
//
//	"topology": {
//	  "map": "shards/shardmap.ctsm",
//	  "shards": {"0": ["replica-a:9000", "replica-b:9000"], "1": ["replica-c:9001"]},
//	  "write_quorum": 1,
//	  "repair": {"after": "15s"}
//	}
type TopologyConfig struct {
	// Map is the shard map file written by caltrain-shard (required).
	Map string `json:"map"`
	// Shards maps shard ID → replica base URLs in preference order; a
	// bare host:port defaults to http. Every shard in the map must be
	// listed (required).
	Shards map[string][]string `json:"shards"`
	// WriteQuorum is how many replicas of a shard must acknowledge an
	// ingest batch (0 = majority).
	WriteQuorum int `json:"write_quorum,omitempty"`
	// Timeout bounds each shard call; Cooldown is the base cooldown for
	// a failed replica. Zero keeps the router defaults.
	Timeout  Duration `json:"timeout,omitempty"`
	Cooldown Duration `json:"cooldown,omitempty"`
	// ResponseCache keeps up to N hot single-query responses at the
	// router (0 = off).
	ResponseCache int `json:"response_cache,omitempty"`
	// Repair enables the anti-entropy repair loop; see RepairFileConfig.
	Repair *RepairFileConfig `json:"repair,omitempty"`
}

// RepairFileConfig is the repair block of a topology config: presence
// enables the router's anti-entropy loop (degraded replicas are driven
// through a /v1/repl/sync resync and readmitted). Zero fields keep the
// shard.Default* repair values.
type RepairFileConfig struct {
	// After is the degradation streak that triggers a repair.
	After Duration `json:"after,omitempty"`
	// Interval is the health scan period.
	Interval Duration `json:"interval,omitempty"`
	// SyncTimeout bounds one repair attempt end to end.
	SyncTimeout Duration `json:"sync_timeout,omitempty"`
}

// BackendConfig names and tunes the index backend in a Config. Kind is
// resolved through ParseBackend — the same single string-to-backend
// seam the -backend flag uses.
type BackendConfig struct {
	// Kind is "linear", "flat", "ivf", or "ivfpq" ("" means flat).
	Kind string `json:"kind"`
	// IVF training and search knobs (ivf and ivfpq; zero = auto
	// defaults).
	Nlist  int    `json:"nlist,omitempty"`
	Nprobe int    `json:"nprobe,omitempty"`
	Iters  int    `json:"iters,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// M is the ivfpq subquantizer count (code bytes per entry); it must
	// divide the fingerprint dimensionality. Zero picks the largest of
	// {16, 8, 4, 2, 1} that does.
	M int `json:"m,omitempty"`
}

// Spec resolves the block into the BackendSpec it declares, through
// ParseBackend ("" means flat).
func (b BackendConfig) Spec() (BackendSpec, error) {
	kind := b.Kind
	if kind == "" {
		kind = "flat"
	}
	return ParseBackend(kind, index.IVFPQOptions{
		IVFOptions: index.IVFOptions{Nlist: b.Nlist, Nprobe: b.Nprobe, Iters: b.Iters, Seed: b.Seed},
		M:          b.M,
	})
}

// WALFileConfig is the file form of WALConfig plus the WAL tuning the
// daemon otherwise takes as -fsync/-wal-segment-bytes/-drift-threshold.
type WALFileConfig struct {
	// Dir is the write-ahead log directory (required).
	Dir string `json:"dir"`
	// Fsync is the WAL sync policy: "always" (default), "interval", or
	// "never".
	Fsync string `json:"fsync,omitempty"`
	// FsyncEvery is the flush period under the interval policy
	// (default 50ms).
	FsyncEvery Duration `json:"fsync_every,omitempty"`
	// SegmentBytes rotates WAL segments past this size (default 64 MiB).
	SegmentBytes int64 `json:"segment_bytes,omitempty"`
	// DriftThreshold is the appended fraction that triggers a background
	// retrain + hot-swap of an approximate backend; nil means the ingest
	// default, negative disables. An explicit 0 is rejected (the ingest
	// layer would silently read it as the default).
	DriftThreshold *float64 `json:"drift_threshold,omitempty"`
}

// LimitsConfig bounds request sizes, the file form of the service
// limit options. Zero fields keep the service defaults.
type LimitsConfig struct {
	MaxBodyBytes int64 `json:"max_body_bytes,omitempty"`
	MaxK         int   `json:"max_k,omitempty"`
	MaxBatch     int   `json:"max_batch,omitempty"`
	// LatencyBuckets replaces the /stats histogram bounds, each a
	// duration string ("100us", "1ms", …), ascending.
	LatencyBuckets []Duration `json:"latency_buckets,omitempty"`
}

// ObsFileConfig is the file form of ObservabilityConfig: the
// observability block of a deployment config.
//
//	"observability": {
//	  "request_log": true,
//	  "slow_query_threshold": "250ms",
//	  "debug_addr": "localhost:6060"
//	}
type ObsFileConfig struct {
	// Metrics serves GET /v1/metrics when true — the default; an
	// explicit false removes the endpoint from the public handler.
	Metrics *bool `json:"metrics,omitempty"`
	// RequestLog emits one structured log line per request.
	RequestLog bool `json:"request_log,omitempty"`
	// SlowQueryThreshold warns about requests slower than this
	// ("250ms"); omitted or 0 disables the slow-query log.
	SlowQueryThreshold Duration `json:"slow_query_threshold,omitempty"`
	// DebugAddr is the host:port of the pprof/expvar/trace sidecar
	// listener ("localhost:6060"); empty keeps it closed.
	DebugAddr string `json:"debug_addr,omitempty"`
	// Tracing tunes distributed tracing; see TraceFileConfig. Omitted
	// means the defaults: every request sampled into a default-sized
	// store.
	Tracing *TraceFileConfig `json:"tracing,omitempty"`
}

// TraceFileConfig is the tracing block of an observability config:
//
//	"tracing": {
//	  "sample_rate": 0.05,
//	  "store": 512,
//	  "slow_always": "100ms"
//	}
type TraceFileConfig struct {
	// SampleRate is the head-sampling probability in [0, 1]. Omitted
	// means 1 (sample everything); an explicit 0 keeps only slow/error
	// traces.
	SampleRate *float64 `json:"sample_rate,omitempty"`
	// Store bounds the in-memory trace store behind /v1/debug/traces;
	// omitted or 0 means the default, negative disables retention.
	Store int `json:"store,omitempty"`
	// SlowAlways stores any trace slower than this even when head
	// sampling passed it by ("100ms"); omitted or 0 disables.
	SlowAlways Duration `json:"slow_always,omitempty"`
}

// maxTraceStore bounds observability.tracing.store: the trace store
// allocates its ring up front, so an absurd size must fail at startup
// as a config error, not as an allocation panic.
const maxTraceStore = 1 << 20

// observability translates the observability block for either
// translation; an absent block is the zero ObservabilityConfig, never
// nil, so callers fill in the process-local parts (logger, debug
// address) without a nil dance.
func (c Config) observability() (*ObservabilityConfig, error) {
	if c.Observability == nil {
		return &ObservabilityConfig{}, nil
	}
	return c.Observability.config()
}

// config validates the block and translates it into the in-memory
// ObservabilityConfig. Negative thresholds and unparseable listen
// addresses are rejected rather than silently ignored — an operator
// who wrote one believes it is in effect.
func (o ObsFileConfig) config() (*ObservabilityConfig, error) {
	if o.SlowQueryThreshold < 0 {
		return nil, fmt.Errorf("serve: observability.slow_query_threshold must be non-negative (0 disables the slow-query log), got %s", o.SlowQueryThreshold)
	}
	if o.DebugAddr != "" {
		if _, _, err := net.SplitHostPort(o.DebugAddr); err != nil {
			return nil, fmt.Errorf("serve: observability.debug_addr must be host:port: %w", err)
		}
	}
	cfg := &ObservabilityConfig{
		DisableMetrics:     o.Metrics != nil && !*o.Metrics,
		RequestLog:         o.RequestLog,
		SlowQueryThreshold: time.Duration(o.SlowQueryThreshold),
		DebugAddr:          o.DebugAddr,
	}
	if o.Tracing != nil {
		tc := &TraceConfig{SampleRate: 1}
		if o.Tracing.SampleRate != nil {
			if r := *o.Tracing.SampleRate; r < 0 || r > 1 {
				return nil, fmt.Errorf("serve: observability.tracing.sample_rate must be in [0, 1], got %v", r)
			}
			tc.SampleRate = *o.Tracing.SampleRate
		}
		if o.Tracing.SlowAlways < 0 {
			return nil, fmt.Errorf("serve: observability.tracing.slow_always must be non-negative (0 disables), got %s", o.Tracing.SlowAlways)
		}
		if o.Tracing.Store > maxTraceStore {
			return nil, fmt.Errorf("serve: observability.tracing.store must be at most %d traces, got %d", maxTraceStore, o.Tracing.Store)
		}
		tc.StoreSize = o.Tracing.Store
		tc.SlowAlways = time.Duration(o.Tracing.SlowAlways)
		cfg.Trace = tc
	}
	return cfg, nil
}

// Duration is a time.Duration that marshals as a duration string
// ("50ms") in config files and parses the same string as a flag value.
// Bare numbers are rejected: nanoseconds are never what an operator
// means, and silently reading "fsync_every": 50 as 50ns would busy-loop
// the flush timer — a unit must be spelled out.
type Duration time.Duration

// Set implements flag.Value.
func (d *Duration) Set(s string) error {
	parsed, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(parsed)
	return nil
}

// String implements flag.Value and fmt.Stringer.
func (d Duration) String() string { return time.Duration(d).String() }

// UnmarshalJSON implements json.Unmarshaler.
func (d *Duration) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("serve: duration must be a string with a unit, like \"50ms\" (got %s)", b)
	}
	if err := d.Set(s); err != nil {
		return fmt.Errorf("serve: bad duration %q: %w", s, err)
	}
	return nil
}

// MarshalJSON implements json.Marshaler.
func (d Duration) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.String())
}

// ParseConfig decodes a deployment config, rejecting unknown fields so
// a misspelled knob fails loudly at startup.
func ParseConfig(r io.Reader) (Config, error) {
	var c Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return Config{}, fmt.Errorf("serve: parse deployment config: %w", err)
	}
	// Trailing garbage after the document is a truncated or concatenated
	// file, not a config.
	if dec.More() {
		return Config{}, fmt.Errorf("serve: parse deployment config: trailing data after document")
	}
	return c, nil
}

// LoadConfig reads and parses a deployment config file.
func LoadConfig(path string) (Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return Config{}, err
	}
	defer f.Close()
	return ParseConfig(f)
}

// Deployment translates the config into the Deployment it declares,
// validating every field (backend kind, fsync policy, latency bounds).
func (c Config) Deployment() (Deployment, error) {
	if c.Topology != nil {
		return Deployment{}, fmt.Errorf("serve: topology is the router's block (caltrain-router -deployment); a daemon config declares backend/wal/replication")
	}
	spec, err := c.Backend.Spec()
	if err != nil {
		return Deployment{}, err
	}
	if c.Shards < 0 {
		return Deployment{}, fmt.Errorf("serve: shards must be non-negative, got %d", c.Shards)
	}
	if c.ReplicasPerShard < 0 {
		return Deployment{}, fmt.Errorf("serve: replicas_per_shard must be non-negative, got %d", c.ReplicasPerShard)
	}
	if c.ReplicasPerShard > 1 && c.Shards <= 1 {
		return Deployment{}, fmt.Errorf("serve: replicas_per_shard needs shards > 1 (a single service has no replicas)")
	}
	dep := Deployment{
		Backend:          spec,
		Shards:           c.Shards,
		ReplicasPerShard: c.ReplicasPerShard,
		VolatileWrites:   c.VolatileWrites,
	}
	if c.Limits != nil {
		opts, err := c.Limits.options()
		if err != nil {
			return Deployment{}, err
		}
		dep.Limits = opts
	}
	if dep.Observability, err = c.observability(); err != nil {
		return Deployment{}, err
	}
	if c.WAL != nil {
		if c.VolatileWrites {
			return Deployment{}, fmt.Errorf("serve: wal and volatile_writes contradict each other: a write path is durable or it is not")
		}
		if c.WAL.Dir == "" {
			return Deployment{}, fmt.Errorf("serve: wal.dir is required when wal is set")
		}
		if c.WAL.FsyncEvery < 0 || c.WAL.SegmentBytes < 0 {
			// The ingest layer would quietly normalize these to defaults;
			// an operator who wrote one believes it is enforced.
			return Deployment{}, fmt.Errorf("serve: wal.fsync_every and wal.segment_bytes must be non-negative (0 means default)")
		}
		fsync := c.WAL.Fsync
		if fsync == "" {
			fsync = "always"
		}
		policy, err := ingest.ParseSyncPolicy(fsync)
		if err != nil {
			return Deployment{}, err
		}
		store := ingest.Options{
			WAL: ingest.WALOptions{
				Sync:         policy,
				SyncEvery:    time.Duration(c.WAL.FsyncEvery),
				SegmentBytes: c.WAL.SegmentBytes,
			},
		}
		if c.WAL.DriftThreshold != nil {
			// The ingest layer reads 0 as "use the default", which would
			// silently override an explicit 0 here — make the operator say
			// what they mean.
			if *c.WAL.DriftThreshold == 0 {
				return Deployment{}, fmt.Errorf("serve: wal.drift_threshold 0 is ambiguous: omit it for the default, use a negative value to disable retrains, or a small positive fraction")
			}
			store.DriftThreshold = *c.WAL.DriftThreshold
		}
		dep.WAL = &WALConfig{Dir: c.WAL.Dir, Store: store}
	}
	if c.Replication != nil {
		if dep.WAL == nil {
			return Deployment{}, fmt.Errorf("serve: replication requires a wal block — the WAL is the replication transport")
		}
		if c.Shards > 1 {
			return Deployment{}, fmt.Errorf("serve: replication applies to a single-service daemon; in a routed topology each shard process carries its own replication block")
		}
		dep.Replication = &ReplicationConfig{Peer: c.Replication.Peer}
	}
	return dep, nil
}

// bounds is the one range check of the limits block, shared by the
// daemon and router translations: negative limits are rejected rather
// than silently falling back to defaults — an operator who wrote one
// believes it is enforced — and latency_buckets go through the one
// bucket parser (each positive; returned ascending, nil when unset).
func (l LimitsConfig) bounds() ([]int64, error) {
	if l.MaxBodyBytes < 0 || l.MaxK < 0 || l.MaxBatch < 0 {
		return nil, fmt.Errorf("serve: limits must be non-negative (max_body_bytes %d, max_k %d, max_batch %d; 0 means default)",
			l.MaxBodyBytes, l.MaxK, l.MaxBatch)
	}
	if len(l.LatencyBuckets) == 0 {
		return nil, nil
	}
	ss := make([]string, len(l.LatencyBuckets))
	for i, d := range l.LatencyBuckets {
		ss[i] = d.String()
	}
	return fingerprint.ParseLatencyBuckets(strings.Join(ss, ","))
}

// options translates the limit fields into service options; zero
// fields keep the service defaults.
func (l LimitsConfig) options() ([]fingerprint.ServiceOption, error) {
	buckets, err := l.bounds()
	if err != nil {
		return nil, err
	}
	var opts []fingerprint.ServiceOption
	if l.MaxBodyBytes > 0 {
		opts = append(opts, fingerprint.WithMaxBodyBytes(l.MaxBodyBytes))
	}
	if l.MaxK > 0 {
		opts = append(opts, fingerprint.WithMaxK(l.MaxK))
	}
	if l.MaxBatch > 0 {
		opts = append(opts, fingerprint.WithMaxBatch(l.MaxBatch))
	}
	if buckets != nil {
		opts = append(opts, fingerprint.WithLatencyBuckets(buckets))
	}
	return opts, nil
}
