package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"slices"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
)

// Config is the file form of a Deployment: one JSON document declares
// the complete serving topology — backend, sharding, durability,
// limits — so an operator ships a config file instead of N flag sets
// (caltrain-serve -deployment config.json). The blocks are the
// Deployment's own types, so Deployment hands them over and validates
// them where Build does.
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
	WAL *WALConfig `json:"wal,omitempty"`
	// VolatileWrites enables the non-durable write path when WAL is
	// absent; see Deployment.VolatileWrites.
	VolatileWrites bool `json:"volatile_writes,omitempty"`
	// Limits bounds request sizes on every built query service.
	Limits *LimitsConfig `json:"limits,omitempty"`
	// Observability tunes metrics, request logging, and the debug
	// listener; see ObservabilityConfig.
	Observability *ObservabilityConfig `json:"observability,omitempty"`
	// Replication enables the self-healing sync state machine on a
	// single-service WAL deployment; see ReplicationConfig.
	Replication *ReplicationConfig `json:"replication,omitempty"`
	// Topology is the routed-topology block consumed by caltrain-router
	// -deployment; it conflicts with every daemon-shape field. See
	// TopologyConfig.
	Topology *TopologyConfig `json:"topology,omitempty"`
}

// ReplicationConfig is the replication block of a deployment:
//
//	"replication": {"peer": "replica-a:8791"}
//
// It requires a wal block (the WAL is the replication transport) and a
// single-service shape. With a peer, the daemon syncs from it at
// startup (snapshot bootstrap or WAL catchup) before accepting external
// writes; without one, the daemon only serves the /v1/repl/* source
// endpoints and syncs when a repair nudge names a peer.
type ReplicationConfig struct {
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
	// Repair enables the anti-entropy repair loop; see RepairConfig.
	Repair *RepairConfig `json:"repair,omitempty"`
}

// RepairConfig is the repair block of a topology config: presence
// enables the router's anti-entropy loop (degraded replicas are driven
// through a /v1/repl/sync resync and readmitted). Zero fields keep the
// shard.Default* repair values.
type RepairConfig struct {
	// After is the degradation streak that triggers a repair.
	After Duration `json:"after,omitempty"`
	// Interval is the health scan period.
	Interval Duration `json:"interval,omitempty"`
	// SyncTimeout bounds one repair attempt end to end.
	SyncTimeout Duration `json:"sync_timeout,omitempty"`
}

// BackendConfig names and tunes the index backend of a Deployment, the
// backend block of a Config and the -backend flag alike; the zero value
// means flat.
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

// kind is the backend's wire name — what /v1/meta and /v1/stats report.
func (b BackendConfig) kind() string {
	if b.Kind == "" {
		return "flat"
	}
	return b.Kind
}

// validate refuses a kind that names no backend.
func (b BackendConfig) validate() error {
	if !slices.Contains([]string{"linear", "flat", "ivf", "ivfpq"}, b.kind()) {
		return fmt.Errorf("serve: unknown backend kind %q (want linear, flat, ivf, or ivfpq)", b.Kind)
	}
	return nil
}

// build builds the backend over db: the reference linear scan serves
// the live database itself, flat an exact index over it, and ivf and
// ivfpq train with the block's knobs (zero = auto defaults; m is read
// by ivfpq only).
func (b BackendConfig) build(db *fingerprint.DB) (fingerprint.Searcher, error) {
	ivf := index.IVFOptions{Nlist: b.Nlist, Nprobe: b.Nprobe, Iters: b.Iters, Seed: b.Seed}
	switch b.kind() {
	case "linear":
		return db, nil
	case "ivf":
		return index.TrainIVF(db, ivf)
	case "ivfpq":
		return index.TrainIVFPQ(db, index.IVFPQOptions{IVFOptions: ivf, M: b.M})
	}
	return index.NewFlat(db), nil
}

// trains reports whether the backend is trained (ivf, ivfpq): the exact
// backends build in one pass and stay exact under appends.
func (b BackendConfig) trains() bool { return b.kind() == "ivf" || b.kind() == "ivfpq" }

// rebuild is the retrain hook a write path runs for drift-triggered
// background retrains, nil when the backend never needs one.
func (b BackendConfig) rebuild() func(*fingerprint.DB) (fingerprint.Searcher, error) {
	if !b.trains() {
		return nil
	}
	return b.build
}

// WALConfig enables the durable write path of a Deployment: ingest
// batches are CRC-framed into a write-ahead log under Dir before they
// are applied, so acknowledged writes survive a crash. A sharded
// deployment logs per shard replica under Dir/shard-N/replica-M, so a
// rebuild over the same seed database and Dir replays every shard.
// Drift-triggered retrains rebuild through the deployment's backend
// and hot-swap into the built service. An IVF or IVFPQ backend keeps
// its trained index beside each log, so a rebuild over the same
// database and knobs loads it instead of training.
type WALConfig struct {
	// Dir is the write-ahead log directory (required; created if
	// absent).
	Dir string `json:"dir"`
	// Fsync is the WAL sync policy: "always" (the default, also when
	// empty), "interval", or "never".
	Fsync string `json:"fsync,omitempty"`
	// FsyncEvery is the flush period under the interval policy
	// (0 = 50ms).
	FsyncEvery Duration `json:"fsync_every,omitempty"`
	// SegmentBytes rotates WAL segments past this size (0 = 64 MiB).
	SegmentBytes int64 `json:"segment_bytes,omitempty"`
	// DriftThreshold is the appended fraction that triggers a background
	// retrain + hot-swap of an approximate backend; nil means the ingest
	// default, negative disables. An explicit 0 is rejected (the ingest
	// layer would silently read it as the default).
	DriftThreshold *float64 `json:"drift_threshold,omitempty"`
}

// LimitsConfig bounds request sizes on every query service a Deployment
// builds, or at the router's door in a topology config. Zero fields keep
// the defaults.
type LimitsConfig struct {
	MaxBodyBytes int64 `json:"max_body_bytes,omitempty"`
	MaxK         int   `json:"max_k,omitempty"`
	MaxBatch     int   `json:"max_batch,omitempty"`
	// LatencyBuckets replaces the /stats histogram bounds, each a
	// duration string of at least 1us ("100us", "1ms", …).
	LatencyBuckets []Duration `json:"latency_buckets"`
}

// ObservabilityConfig tunes the observability layer of a Deployment:
// the /v1/metrics endpoint, per-request structured logging, the
// slow-query log, and the debug (pprof/expvar) sidecar listener. The
// zero value serves metrics and nothing else — logging is opt-in and
// the debug listener stays closed.
//
//	"observability": {
//	  "request_log": true,
//	  "slow_query_threshold": "250ms",
//	  "debug_addr": "localhost:6060"
//	}
type ObservabilityConfig struct {
	// Metrics serves GET /v1/metrics when nil or true; an explicit false
	// removes the endpoint from the public handler.
	Metrics *bool `json:"metrics,omitempty"`
	// RequestLog emits one structured log line per request — method,
	// path, status, duration, request ID, and per-stage timings.
	RequestLog bool `json:"request_log,omitempty"`
	// SlowQueryThreshold logs a warning for any request slower than
	// this ("250ms"), even when RequestLog is off. 0 disables the
	// slow-query log.
	SlowQueryThreshold Duration `json:"slow_query_threshold,omitempty"`
	// DebugAddr is the host:port a daemon serves net/http/pprof, expvar
	// and /v1/debug/traces on ("localhost:6060") — always a sidecar
	// listener, never the public handler. Empty keeps the debug listener
	// closed. Deployment.Build does not open it; the daemons (and
	// ListenDebug) do.
	DebugAddr string `json:"debug_addr,omitempty"`
	// Trace tunes distributed tracing. Nil keeps the defaults — every
	// request sampled into a store of obs.DefaultTraceStoreSize traces.
	Trace *TraceConfig `json:"tracing,omitempty"`
	// Logger receives the request, slow-query and write-path logs; nil
	// means slog.Default. A process-local part: no file spells it.
	Logger *slog.Logger `json:"-"`
}

// TraceConfig is the tracing block of an ObservabilityConfig:
//
//	"tracing": {
//	  "sample_rate": 0.05,
//	  "store": 512,
//	  "slow_always": "100ms"
//	}
type TraceConfig struct {
	// SampleRate is the head-sampling probability in [0, 1] for traces
	// originating at this deployment. Nil means 1 (sample everything);
	// an explicit 0 keeps only slow/error traces.
	SampleRate *float64 `json:"sample_rate,omitempty"`
	// StoreSize bounds the in-memory trace store behind
	// /v1/debug/traces, at most 1<<20 traces; 0 means
	// obs.DefaultTraceStoreSize, negative disables retention.
	StoreSize int `json:"store,omitempty"`
	// SlowAlways stores any trace slower than this even when head
	// sampling passed it by ("100ms"); 0 disables.
	SlowAlways Duration `json:"slow_always,omitempty"`
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

// Deployment hands every block over as it is to the Deployment it
// declares and runs the validation Deployment.Build runs on it.
func (c Config) Deployment() (Deployment, error) {
	if c.Topology != nil {
		return Deployment{}, fmt.Errorf("serve: topology is the router's block (caltrain-router -deployment); a daemon config declares backend/wal/replication")
	}
	// An absent observability block is the zero block, never nil, so a
	// daemon fills in the process-local parts (logger, debug address)
	// without a nil dance — on its own copy, not the config's.
	var o ObservabilityConfig
	if c.Observability != nil {
		o = *c.Observability
	}
	dep := Deployment{
		Backend:          c.Backend,
		Shards:           c.Shards,
		ReplicasPerShard: c.ReplicasPerShard,
		WAL:              c.WAL,
		VolatileWrites:   c.VolatileWrites,
		Limits:           c.Limits,
		Observability:    &o,
		Replication:      c.Replication,
	}
	if err := dep.validate(); err != nil {
		return Deployment{}, err
	}
	return dep, nil
}

// validate is the one range check of the limits block, for the daemon
// and the router alike: negative limits are rejected rather than
// silently falling back to defaults — an operator who wrote one believes
// it is enforced — and so is a latency bucket under the microsecond the
// histograms count in. A nil block keeps every default.
func (l *LimitsConfig) validate() error {
	if l == nil {
		return nil
	}
	if l.MaxBodyBytes < 0 || l.MaxK < 0 || l.MaxBatch < 0 {
		return fmt.Errorf("serve: limits must be non-negative (max_body_bytes %d, max_k %d, max_batch %d; 0 means default)",
			l.MaxBodyBytes, l.MaxK, l.MaxBatch)
	}
	for _, d := range l.LatencyBuckets {
		if d < Duration(time.Microsecond) {
			return fmt.Errorf("serve: limits.latency_buckets must each be at least 1us (latency is counted in whole microseconds), got %s", d)
		}
	}
	return nil
}

// bucketsUS is latency_buckets as ascending microsecond bounds, nil when
// unset.
func (l *LimitsConfig) bucketsUS() []int64 {
	if len(l.LatencyBuckets) == 0 {
		return nil
	}
	out := make([]int64, len(l.LatencyBuckets))
	for i, d := range l.LatencyBuckets {
		out[i] = time.Duration(d).Microseconds()
	}
	slices.Sort(out)
	return out
}

// options translates a validated limits block into service options; a
// nil block and zero fields keep the service defaults.
func (l *LimitsConfig) options() []fingerprint.ServiceOption {
	if l == nil {
		return nil
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
	if b := l.bucketsUS(); b != nil {
		opts = append(opts, fingerprint.WithLatencyBuckets(b))
	}
	return opts
}
