package serve

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"slices"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
)

// Config is a Deployment as a -deployment file spells it: one JSON
// document declares the complete serving topology, so an operator ships
// a config file instead of N flag sets (caltrain-serve -deployment
// config.json). Unknown fields are rejected, so a typo'd knob fails at
// startup instead of silently serving defaults.
//
//	{"backend": {"kind": "ivf", "nprobe": 8}, "shards": 4,
//	 "wal": {"dir": "wal/", "fsync": "interval"}, "limits": {"max_k": 256}}
type Config = Deployment

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
	Peer string `json:"peer,omitempty" flag:"repl-peer" usage:"sync source base URL (another replica of the same shard); implies -repl, and empty means source-only — the daemon syncs from the peer at startup, and a missing -db file is bootstrapped from its snapshot"`
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
	Map string `json:"map" flag:"map" usage:"shard map written by caltrain-shard"`
	// Shards maps shard ID → replica base URLs in preference order; a
	// bare host:port defaults to http. Every shard in the map must be
	// listed (required).
	Shards map[string][]string `json:"shards"`
	// WriteQuorum is how many replicas of a shard must acknowledge an
	// ingest batch (0 = majority).
	WriteQuorum int `json:"write_quorum,omitempty" flag:"write-quorum" usage:"replicas per shard that must ack an ingest batch (0 = majority)"`
	// Timeout bounds each shard call; Cooldown is the base cooldown for
	// a failed replica. Zero keeps the router defaults.
	Timeout  Duration `json:"timeout,omitempty" flag:"timeout" usage:"per-shard call timeout (all replica attempts combined; 0 = default)"`
	Cooldown Duration `json:"cooldown,omitempty" flag:"cooldown" usage:"base cooldown for a failed replica (grows exponentially; 0 = default)"`
	// ResponseCache keeps up to N hot single-query responses at the
	// router (0 = off).
	ResponseCache int `json:"response_cache,omitempty" flag:"response-cache" usage:"cache up to N hot single-query responses at the router, invalidated on writes to the owning shard (0 = off)"`
	// Repair enables the anti-entropy repair loop; see RepairConfig.
	Repair *RepairConfig `json:"repair,omitempty" flag:"repair" usage:"enable the anti-entropy repair loop: drive degraded replicas through a /v1/repl/sync resync from a healthy same-shard peer and readmit them"`
}

// RepairConfig is the repair block of a topology config: presence
// enables the router's anti-entropy loop (degraded replicas are driven
// through a /v1/repl/sync resync and readmitted). Zero fields keep the
// shard.Default* repair values.
type RepairConfig struct {
	// After is the degradation streak that triggers a repair.
	After Duration `json:"after,omitempty" flag:"repair-after" usage:"degradation streak before a repair starts (0 = default; implies -repair)"`
	// Interval is the health scan period.
	Interval Duration `json:"interval,omitempty" flag:"repair-interval" usage:"repair loop health scan period (0 = default; implies -repair)"`
	// SyncTimeout bounds one repair attempt end to end. File only: its
	// 15-minute default is a safety net, not a knob to tune per start.
	SyncTimeout Duration `json:"sync_timeout,omitempty"`
}

// BackendConfig names and tunes the index backend of a Deployment, the
// backend block of a Config and the -backend flag alike; the zero value
// means flat.
type BackendConfig struct {
	// Kind is "flat", "ivf", or "ivfpq" ("" means flat).
	Kind string `json:"kind"`
	// IVF training and search knobs (ivf and ivfpq; zero = auto
	// defaults).
	Nlist  int    `json:"nlist,omitempty" flag:"nlist" usage:"IVF/IVFPQ lists per label (0 = auto ≈√n)"`
	Nprobe int    `json:"nprobe,omitempty" flag:"nprobe" usage:"IVF/IVFPQ lists probed per query (0 = auto)"`
	Iters  int    `json:"iters,omitempty" flag:"iters" usage:"IVF/IVFPQ k-means iterations (0 = default)"`
	Seed   uint64 `json:"seed,omitempty" flag:"seed" usage:"IVF/IVFPQ training seed"`
	// M is the ivfpq subquantizer count (code bytes per entry); it must
	// divide the fingerprint dimensionality. Zero picks the largest of
	// {16, 8, 4, 2, 1} that does.
	M int `json:"m,omitempty" flag:"pq-m" usage:"IVFPQ subquantizers (code bytes per entry, must divide the fingerprint dim; 0 = auto)"`
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
	if !slices.Contains([]string{"flat", "ivf", "ivfpq"}, b.kind()) {
		return refuse("backend.kind", "must be flat, ivf, or ivfpq, got %q", b.Kind)
	}
	return nil
}

// build builds the backend over db: flat an exact index over it, and
// ivf and ivfpq train with the block's knobs (zero = auto defaults; m
// is read by ivfpq only).
func (b BackendConfig) build(db *fingerprint.DB) (fingerprint.Appender, error) {
	ivf := index.IVFOptions{Nlist: b.Nlist, Nprobe: b.Nprobe, Iters: b.Iters, Seed: b.Seed}
	switch b.kind() {
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
func (b BackendConfig) rebuild() func(*fingerprint.DB) (fingerprint.Appender, error) {
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
	Dir string `json:"dir" flag:"wal" usage:"write-ahead log directory; enables POST /ingest (omit -wal for a read-only daemon)"`
	// Fsync is the WAL sync policy: "always" (the default, also when
	// empty), "interval", or "never".
	Fsync string `json:"fsync,omitempty" flag:"fsync" usage:"WAL fsync policy: always, interval, or never"`
	// FsyncEvery is the flush period under the interval policy
	// (0 = 50ms).
	FsyncEvery Duration `json:"fsync_every,omitempty" flag:"fsync-every" usage:"flush period for -fsync interval (0 = default)"`
	// SegmentBytes rotates WAL segments past this size (0 = 64 MiB).
	SegmentBytes int64 `json:"segment_bytes,omitempty" flag:"wal-segment-bytes" usage:"rotate WAL segments past this size (0 = default)"`
	// DriftThreshold is the appended fraction that triggers a background
	// retrain + hot-swap of an approximate backend; nil means the ingest
	// default, negative disables. An explicit 0 is rejected (the ingest
	// layer would silently read it as the default).
	DriftThreshold *float64 `json:"drift_threshold,omitempty" flag:"drift-threshold" usage:"appended fraction that triggers a background IVF retrain + hot-swap (negative disables)"`
	// SnapshotEvery compacts a single service's log into its database
	// file (Deployment.DBFile) this often while it serves; 0 compacts
	// only after the drain. See Server.Serve.
	SnapshotEvery Duration `json:"snapshot_every,omitempty" flag:"snapshot-every" usage:"periodically persist the database to -db and truncate the WAL (0 = only on graceful shutdown)"`
}

// LimitsConfig bounds request sizes on every query service a Deployment
// builds and at its router's door, where max_k has no say. Zero fields
// keep the defaults.
type LimitsConfig struct {
	MaxBodyBytes int64 `json:"max_body_bytes,omitempty" flag:"max-body" usage:"request body size limit in bytes (0 = default)"`
	MaxK         int   `json:"max_k,omitempty"`
	MaxBatch     int   `json:"max_batch,omitempty" flag:"max-batch" usage:"queries per batch request limit (0 = default)"`
	// LatencyBuckets replaces the /stats histogram bounds, each a
	// duration string of at least 1us ("100us", "1ms", …).
	LatencyBuckets []Duration `json:"latency_buckets" flag:"latency-buckets" usage:"comma-separated /stats latency bucket bounds as durations (e.g. 100us,1ms,10ms); empty = the tier's defaults, sub-ms on a daemon and network-scale on a router"`
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
	// removes the endpoint from the public handler. File only: hiding an
	// endpoint is a property of the deployment, not of one start.
	Metrics *bool `json:"metrics,omitempty"`
	// RequestLog emits one structured log line per request — method,
	// path, status, duration, request ID, and per-stage timings.
	RequestLog bool `json:"request_log,omitempty" flag:"request-log" usage:"log one structured line per request: request ID, trace ID, status, duration, stage timings"`
	// SlowQueryThreshold logs a warning for any request slower than
	// this ("250ms"), even when RequestLog is off. 0 disables the
	// slow-query log.
	SlowQueryThreshold Duration `json:"slow_query_threshold,omitempty" flag:"slow-query-threshold" usage:"warn about requests slower than this, even without -request-log (0 = disabled)"`
	// DebugAddr is the host:port a daemon serves net/http/pprof, expvar
	// and /v1/debug/traces on ("localhost:6060") — always a sidecar
	// listener, never the public handler. Empty keeps the debug listener
	// closed. Deployment.Build does not open it; the daemons (and
	// ListenDebug) do. File only: -debug-addr is the process flag that
	// says where one process listens, and wins over this.
	DebugAddr string `json:"debug_addr,omitempty"`
	// Trace tunes distributed tracing. Nil keeps the defaults — every
	// request sampled into a store of obs.DefaultTraceStoreSize traces.
	Trace *TraceConfig `json:"tracing,omitempty" flag:""`
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
	SampleRate *float64 `json:"sample_rate,omitempty" flag:"trace-sample-rate" usage:"head-sampling probability for request traces, in [0,1] (0 = keep only slow/error traces)"`
	// StoreSize bounds the in-memory trace store behind
	// /v1/debug/traces, at most 1<<20 traces; 0 means
	// obs.DefaultTraceStoreSize, negative disables retention.
	StoreSize int `json:"store,omitempty" flag:"trace-store" usage:"in-memory trace store size behind /v1/debug/traces (0 = default, negative = no retention)"`
	// SlowAlways stores any trace slower than this even when head
	// sampling passed it by ("100ms"); 0 disables.
	SlowAlways Duration `json:"slow_always,omitempty" flag:"trace-slow" usage:"always store traces slower than this, even when not head-sampled (0 = disabled)"`
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

// Deployment is c validated as Build validates it, its observability
// block copied (the zero block when absent) for a daemon to fill in the
// process-local parts: logger, debug address.
func (c Config) Deployment() (Deployment, error) {
	var o ObservabilityConfig
	if c.Observability != nil {
		o = *c.Observability
	}
	c.Observability = &o
	if err := c.validate(); err != nil {
		return Deployment{}, err
	}
	return c, nil
}

// KnobError refuses one knob of a deployment, named by its config key;
// By is the block whose presence asks for the knob when it is missing.
// ResolveDeployment words a refusal of flags by the flags given.
type KnobError struct {
	Key, By, Why string
	words        string
}

func (e *KnobError) Error() string { return cmp.Or(e.words, "serve: "+e.Key+" "+e.Why) }

// refuse is the refusal of the knob key, for the reason why.
func refuse(key, why string, args ...any) error {
	return &KnobError{Key: key, Why: fmt.Sprintf(why, args...)}
}

// negative refuses a knob set below zero rather than read it as 0: an
// operator who wrote it believes it is in effect.
func negative[T ~int | ~int64](key string, v T, zero string) error {
	if v < 0 {
		return refuse(key, "must be non-negative (0 %s), got %v", zero, v)
	}
	return nil
}

// validate is the one range check of the limits block, for the daemon
// and the router alike: negative limits are refused, and so is a
// latency bucket under the microsecond the histograms count in. A nil
// block keeps every default.
func (l *LimitsConfig) validate() error {
	if l == nil {
		return nil
	}
	if err := cmp.Or(negative("limits.max_body_bytes", l.MaxBodyBytes, "means the default"),
		negative("limits.max_k", l.MaxK, "means the default"), negative("limits.max_batch", l.MaxBatch, "means the default")); err != nil {
		return err
	}
	for _, d := range l.LatencyBuckets {
		if d < Duration(time.Microsecond) {
			return refuse("limits.latency_buckets", "must each be at least 1us (latency is counted in whole microseconds), got %s", d)
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

// options translates a validated limits block into the request options
// of a daemon's service and a router alike; a nil block and zero fields
// keep the tier's defaults.
func (l *LimitsConfig) options() []fingerprint.FrontOption {
	if l == nil {
		return nil
	}
	var opts []fingerprint.FrontOption
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
