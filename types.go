// Package caltrain is the public API of the CalTrain reproduction: a
// TEE-based centralized collaborative learning system that achieves data
// confidentiality and model accountability simultaneously (Gu et al.,
// "Reaching Data Confidentiality and Model Accountability on the
// CalTrain", DSN 2019).
//
// The package re-exports the building blocks (network configs, datasets,
// fingerprint queries) and provides a Session type that drives the whole
// pipeline: attested key provisioning, encrypted data ingestion,
// partitioned in-enclave training, per-participant model release,
// fingerprint/linkage generation, and the accountability query service.
//
// See examples/quickstart for the shortest end-to-end program.
package caltrain

import (
	"context"
	"io"
	"net"
	"net/http"

	"caltrain/internal/assess"
	"caltrain/internal/core"
	"caltrain/internal/dataset"
	"caltrain/internal/fingerprint"
	"caltrain/internal/hub"
	"caltrain/internal/index"
	"caltrain/internal/ingest"
	"caltrain/internal/nn"
	"caltrain/internal/obs"
	"caltrain/internal/serve"
	"caltrain/internal/sgx"
	"caltrain/internal/shard"
	"caltrain/internal/trojan"
)

// Model configuration types.
type (
	// ModelConfig describes a network architecture.
	ModelConfig = nn.Config
	// LayerSpec describes one layer of a ModelConfig.
	LayerSpec = nn.LayerSpec
	// SGD holds optimizer hyperparameters.
	SGD = nn.SGD
	// Network is a built neural network.
	Network = nn.Network
)

// Data types.
type (
	// Dataset is an in-memory labeled image collection.
	Dataset = dataset.Dataset
	// Record is one labeled image.
	Record = dataset.Record
	// Augmentation configures in-enclave data augmentation.
	Augmentation = dataset.Augmentation
)

// Session types.
type (
	// SessionConfig is the pre-training consensus object.
	SessionConfig = core.SessionConfig
	// ReleasedModel is a per-participant model release.
	ReleasedModel = core.ReleasedModel
	// Participant is one collaborative-training party.
	Participant = core.Participant
	// Measurement is an enclave identity.
	Measurement = sgx.Measurement
)

// Accountability types.
type (
	// Fingerprint is a normalized penultimate-layer embedding.
	Fingerprint = fingerprint.Fingerprint
	// Linkage is the 4-tuple Ω = [F, Y, S, H].
	Linkage = fingerprint.Linkage
	// LinkageDB is the queryable linkage database.
	LinkageDB = fingerprint.DB
	// Match is one accountability query result.
	Match = fingerprint.Match
	// Trigger is an optimized trojan patch (for attack reproduction).
	Trigger = trojan.Trigger
)

// Accountability serving types (internal/index, internal/fingerprint).
type (
	// Searcher is a pluggable nearest-neighbour backend for the query
	// service: the LinkageDB itself (exact linear scan), a FlatIndex, or
	// an IVFIndex.
	Searcher = fingerprint.Searcher
	// FlatIndex is the exact heap-select index backend.
	FlatIndex = index.Flat
	// IVFIndex is the approximate inverted-file index backend.
	IVFIndex = index.IVF
	// IVFOptions tunes IVF training and search.
	IVFOptions = index.IVFOptions
	// IVFPQIndex is the product-quantized IVF backend: M code bytes per
	// entry instead of float vectors, scanned by ADC table lookups, the
	// shortlist re-ranked exactly against the database's own rows.
	IVFPQIndex = index.IVFPQ
	// IVFPQOptions tunes IVFPQ training and search (IVFOptions plus the
	// subquantizer count M).
	IVFPQOptions = index.IVFPQOptions
	// QueryService is the HTTP accountability query service (hot-swappable
	// backend, batch queries, stats, graceful Serve).
	QueryService = fingerprint.Service
	// ServiceOption bounds query service request sizes.
	ServiceOption = fingerprint.ServiceOption
	// QueryRequest is one query of a QueryClient batch.
	QueryRequest = fingerprint.QueryRequest
)

// Declarative serving types (internal/serve): one config describes a
// complete topology — backend, sharding, durability, limits — and every
// entry point (Session constructors, the daemons, your own code) builds
// through it.
type (
	// BackendSpec declaratively selects and tunes an index backend; a
	// new backend implements this and plugs into every serving entry
	// point with zero facade changes.
	BackendSpec = serve.BackendSpec
	// LinearSpec is the reference linear scan over the live database.
	LinearSpec = serve.LinearSpec
	// FlatSpec is the exact Flat index snapshot (the default backend).
	FlatSpec = serve.FlatSpec
	// IVFSpec is the approximate IVF index with its training options.
	IVFSpec = serve.IVFSpec
	// IVFPQSpec is the product-quantized IVF index with its training
	// options (~4·dim/M times smaller in memory than IVF/Flat).
	IVFPQSpec = serve.IVFPQSpec
	// PrebuiltSpec serves an already-built (e.g. loaded) backend.
	PrebuiltSpec = serve.PrebuiltSpec
	// Deployment declares a serving topology over one linkage database:
	// backend, shards, replicas, durability, limits. Build assembles it.
	Deployment = serve.Deployment
	// DeploymentServer is a built Deployment: handler, service or
	// router, and the write-path stores.
	DeploymentServer = serve.Server
	// WALConfig enables a Deployment's durable write path.
	WALConfig = serve.WALConfig
	// DeploymentConfig is the JSON file form of a Deployment — what
	// caltrain-serve -deployment loads; see ParseDeploymentConfig.
	DeploymentConfig = serve.Config
	// DeploymentBackendConfig names and tunes the backend in a
	// DeploymentConfig.
	DeploymentBackendConfig = serve.BackendConfig
	// DeploymentWALConfig is the file form of WALConfig.
	DeploymentWALConfig = serve.WALFileConfig
	// DeploymentLimitsConfig is the file form of the service limits.
	DeploymentLimitsConfig = serve.LimitsConfig
	// ConfigDuration is a time.Duration that (un)marshals as a duration
	// string ("50ms") in deployment config files.
	ConfigDuration = serve.Duration
)

// Observability types (internal/obs through the serving layers):
// Prometheus metrics on GET /v1/metrics, distributed request tracing
// with W3C-traceparent propagation, and the pprof/expvar/traces debug
// sidecar.
type (
	// ObservabilityConfig tunes a Deployment's observability — the
	// metrics endpoint, request and slow-query logging, tracing, and the
	// debug listener address.
	ObservabilityConfig = serve.ObservabilityConfig
	// DeploymentObsConfig is the file form of ObservabilityConfig: the
	// "observability" block of a DeploymentConfig.
	DeploymentObsConfig = serve.ObsFileConfig
	// ObservabilityOptions is the per-handler form the service and
	// router options WithObservability / WithRouterObservability take.
	ObservabilityOptions = fingerprint.Observability
	// BuildInfo identifies the serving binary — Go version, VCS
	// revision — on GET /v1/meta and the caltrain_build_info metric.
	BuildInfo = obs.BuildInfo
	// RequestTrace carries a request's span tree through a context; see
	// TraceFromContext.
	RequestTrace = obs.Trace
	// MetricsRegistry is a hand-rolled, dependency-free Prometheus
	// text-format registry — what backs every /v1/metrics endpoint.
	MetricsRegistry = obs.Registry
)

// Distributed-tracing types (internal/obs): hierarchical spans recorded
// per request, head-sampled, kept in a bounded in-memory store behind
// GET /v1/debug/traces on the debug sidecar, and propagated across
// processes W3C-traceparent-style so a routed query forms one trace.
type (
	// Span is one timed operation in a request's trace; see StartSpan.
	// Every method is nil-safe.
	Span = obs.Span
	// SpanContext is the wire form of a span's position in its trace —
	// trace ID, span ID, sampled flag — as carried by the traceparent
	// header.
	SpanContext = obs.SpanContext
	// Tracer owns a deployment's sampling decisions and trace retention.
	Tracer = obs.Tracer
	// TracerOptions configures a Tracer: head-sampling rate, store size,
	// and the always-keep slow threshold.
	TracerOptions = obs.TracerOptions
	// TraceStore is the bounded in-memory ring of finished traces behind
	// GET /v1/debug/traces, with keep-lanes for the slowest and errored.
	TraceStore = obs.TraceStore
	// TraceSnapshot is one finished trace as stored and served: root
	// name, duration, status, and the span tree.
	TraceSnapshot = obs.TraceSnapshot
	// SpanSnapshot is one finished span of a TraceSnapshot.
	SpanSnapshot = obs.SpanSnapshot
	// TraceConfig is the Deployment form of TracerOptions — the
	// Observability.Trace block.
	TraceConfig = serve.TraceConfig
	// DeploymentTraceConfig is the file form of TraceConfig: the
	// "tracing" block of a DeploymentObsConfig.
	DeploymentTraceConfig = serve.TraceFileConfig
)

// NewTracer creates a Tracer. The zero TracerOptions head-samples
// nothing and keeps the default-sized store; a nil *Tracer is valid and
// records nothing.
func NewTracer(opts TracerOptions) *Tracer { return obs.NewTracer(opts) }

// StartSpan starts a child span of the context's current span (or of
// the request's root) and returns the context to pass to downstream
// work. End the span when the operation finishes; on a context with no
// trace it returns a nil Span, whose methods are all no-ops.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return obs.StartSpan(ctx, name)
}

// Observability options, forwarded from the serving layers.
var (
	// WithObservability tunes a query service's observability (request
	// logging, slow-query threshold, metrics on/off).
	WithObservability = fingerprint.WithObservability
	// WithRouterObservability is the router form of WithObservability.
	WithRouterObservability = shard.WithObservability
)

// NewDebugHandler returns the pprof + expvar handler the daemons serve
// on -debug-addr; a non-nil store additionally serves the stored traces
// at GET /v1/debug/traces and /v1/debug/traces/{id}. Mount it on a
// private sidecar listener only — never on the public serving address.
func NewDebugHandler(store *TraceStore) http.Handler { return obs.DebugHandler(store) }

// ListenDebug opens the debug sidecar: NewDebugHandler served on its
// own listener at addr. Pass a built Deployment's TraceStore() (or nil
// for no trace endpoint); close the returned listener to stop it.
func ListenDebug(addr string, store *TraceStore) (net.Listener, error) {
	return serve.ListenDebug(addr, store)
}

// NewRequestID returns a fresh request ID in the form the X-Request-Id
// middleware generates.
func NewRequestID() string { return obs.NewRequestID() }

// ContextWithRequestID returns a context carrying a request trace with
// the given ID. A QueryClient call made with this context forwards the
// ID as X-Request-Id, so one ID ties the client call to every daemon's
// logs along the serving tree.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithTrace(ctx, obs.NewTrace(id))
}

// TraceFromContext returns the context's request trace, or nil (every
// RequestTrace method is nil-safe).
func TraceFromContext(ctx context.Context) *RequestTrace { return obs.TraceFrom(ctx) }

// LintMetrics validates a Prometheus text-format exposition (as served
// by GET /v1/metrics): name syntax, HELP/TYPE pairing, duplicate and
// negative samples, histogram bucket monotonicity.
func LintMetrics(r io.Reader) error { return obs.Lint(r) }

// ParseDeploymentConfig decodes a JSON deployment config (rejecting
// unknown fields); call Deployment() on the result to translate it into
// the Deployment it declares.
func ParseDeploymentConfig(r io.Reader) (DeploymentConfig, error) {
	return serve.ParseConfig(r)
}

// LoadDeploymentConfig reads and parses a deployment config file.
func LoadDeploymentConfig(path string) (DeploymentConfig, error) {
	return serve.LoadConfig(path)
}

// Versioned wire protocol types (GET /v1/meta, structured errors).
type (
	// ServiceMeta is the GET /v1/meta response: server version, protocol,
	// backend kind, and capability discovery.
	ServiceMeta = fingerprint.MetaResponse
	// ServiceCapabilities advertises a deployment's write path and
	// topology on /v1/meta.
	ServiceCapabilities = fingerprint.MetaCapabilities
	// ErrorEnvelope is the structured {code, error, details} body every
	// non-200 response on the wire protocol carries.
	ErrorEnvelope = fingerprint.ErrorEnvelope
	// APIError is the typed form of a rejected client call: HTTP status,
	// stable envelope code, message. Branch with errors.As or ErrorCodeOf
	// instead of matching message text.
	APIError = fingerprint.APIError
)

// Stable wire-protocol error codes carried by ErrorEnvelope and
// APIError.
const (
	// ErrCodeBadRequest marks an undecodable, empty, or invalid request.
	ErrCodeBadRequest = fingerprint.ErrCodeBadRequest
	// ErrCodeBodyTooLarge marks a request body over the service limit.
	ErrCodeBodyTooLarge = fingerprint.ErrCodeBodyTooLarge
	// ErrCodeLimitExceeded marks a k or batch size over the service limit.
	ErrCodeLimitExceeded = fingerprint.ErrCodeLimitExceeded
	// ErrCodeMethodNotAllowed marks the wrong HTTP method on a known route.
	ErrCodeMethodNotAllowed = fingerprint.ErrCodeMethodNotAllowed
	// ErrCodeNotFound marks an unknown route.
	ErrCodeNotFound = fingerprint.ErrCodeNotFound
	// ErrCodeIngestDisabled marks a write against a read-only deployment.
	ErrCodeIngestDisabled = fingerprint.ErrCodeIngestDisabled
	// ErrCodeShardUnreachable marks a query whose owning shard has no
	// live replica.
	ErrCodeShardUnreachable = fingerprint.ErrCodeShardUnreachable
	// ErrCodeInternal marks a server-side fault.
	ErrCodeInternal = fingerprint.ErrCodeInternal
)

// ErrorCodeOf returns the stable wire-protocol code carried by a client
// error (one of the ErrCode constants), or "" for transport faults,
// cancellations, and nil.
func ErrorCodeOf(err error) string { return fingerprint.CodeOf(err) }

// ParseBackendSpec maps a backend's wire/flag name ("linear", "flat",
// "ivf", "ivfpq") to its Spec — the single string-to-backend seam;
// everything downstream holds a BackendSpec. opts carries every
// tunable; the exact backends ignore it.
func ParseBackendSpec(kind string, opts IVFPQOptions) (BackendSpec, error) {
	return serve.ParseBackend(kind, opts)
}

// Serialized-format failure sentinels, shared by every loader
// (LoadLinkageDB, LoadIndex, LoadShardMap, WAL replay). Branch with
// errors.Is instead of matching message text.
var (
	// ErrVersionMismatch marks a file written by an incompatible format
	// version.
	ErrVersionMismatch = fingerprint.ErrVersionMismatch
	// ErrCorrupt marks a file that fails structural validation.
	ErrCorrupt = fingerprint.ErrCorrupt
)

// Online ingest types (internal/ingest): the durable write path that
// lets a serving deployment absorb new linkages while answering
// queries.
type (
	// IngestStore is the write path of one daemon: batches are logged
	// (fsynced per policy; a store opened without a log directory skips
	// this), applied to the database and the appendable index, replayed
	// on restart, and compacted with Snapshot. It implements Ingester.
	IngestStore = ingest.Store
	// IngestOptions configures an IngestStore (WAL tuning, drift
	// threshold, background-retrain rebuild hook).
	IngestOptions = ingest.Options
	// WALOptions tunes the write-ahead log (fsync policy, segment size).
	WALOptions = ingest.WALOptions
	// WALSyncPolicy selects when the WAL fsyncs.
	WALSyncPolicy = ingest.SyncPolicy
	// Ingester is the pluggable write path behind a query service's
	// POST /ingest.
	Ingester = fingerprint.Ingester
	// IngestEntry is one linkage in an ingest batch (wire form).
	IngestEntry = fingerprint.IngestEntry
	// IngestResponse reports an ingest batch's outcome, including
	// per-shard quorum failures on a routed write.
	IngestResponse = fingerprint.IngestResponse
	// IngestStats is the write-path block of a /stats response.
	IngestStats = fingerprint.IngestStats
)

// WAL fsync policies.
const (
	// WALSyncAlways fsyncs every batch before acknowledging it.
	WALSyncAlways = ingest.SyncAlways
	// WALSyncInterval fsyncs on a background timer.
	WALSyncInterval = ingest.SyncInterval
	// WALSyncNever leaves syncing to the OS.
	WALSyncNever = ingest.SyncNever
)

// OpenIngestStore attaches a WAL at dir to a database and its serving
// backend (the database itself, a FlatIndex, or an IVFIndex), replaying
// any entries the database snapshot does not cover. An empty dir opens
// the same store without a log: writes apply and retrain alike but do
// not survive a restart, and Snapshot refuses. Wire the returned store
// into a query service with WithIngester (or QueryService.SetIngester)
// to expose POST /ingest.
func OpenIngestStore(dir string, db *LinkageDB, s Searcher, opts IngestOptions) (*IngestStore, error) {
	return ingest.Open(dir, db, s, opts)
}

// WithIngester enables a query service's write path.
var WithIngester = fingerprint.WithIngester

// NewFlatIndex builds an exact Flat index from a snapshot of db.
func NewFlatIndex(db *LinkageDB) *FlatIndex { return index.NewFlat(db) }

// TrainIVFIndex trains an approximate IVF index from a snapshot of db.
func TrainIVFIndex(db *LinkageDB, opts IVFOptions) (*IVFIndex, error) {
	return index.TrainIVF(db, opts)
}

// TrainIVFPQIndex trains a product-quantized IVF index from a snapshot
// of db.
func TrainIVFPQIndex(db *LinkageDB, opts IVFPQOptions) (*IVFPQIndex, error) {
	return index.TrainIVFPQ(db, opts)
}

// SaveIndex serializes a Flat, IVF, or IVFPQ index.
func SaveIndex(w io.Writer, s Searcher) error { return index.Save(w, s) }

// LoadIndex reads an index saved with SaveIndex as the index of db, the
// database it was built over (or a database that has grown since): each
// entry is checked against db, and the entries db holds past the file's
// are appended.
func LoadIndex(r io.Reader, db *LinkageDB) (Searcher, error) { return index.Load(r, db) }

// IndexRecall measures recall@k of an approximate backend against an
// exact one on the given queries (labels[i] is query i's class).
func IndexRecall(exact, approx Searcher, queries []Fingerprint, labels []int, k int) (float64, error) {
	return index.Recall(exact, approx, queries, labels, k)
}

// Query service limits, forwarded from internal/fingerprint.
var (
	// WithMaxBodyBytes bounds the accepted request body size.
	WithMaxBodyBytes = fingerprint.WithMaxBodyBytes
	// WithMaxK bounds the per-query neighbour count.
	WithMaxK = fingerprint.WithMaxK
	// WithMaxBatch bounds the number of queries per batch request.
	WithMaxBatch = fingerprint.WithMaxBatch
	// WithLatencyBuckets replaces the /stats latency histogram bucket
	// bounds (microseconds) — pass network-scale bounds when the service
	// fronts remote callers.
	WithLatencyBuckets = fingerprint.WithLatencyBuckets
)

// Distributed accountability serving types (internal/shard): one linkage
// database label-sharded across daemons behind a scatter-gather router.
type (
	// ShardMap deterministically assigns class labels to shards; the
	// splitter, every shard daemon, and the router share one serialized
	// map so ownership always agrees.
	ShardMap = shard.Map
	// ShardStrategy selects hash or range label assignment.
	ShardStrategy = shard.Strategy
	// ShardRouter fans batch queries out to label-sharded daemons and
	// gathers per-query top-k results, degrading to partial responses
	// when shards are unreachable. It serves the single-daemon protocol.
	ShardRouter = shard.Router
	// ShardRouterOption tunes router timeouts, limits, and cooldowns.
	ShardRouterOption = shard.RouterOption
	// ShardReplica is one serving endpoint of a shard (HTTP or local).
	ShardReplica = shard.Replica
)

// Shard assignment strategies.
const (
	// ShardByHash assigns labels by FNV-1a hash.
	ShardByHash = shard.StrategyHash
	// ShardByRange assigns contiguous label ranges.
	ShardByRange = shard.StrategyRange
)

// Router tuning knobs, forwarded from internal/shard.
var (
	// WithShardTimeout bounds each per-shard call of a routed batch.
	WithShardTimeout = shard.WithShardTimeout
	// WithReplicaCooldown sets the failed-replica retry cooldown base.
	WithReplicaCooldown = shard.WithReplicaCooldown
	// WithRouterMaxBatch bounds queries per routed batch request.
	WithRouterMaxBatch = shard.WithRouterMaxBatch
	// WithRouterMaxBodyBytes bounds the routed request body size.
	WithRouterMaxBodyBytes = shard.WithRouterMaxBodyBytes
	// WithRouterLatencyBuckets replaces the router histogram bounds.
	WithRouterLatencyBuckets = shard.WithRouterLatencyBuckets
	// WithRouterResponseCache caches up to N hot single-query responses
	// at the router, invalidated by writes to the owning shard (0 = off).
	WithRouterResponseCache = shard.WithRouterResponseCache
	// WithWriteQuorum sets how many replicas of a shard must acknowledge
	// a routed ingest batch (0 = majority).
	WithWriteQuorum = shard.WithWriteQuorum
	// WithRouterIngestCapability sets whether the router's GET /v1/meta
	// advertises a write path (default true; a router over external
	// daemons cannot see their -wal configuration).
	WithRouterIngestCapability = shard.WithIngestCapability
)

// NewHashShardMap creates a hash-sharded label assignment over nshards.
func NewHashShardMap(nshards int) (*ShardMap, error) { return shard.NewHashMap(nshards) }

// NewRangeShardMap creates a range-sharded assignment from ascending
// shard start boundaries.
func NewRangeShardMap(starts []int64) (*ShardMap, error) { return shard.NewRangeMap(starts) }

// SaveShardMap serializes a shard map (versioned, like SaveIndex).
func SaveShardMap(w io.Writer, m *ShardMap) error { return m.Save(w) }

// LoadShardMap deserializes a map saved with SaveShardMap.
func LoadShardMap(r io.Reader) (*ShardMap, error) { return shard.LoadMap(r) }

// SplitDB partitions a linkage database into per-shard databases
// according to the map — the in-process equivalent of caltrain-shard.
func SplitDB(db *LinkageDB, m *ShardMap) ([]*LinkageDB, error) { return shard.SplitDB(db, m) }

// NewShardRouter creates a scatter-gather router; replicas[i] lists
// shard i's endpoints in preference order.
func NewShardRouter(m *ShardMap, replicas [][]ShardReplica, opts ...ShardRouterOption) (*ShardRouter, error) {
	return shard.NewRouter(m, replicas, opts...)
}

// NewHTTPShardReplica points a router at a shard daemon (caltrain-serve)
// over HTTP. httpClient may be nil for http.DefaultClient.
func NewHTTPShardReplica(baseURL string, httpClient *http.Client) ShardReplica {
	return shard.NewHTTPReplica(baseURL, httpClient)
}

// NewLocalShardReplica serves a shard from an in-process query service,
// no network hop — how Session.RouterHandler shards.
func NewLocalShardReplica(name string, svc *QueryService) ShardReplica {
	return shard.NewLocalReplica(name, svc)
}

// Assessment types.
type (
	// ExposureReport is a per-layer information-exposure assessment.
	ExposureReport = assess.Report
	// ExposureOptions tunes assessment cost.
	ExposureOptions = assess.Options
)

// TableI returns the paper's 10-layer CIFAR-10 architecture (Appendix A,
// Table I). scale divides filter counts; 1 is the exact paper network.
func TableI(scale int) ModelConfig { return nn.TableI(scale) }

// TableII returns the paper's 18-layer CIFAR-10 architecture (Appendix A,
// Table II).
func TableII(scale int) ModelConfig { return nn.TableII(scale) }

// FaceNet returns the face-recognition architecture used by the
// accountability experiments (the VGG-Face stand-in).
func FaceNet(identities, embedDim, scale int) ModelConfig {
	return nn.FaceNet(identities, embedDim, scale)
}

// DefaultSGD returns the optimizer defaults used by the experiment
// harness.
func DefaultSGD() SGD { return nn.DefaultSGD() }

// DefaultAugmentation returns the in-enclave augmentation defaults.
func DefaultAugmentation() Augmentation { return dataset.DefaultAugmentation() }

// SynthCIFAR generates the CIFAR-10 stand-in dataset (see DESIGN.md §2).
func SynthCIFAR(opts dataset.Options) *Dataset { return dataset.SynthCIFAR(opts) }

// SynthFace generates the VGG-Face stand-in dataset.
func SynthFace(opts dataset.FaceOptions) *Dataset { return dataset.SynthFace(opts) }

// DataOptions configures SynthCIFAR generation.
type DataOptions = dataset.Options

// FaceOptions configures SynthFace generation.
type FaceOptions = dataset.FaceOptions

// NewParticipant creates a collaborative-training participant holding a
// private dataset.
func NewParticipant(id string, data *Dataset, seed uint64) *Participant {
	return core.NewParticipant(id, data, seed)
}

// SaveModel serializes a model (architecture + weights) to w.
func SaveModel(w io.Writer, cfg ModelConfig, net *Network) error { return nn.Save(w, cfg, net) }

// LoadModel deserializes a model saved with SaveModel.
func LoadModel(r io.Reader) (ModelConfig, *Network, error) { return nn.Load(r) }

// NewLinkageDB creates an empty linkage database for fingerprints of the
// given dimensionality.
func NewLinkageDB(dim int) (*LinkageDB, error) { return fingerprint.NewDB(dim) }

// LoadLinkageDB deserializes a linkage database saved with LinkageDB.Save.
func LoadLinkageDB(r io.Reader) (*LinkageDB, error) { return fingerprint.LoadDB(r) }

// NewLinearQueryService returns the accountability query service over a
// linkage database with the reference linear scan backend — the
// zero-setup serving path. Production deployments pick an index via
// Deployment{Backend: ...}.Build or NewSearcherQueryService.
func NewLinearQueryService(db *LinkageDB, opts ...ServiceOption) *QueryService {
	return fingerprint.NewService(db, opts...)
}

// NewQueryService returns the HTTP handler of the accountability query
// service over a linkage database (exact linear scan backend).
//
// Deprecated: use NewLinearQueryService, which returns the *QueryService
// itself (call Handler() for the http.Handler) and matches the shape of
// NewSearcherQueryService and Deployment builds.
func NewQueryService(db *LinkageDB, opts ...ServiceOption) http.Handler {
	return NewLinearQueryService(db, opts...).Handler()
}

// NewSearcherQueryService returns the accountability query service over
// any Searcher backend. The service's backend can be hot-swapped with
// SetSearcher while serving.
func NewSearcherQueryService(s Searcher, opts ...ServiceOption) *QueryService {
	return fingerprint.NewSearcherService(s, opts...)
}

// QueryClient queries a remote accountability service. It also carries
// the write path: Ingest posts new linkages to a daemon's (or router's)
// POST /ingest.
type QueryClient = fingerprint.Client

// IngestClient is the write-side view of the same client: construct
// with NewIngestClient against a -wal daemon or a router.
type IngestClient = fingerprint.Client

// NewIngestClient constructs a client for the ingest endpoint at
// baseURL (a caltrain-serve started with -wal, or a caltrain-router
// whose shard replicas were).
func NewIngestClient(baseURL string) *IngestClient {
	return fingerprint.NewClient(baseURL, nil)
}

// Federation is a hierarchical learning-hub deployment: multiple training
// enclaves with a root aggregation server (§IV-B, Performance).
type Federation = hub.Federation

// FederationConfig configures a Federation.
type FederationConfig = hub.Config

// NewFederation builds a multi-hub confidential training federation.
func NewFederation(cfg FederationConfig) (*Federation, error) { return hub.New(cfg) }

// NewQueryClient constructs a client for the query service at baseURL.
func NewQueryClient(baseURL string) *QueryClient {
	return fingerprint.NewClient(baseURL, nil)
}
