// Package caltrain is the public API of the CalTrain reproduction: a
// TEE-based centralized collaborative learning system that achieves data
// confidentiality and model accountability simultaneously (Gu et al.,
// "Reaching Data Confidentiality and Model Accountability on the
// CalTrain", DSN 2019).
//
// The package re-exports the building blocks (network configs, datasets,
// fingerprint queries) and provides a Session type that drives the whole
// pipeline: attested key provisioning, encrypted data ingestion,
// partitioned in-enclave training, per-participant model release, and
// fingerprint/linkage generation. A Deployment serves the accountability
// query service over the linkage database the session builds.
//
// See examples/quickstart for the shortest end-to-end program.
package caltrain

import (
	"context"
	"io"

	"caltrain/internal/assess"
	"caltrain/internal/core"
	"caltrain/internal/dataset"
	"caltrain/internal/fingerprint"
	"caltrain/internal/hub"
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

// Accountability serving types (internal/fingerprint).
type (
	// Searcher is a nearest-neighbour backend of the query service: the
	// index a Deployment's BackendConfig builds. The LinkageDB is one
	// too, the exact scan (LinkageDB.Query) the indexes are checked
	// against.
	Searcher = fingerprint.Searcher
	// QueryService is the HTTP accountability query service a
	// single-service Deployment builds (hot-swappable backend, batch
	// queries, stats).
	QueryService = fingerprint.Service
	// QueryRequest is one query of a QueryClient batch.
	QueryRequest = fingerprint.QueryRequest
)

// Declarative serving types (internal/serve): one Deployment describes a
// complete topology — backend, sharding, durability, limits — and the
// daemons and your own code build through it.
type (
	// BackendConfig selects and tunes a Deployment's index backend: Kind
	// "flat" (exact; the zero value), "ivf" or "ivfpq" (approximate,
	// trained with Nlist, Nprobe, Iters, Seed, and for ivfpq M) — the
	// backend block of a -deployment file.
	BackendConfig = serve.BackendConfig
	// LimitsConfig bounds a Deployment's request sizes and sets its
	// latency histogram — the limits block of a -deployment file.
	LimitsConfig = serve.LimitsConfig
	// Deployment declares a serving topology over one linkage database:
	// backend, shards, replicas, durability, limits. Build assembles it;
	// a Session's database is Session.DB once Fingerprint has run.
	Deployment = serve.Deployment
	// DeploymentServer is a built Deployment: handler, service or
	// router, and the write-path stores.
	DeploymentServer = serve.Server
	// WALConfig enables a Deployment's durable write path: the log
	// directory, fsync policy ("always" when empty), segment size, drift
	// threshold and compaction period — the wal block of a -deployment
	// file.
	WALConfig = serve.WALConfig
	// TopologyConfig routes a Deployment to shard daemons in other
	// processes, the caltrain-router shape: the shard map file and each
	// shard's replica addresses — the topology block of a -deployment
	// file. Build it over no database, Build(nil).
	TopologyConfig = serve.TopologyConfig
	// Duration is a time.Duration as a Deployment's blocks hold it
	// (TopologyConfig.Timeout, WALConfig.FsyncEvery, ...): Duration(d)
	// sets one from a time.Duration.
	Duration = serve.Duration
)

// Observability types (internal/obs through the serving layers):
// Prometheus metrics on GET /v1/metrics, request logging, and
// distributed request tracing with W3C-traceparent propagation.
type (
	// ObservabilityConfig tunes a Deployment's observability — the
	// metrics endpoint (Metrics: nil or true serves it, false removes
	// it), request and slow-query logging, tracing, and the debug
	// listener address.
	ObservabilityConfig = serve.ObservabilityConfig
	// TraceConfig tunes a Deployment's tracing — head-sampling rate
	// (nil SampleRate samples every request), trace store size,
	// always-keep slow threshold: the ObservabilityConfig.Trace block.
	TraceConfig = serve.TraceConfig
)

// ContextWithRequestID returns a context carrying a request trace with
// the given ID. A QueryClient call made with this context forwards the
// ID as X-Request-Id, so one ID ties the client call to every daemon's
// logs along the serving tree.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithTrace(ctx, obs.NewTrace(id))
}

// LintMetrics validates a Prometheus text-format exposition (as served
// by GET /v1/metrics): name syntax, HELP/TYPE pairing, duplicate and
// negative samples, histogram bucket monotonicity.
func LintMetrics(r io.Reader) error { return obs.Lint(r) }

// APIError is the typed form of a rejected client call: HTTP status,
// stable envelope code, message. Branch with errors.As or ErrorCodeOf
// instead of matching message text.
type APIError = fingerprint.APIError

// Stable wire-protocol error codes carried by APIError.
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

// Serialized-format failure sentinels, shared by every loader
// (LoadLinkageDB, WAL replay, the daemons' index and shard-map files).
// Branch with errors.Is instead of matching message text.
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
	// IngestStore is the durable write path a Deployment with a
	// WALConfig opens (DeploymentServer.Store): batches are logged
	// (fsynced per policy), applied to the database and the appendable
	// index, replayed on restart, and compacted with Snapshot.
	IngestStore = ingest.Store
	// IngestEntry is one linkage in an ingest batch (wire form).
	IngestEntry = fingerprint.IngestEntry
)

// Distributed accountability serving types (internal/shard): one linkage
// database label-sharded across daemons behind a scatter-gather router.
type (
	// ShardMap deterministically assigns class labels to shards; the
	// splitter, every shard daemon, and the router share one serialized
	// map (ShardMap.Save, TopologyConfig.Map) so ownership always agrees.
	ShardMap = shard.Map
)

// NewHashShardMap creates a hash-sharded label assignment over nshards.
func NewHashShardMap(nshards int) (*ShardMap, error) { return shard.NewHashMap(nshards) }

// SplitDB partitions a linkage database into per-shard databases
// according to the map — the in-process equivalent of caltrain-shard.
func SplitDB(db *LinkageDB, m *ShardMap) ([]*LinkageDB, error) { return shard.SplitDB(db, m) }

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

// QueryClient queries a remote accountability service. It also carries
// the write path: Ingest posts new linkages to a daemon's (or router's)
// POST /ingest.
type QueryClient = fingerprint.Client

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
