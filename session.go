package caltrain

import (
	"fmt"
	"math/rand/v2"
	"net/http"

	"caltrain/internal/assess"
	"caltrain/internal/attest"
	"caltrain/internal/core"
	"caltrain/internal/fingerprint"
	"caltrain/internal/nn"
	"caltrain/internal/partition"
	"caltrain/internal/tensor"
	"caltrain/internal/trojan"
)

func assessNew(model, oracle *Network, opts ExposureOptions) *assess.Framework {
	return assess.New(model, oracle, opts)
}

// Session drives one complete CalTrain collaborative-training cycle
// through its three stages (Figure 2 of the paper): training,
// fingerprinting, and query.
//
// The zero value is not usable; construct with NewSession, then
// AddParticipant, Train, Fingerprint, and QueryHandler in that order.
type Session struct {
	cfg          SessionConfig
	authority    *attest.Authority
	authorityPub []byte
	server       *core.TrainingServer
	participants []*Participant
	fps          *core.FingerprintService
	db           *fingerprint.DB
	history      []EpochStats
}

// EpochStats records one training epoch's outcome.
type EpochStats struct {
	Epoch    int
	MeanLoss float64
}

// NewSession creates the training server (enclave, attestation
// infrastructure) for the given consensus config.
func NewSession(cfg SessionConfig) (*Session, error) {
	authority, err := attest.NewAuthority()
	if err != nil {
		return nil, err
	}
	authorityPub, err := authority.PublicKey()
	if err != nil {
		return nil, err
	}
	server, err := core.NewTrainingServer(cfg, authority)
	if err != nil {
		return nil, err
	}
	return &Session{
		cfg:          cfg,
		authority:    authority,
		authorityPub: authorityPub,
		server:       server,
	}, nil
}

// AddParticipant registers a participant: it attests the training enclave
// against the independently computed expected measurement, provisions the
// participant's key, and ingests their sealed records. It returns how many
// records the enclave accepted.
func (s *Session) AddParticipant(p *Participant) (accepted int, err error) {
	expected, err := core.ExpectedTrainingMeasurement(s.cfg)
	if err != nil {
		return 0, err
	}
	if err := p.Provision(s.server, s.authorityPub, expected); err != nil {
		return 0, fmt.Errorf("caltrain: provision %s: %w", p.ID, err)
	}
	batch, err := p.SealRecords()
	if err != nil {
		return 0, err
	}
	accepted, _, err = s.server.Ingest(batch)
	if err != nil {
		return 0, err
	}
	s.participants = append(s.participants, p)
	return accepted, nil
}

// Train runs the configured number of epochs of partitioned confidential
// training and returns the per-epoch loss history.
func (s *Session) Train() ([]EpochStats, error) {
	for e := 0; e < s.cfg.Epochs; e++ {
		loss, err := s.server.TrainEpoch()
		if err != nil {
			return nil, fmt.Errorf("caltrain: epoch %d: %w", e+1, err)
		}
		s.history = append(s.history, EpochStats{Epoch: len(s.history) + 1, MeanLoss: loss})
	}
	return s.history, nil
}

// TrainEpoch runs a single epoch (for callers interleaving training with
// per-epoch exposure assessment and repartitioning).
func (s *Session) TrainEpoch() (EpochStats, error) {
	loss, err := s.server.TrainEpoch()
	if err != nil {
		return EpochStats{}, err
	}
	st := EpochStats{Epoch: len(s.history) + 1, MeanLoss: loss}
	s.history = append(s.history, st)
	return st, nil
}

// WarmStart initializes the session's model from a previously released
// network, supplied by a registered participant (it travels sealed under
// their provisioned key). Refinement rounds — continuing training on new
// submissions instead of starting from fresh weights — use this.
func (s *Session) WarmStart(p *Participant, net *Network) error {
	blob, err := p.SealModelSync(net)
	if err != nil {
		return err
	}
	return s.server.ImportFull(p.ID, blob)
}

// Repartition moves the FrontNet/BackNet boundary between epochs, after
// the participants reach consensus on a new split from their assessment
// results (§IV-B).
func (s *Session) Repartition(split int) error {
	return s.server.Trainer().Repartition(split)
}

// Split returns the current FrontNet size.
func (s *Session) Split() int { return s.server.Trainer().Split() }

// Release produces the model release for one registered participant:
// BackNet in the clear, FrontNet sealed under their provisioned key.
func (s *Session) Release(participantID string) (*ReleasedModel, error) {
	return s.server.ReleaseModel(participantID)
}

// Evaluate reports top-1/top-k accuracy of the current model state on a
// labeled dataset. It is a harness convenience: in a deployment only
// participants evaluate, on their own released models.
func (s *Session) Evaluate(ds *Dataset, k int) (top1, topK float64, err error) {
	in, labels := ds.Batch(0, ds.Len())
	return s.server.Trainer().Evaluate(in, labels, k)
}

// Fingerprint runs the fingerprinting stage: a dedicated enclave receives
// the trained model over the local-attestation channel, each participant
// attests it and re-provisions their key, re-submits sealed records, and
// the linkage database is built in-enclave and exported.
func (s *Session) Fingerprint() (*LinkageDB, error) {
	fps, err := core.NewFingerprintService(s.server.Device(), s.cfg.Model, s.authority, s.cfg.EPCSize)
	if err != nil {
		return nil, err
	}
	blob, err := s.server.ExportModelFor(fps.Measurement())
	if err != nil {
		return nil, err
	}
	if err := fps.LoadModel(blob, s.server.Measurement()); err != nil {
		return nil, err
	}
	expected, err := core.ExpectedFingerprintMeasurement(s.cfg.Model)
	if err != nil {
		return nil, err
	}
	for _, p := range s.participants {
		if err := p.Provision(fps, s.authorityPub, expected); err != nil {
			return nil, fmt.Errorf("caltrain: fingerprint provision %s: %w", p.ID, err)
		}
		batch, err := p.SealRecords()
		if err != nil {
			return nil, err
		}
		if _, _, err := fps.Fingerprint(batch); err != nil {
			return nil, err
		}
	}
	s.fps = fps
	s.db, err = fps.ExportDB()
	if err != nil {
		return nil, err
	}
	return s.db, nil
}

// QueryService returns the accountability query service over the
// session's linkage database. Fingerprint must have been called first.
// By default queries run on an exact Flat index snapshot of the database;
// pass options to select another backend (WithIVFBackend for approximate
// search at scale, WithLinearBackend for the reference scan, or
// WithBackendSpec for any custom BackendSpec) or to bound request sizes
// (WithServiceOptions). The service is read-only; IngestService adds
// the durable write path.
func (s *Session) QueryService(opts ...QueryHandlerOption) (*QueryService, error) {
	if err := s.checkServable(); err != nil {
		return nil, err
	}
	built, err := s.deployment(opts).Build(s.db)
	if err != nil {
		return nil, err
	}
	return built.Service(), nil
}

// deployment translates QueryHandler options into the declarative
// Deployment every Session serving constructor builds through. The
// caller must still check s.db (deployment cannot build over nil).
func (s *Session) deployment(opts []QueryHandlerOption) Deployment {
	cfg := queryHandlerConfig{spec: FlatSpec{}}
	for _, o := range opts {
		o(&cfg)
	}
	return Deployment{Backend: cfg.spec, Limits: cfg.svc}
}

// checkServable guards every serving constructor: the linkage database
// exists only after Fingerprint.
func (s *Session) checkServable() error {
	if s.db == nil {
		return fmt.Errorf("caltrain: run Fingerprint before serving queries")
	}
	return nil
}

// QueryHandler returns the HTTP handler of the accountability query
// service over the session's linkage database. Fingerprint must have been
// called first. Options select and tune the index backend; see
// QueryService.
func (s *Session) QueryHandler(opts ...QueryHandlerOption) (http.Handler, error) {
	svc, err := s.QueryService(opts...)
	if err != nil {
		return nil, err
	}
	return svc.Handler(), nil
}

// IngestService returns the accountability query service over the
// session's linkage database with the durable write path enabled: new
// linkages POSTed to /ingest are CRC-framed into a write-ahead log at
// walDir before they are applied to the database and appended into the
// serving index, so acknowledged writes survive a crash (reopen with
// the same walDir to replay). IVF backends retrain and hot-swap in the
// background once appends drift past opts.DriftThreshold. Fingerprint
// must have been called first.
//
// The returned store is the service's write path: Snapshot compacts the
// WAL once the database is persisted, Close flushes it. The linear
// backend (WithLinearBackend) ingests with no index append at all; Flat
// stays exact under appends; IVF trades recall for append speed until
// its background retrain.
func (s *Session) IngestService(walDir string, iopts IngestOptions, opts ...QueryHandlerOption) (*QueryService, *IngestStore, error) {
	if err := s.checkServable(); err != nil {
		return nil, nil, err
	}
	dep := s.deployment(opts)
	dep.WAL = &WALConfig{Dir: walDir, Store: iopts}
	built, err := dep.Build(s.db)
	if err != nil {
		return nil, nil, err
	}
	return built.Service(), built.Store(), nil
}

// IngestHandler returns the HTTP handler of an ingest-enabled query
// service (see IngestService) plus its write path store — keep the
// store to Snapshot and Close it.
func (s *Session) IngestHandler(walDir string, iopts IngestOptions, opts ...QueryHandlerOption) (http.Handler, *IngestStore, error) {
	svc, store, err := s.IngestService(walDir, iopts, opts...)
	if err != nil {
		return nil, nil, err
	}
	return svc.Handler(), store, nil
}

// RouterHandler returns the HTTP handler of a sharded accountability
// deployment built in-process from the session's linkage database: the
// database is hash-split across nshards shards, each served by its own
// query service over the configured index backend, behind a
// scatter-gather router speaking the single-daemon protocol. The
// deployment carries the write path: POST /ingest routes each new
// linkage to the shard owning its label, where an IngestStore without a
// log applies it and retrains an approximate backend past the drift
// threshold. Nothing is logged, so writes are lost on restart — back
// the topology with IngestService-style WAL stores, or run the real
// caltrain-router, when they must survive one. Fingerprint must have
// been called first.
//
// This is the one-process model of the production topology
// (caltrain-shard + N×caltrain-serve + caltrain-router); use it to
// exercise routing semantics, or as the serving handler on a machine
// where per-shard daemons are not worth their operational cost. With
// nshards below 2 it serves a single (unsharded) query service.
func (s *Session) RouterHandler(nshards int, opts ...QueryHandlerOption) (http.Handler, error) {
	if err := s.checkServable(); err != nil {
		return nil, err
	}
	dep := s.deployment(opts)
	dep.Shards = nshards
	dep.VolatileWrites = true
	built, err := dep.Build(s.db)
	if err != nil {
		return nil, err
	}
	return built.Handler(), nil
}

// queryHandlerConfig collects QueryHandler option state.
type queryHandlerConfig struct {
	spec BackendSpec
	svc  []ServiceOption
}

// QueryHandlerOption configures Session.QueryHandler / QueryService.
type QueryHandlerOption func(*queryHandlerConfig)

// WithLinearBackend serves queries with the reference linear scan over
// the live database (no snapshot; new Add calls are visible).
func WithLinearBackend() QueryHandlerOption {
	return func(c *queryHandlerConfig) { c.spec = LinearSpec{} }
}

// WithFlatBackend serves queries with the exact Flat index (the default).
func WithFlatBackend() QueryHandlerOption {
	return func(c *queryHandlerConfig) { c.spec = FlatSpec{} }
}

// WithIVFBackend serves queries with the approximate IVF index.
func WithIVFBackend(opts IVFOptions) QueryHandlerOption {
	return func(c *queryHandlerConfig) { c.spec = IVFSpec{IVFOptions: opts} }
}

// WithIVFPQBackend serves queries with the product-quantized IVF index
// — IVF accuracy knobs plus the M memory knob, ~4·dim/M times smaller
// than the float backends.
func WithIVFPQBackend(opts IVFPQOptions) QueryHandlerOption {
	return func(c *queryHandlerConfig) { c.spec = IVFPQSpec{IVFPQOptions: opts} }
}

// WithBackendSpec serves queries with any BackendSpec — the seam where
// a future backend (PQ, HNSW, a custom Searcher) plugs into every
// Session serving constructor without facade changes.
func WithBackendSpec(spec BackendSpec) QueryHandlerOption {
	return func(c *queryHandlerConfig) { c.spec = spec }
}

// WithServiceOptions forwards limits to the underlying query service.
func WithServiceOptions(opts ...ServiceOption) QueryHandlerOption {
	return func(c *queryHandlerConfig) { c.svc = append(c.svc, opts...) }
}

// DB returns the linkage database built by Fingerprint (nil before).
func (s *Session) DB() *LinkageDB { return s.db }

// QueryFingerprint computes the fingerprint and predicted label of one
// input under a released model — what a model user does with a
// misprediction before querying the linkage database.
func QueryFingerprint(net *Network, image []float32) (Fingerprint, int, error) {
	return core.QueryFingerprint(net, image)
}

// AssessExposure runs the dual-network information-exposure assessment of
// a model against an oracle using the given probe images, returning the
// per-layer KL divergence report (§IV-B / Experiment II). Participants
// run this locally on semi-trained checkpoints with their private data.
func AssessExposure(model, oracle *Network, probes *Dataset, nProbes int, opts ExposureOptions) (*ExposureReport, error) {
	if nProbes > probes.Len() {
		nProbes = probes.Len()
	}
	in, _ := probes.Batch(0, nProbes)
	return assessNew(model, oracle, opts).Assess(in)
}

// Classify returns the top-k classes for every record of ds under net —
// a convenience for example programs.
func Classify(net *Network, ds *Dataset, k int) ([][]int, error) {
	in, _ := ds.Batch(0, ds.Len())
	return net.Classify(&nn.Context{Mode: tensor.Accelerated}, in, k)
}

// Accuracy returns top-1 and top-k accuracy of net on ds.
func Accuracy(net *Network, ds *Dataset, k int) (top1, topK float64, err error) {
	in, labels := ds.Batch(0, ds.Len())
	probs, err := net.Predict(&nn.Context{Mode: tensor.Accelerated}, in)
	if err != nil {
		return 0, 0, err
	}
	return partition.TopKAccuracy(probs, labels, k)
}

// BuildModel constructs a network from a config with a seeded weight
// initialization.
func BuildModel(cfg ModelConfig, seed uint64) (*Network, error) {
	return nn.Build(cfg, rand.New(rand.NewPCG(seed, seed^0x5eed)))
}

// TrainLocal fits a model on a dataset outside any enclave — the
// "non-protected environment" baseline of Experiment I, and the victim
// model of the Trojaning attack.
func TrainLocal(net *Network, ds *Dataset, epochs, batchSize int, opt SGD, seed uint64) error {
	return trojan.Retrain(net, ds, epochs, batchSize, opt, rand.New(rand.NewPCG(seed, 0x70CA1)))
}

// OptimizeTrigger generates a trojan trigger against a trained model by
// model inversion (for reproducing the §VI-D attack).
func OptimizeTrigger(net *Network, target int, seed uint64) (*Trigger, error) {
	return trojan.OptimizeTrigger(net, target, trojan.Options{}, rand.New(rand.NewPCG(seed, 0x7107)))
}

// PoisonDataset stamps the trigger onto n images drawn from source and
// labels them with the trigger's target class — the malicious
// participant's contribution in the §VI-D experiment.
func PoisonDataset(tr *Trigger, source *Dataset, n int, seed uint64) *Dataset {
	return tr.PoisonFrom(source, n, rand.New(rand.NewPCG(seed, 0xBAD)))
}

// StampDataset returns a copy of ds with every image carrying the
// trigger (labels unchanged) — trojaned test data.
func StampDataset(tr *Trigger, ds *Dataset) *Dataset {
	return tr.StampDataset(ds)
}
