package caltrain

import (
	"fmt"
	"math/rand/v2"

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
// AddParticipant, Train, and Fingerprint in that order. The query stage
// serves the linkage database: Deployment{...}.Build(sess.DB()).
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
