package fingerprint

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
)

// Ingester is the pluggable write path behind POST /ingest — the
// counterpart of Searcher on the read side. internal/ingest.Store is
// the production implementation (WAL-backed, durable, drift-aware); the
// service stays read-only when none is configured.
type Ingester interface {
	// IngestBatchCtx durably applies a batch of linkages, all-or-nothing:
	// a validation failure anywhere rejects the whole batch before any
	// entry is logged. It returns the number of entries applied, and
	// records the log write as a "wal_append" stage on ctx's trace.
	IngestBatchCtx(ctx context.Context, ls []Linkage) (int, error)
	// IngestStats reports the write path's counters for /stats.
	IngestStats() IngestStats
}

// IngestStats is the write-path block of a /stats response.
type IngestStats struct {
	// Accepted counts entries durably applied since startup (replayed
	// entries excluded).
	Accepted uint64 `json:"accepted"`
	// WALBytes is the current size of the write-ahead log across all
	// live segments — the operator's cue that a snapshot is overdue.
	WALBytes int64 `json:"wal_bytes"`
	// ReplayEntries counts entries restored from the WAL at startup.
	ReplayEntries uint64 `json:"replay_entries"`
	// LastSnapshotUnix is the Unix time of the last snapshot+truncate
	// compaction, 0 if none has run this process.
	LastSnapshotUnix int64 `json:"last_snapshot_unix"`
	// Retrains counts background index retrain + hot-swap cycles
	// triggered by drift.
	Retrains uint64 `json:"retrains"`
	// Drift is the serving backend's current appended fraction (0 for
	// exact backends).
	Drift float64 `json:"drift"`
	// Segments is the number of live WAL segments.
	Segments int `json:"wal_segments,omitempty"`
	// LastSnapshotAgeSeconds is how long ago the last snapshot ran, 0
	// when none has run this process — the age form of
	// LastSnapshotUnix, so dashboards need no wall-clock math.
	LastSnapshotAgeSeconds float64 `json:"last_snapshot_age_seconds,omitempty"`
}

// WithIngester enables the write path: POST /ingest applies batches
// through ing, and /stats grows an "ingest" block.
func WithIngester(ing Ingester) ServiceOption {
	return func(s *Service) { s.ingester = ing }
}

// SetIngester enables the write path after construction — the daemon
// wiring order is service first (the ingest store hot-swaps through
// it), then the store, then this. Call before serving; it is not
// synchronized against in-flight requests. A replicated deployment
// installs one long-lived Ingester (the cluster Syncer) exactly once
// and swaps stores inside it, so this is never called at runtime.
func (s *Service) SetIngester(ing Ingester) { s.ingester = ing }

// IngestEntry is one linkage in a POST /ingest batch — the write-side
// counterpart of QueryRequest.
type IngestEntry struct {
	Fingerprint []float32 `json:"fingerprint"`
	Label       int       `json:"label"`
	Source      string    `json:"source"`
	// Hash is the hex SHA-256 content digest (64 chars), or empty.
	Hash string `json:"hash,omitempty"`
}

// IngestRequest is the JSON body of a POST /ingest.
type IngestRequest struct {
	Entries []IngestEntry `json:"entries"`
}

// IngestResponse is the JSON body of a POST /ingest reply. A single
// daemon fills Accepted and Entries; a routed ingest (internal/shard)
// additionally reports partial failure, mirroring the read path's
// unreachable_shards degradation.
type IngestResponse struct {
	// Accepted counts entries durably applied (on a routed ingest:
	// acknowledged by a write quorum of their shard's replicas).
	Accepted int `json:"accepted"`
	// Entries is the daemon's total entry count after the batch (0 in
	// routed responses; shards count independently).
	Entries int `json:"entries,omitempty"`
	// Failed counts entries whose owning shard could not reach quorum:
	// they are not durably accepted. A minority of replicas may still
	// have applied them, so a verbatim retry can duplicate entries on
	// those replicas until they are resynced from a snapshot (batch
	// idempotency keys are a known follow-up; see ROADMAP).
	Failed int `json:"failed,omitempty"`
	// FailedShards names the shards that missed quorum ("shard 2").
	FailedShards []string `json:"failed_shards,omitempty"`
	// DegradedReplicas names replicas that missed a batch their shard
	// quorum-acknowledged: they serve stale data until resynced from a
	// snapshot.
	DegradedReplicas []string `json:"degraded_replicas,omitempty"`
	// ShardErrors carries one message per failed shard explaining the
	// failure (quorum shortfall, or a per-daemon validation rejection
	// the router could not pre-check).
	ShardErrors []string `json:"shard_errors,omitempty"`
}

// DecodeIngestEntries converts the wire form of an ingest batch into
// linkages, validating the hex hashes. The dimension, label and source
// checks are ValidateLinkages', run by the Ingester so the whole batch
// is vetted before any entry is logged.
func DecodeIngestEntries(entries []IngestEntry) ([]Linkage, error) {
	ls := make([]Linkage, len(entries))
	for i, e := range entries {
		l := Linkage{F: Fingerprint(e.Fingerprint), Y: e.Label, S: e.Source}
		if e.Hash != "" {
			raw, err := hex.DecodeString(e.Hash)
			if err != nil || len(raw) != 32 {
				return nil, fmt.Errorf("%w: entry %d %q", ErrBadHash, i, e.Hash)
			}
			copy(l.H[:], raw)
		}
		ls[i] = l
	}
	return ls, nil
}

// ErrIngestDisabled is returned by RunIngest on a read-only daemon (no
// Ingester configured).
var ErrIngestDisabled = errors.New("ingest not enabled on this daemon")

// IngestError types a RunIngest error as the reply POST /v1/ingest
// answers it with: the rejection itself when RunIngest refused the
// batch's size, 501 for a read-only daemon, 400 for a batch the daemon
// validated and refused (every replica of its shard would refuse it
// identically), 500 for daemon-side faults (WAL I/O). A
// shard.LocalReplica returns the same value, so local and HTTP replicas
// degrade identically.
func IngestError(err error) *APIError {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae
	}
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, ErrIngestDisabled):
		status = http.StatusNotImplemented
	case errors.Is(err, ErrDimMismatch), errors.Is(err, ErrBadLabel),
		errors.Is(err, ErrBadSource), errors.Is(err, ErrBadHash):
		status = http.StatusBadRequest
	}
	return &APIError{Status: status, Code: ErrCodeForStatus(status), Message: err.Error()}
}

// RunIngest applies an ingest batch through the configured Ingester,
// bypassing HTTP — the in-process path a local shard replica writes
// through. The batch is all-or-nothing: any validation failure rejects
// it before the WAL sees a byte.
func (s *Service) RunIngest(entries []IngestEntry) (*IngestResponse, error) {
	return s.RunIngestCtx(context.Background(), entries)
}

// RunIngestCtx is RunIngest with a caller-supplied context, on whose
// trace the Ingester records the durable log write. It holds the batch
// to the service's limits and counts a rejection as one error, whether
// the batch came over HTTP or from a local replica.
func (s *Service) RunIngestCtx(ctx context.Context, entries []IngestEntry) (*IngestResponse, error) {
	if s.ingester == nil {
		return nil, ErrIngestDisabled
	}
	if ae := s.front.AdmitIngest(len(entries)); ae != nil {
		return nil, ae
	}
	s.front.Ingests.Add(1)
	ls, err := DecodeIngestEntries(entries)
	var accepted int
	if err == nil {
		accepted, err = s.ingester.IngestBatchCtx(ctx, ls)
	}
	if err != nil {
		s.front.CountErrors(IngestError(err).Code, 1)
		return nil, err
	}
	return &IngestResponse{Accepted: accepted, Entries: s.Searcher().Len()}, nil
}

func (s *Service) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.ingester == nil {
		// Not an error counter event: a read-only daemon is a valid
		// deployment, the client just asked the wrong tier.
		WriteError(w, http.StatusNotImplemented, ErrCodeIngestDisabled,
			"ingest not enabled on this daemon (start caltrain-serve with -wal)")
		return
	}
	var req IngestRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	resp, err := s.RunIngestCtx(r.Context(), req.Entries)
	if err != nil {
		WriteAPIError(w, IngestError(err))
		return
	}
	writeJSON(w, resp)
}
