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
	// entry is logged. Not so a crash inside the log's one write
	// (WAL.AppendCtx): its leading records can replay though the batch
	// was never acknowledged (FuzzWALCrashRestart input 01C000000000000)
	// until batches carry IDs (ROADMAP item 7). It returns the number of
	// entries applied, and records the log write as a "wal_append" stage
	// on ctx's trace.
	IngestBatchCtx(ctx context.Context, ls []Linkage) (int, error)
	// IngestStats reports the write path's counters for /stats.
	IngestStats() IngestStats
}

// IngestStats is the write-path block of a /stats response.
type IngestStats struct {
	// Accepted counts entries durably applied since startup (replayed
	// entries excluded).
	Accepted uint64 `json:"accepted" metric:"caltrain_ingest_accepted_total" help:"Entries durably applied since startup (replay excluded)."`
	// WALBytes is the current size of the write-ahead log across all
	// live segments — the operator's cue that a snapshot is overdue.
	WALBytes int64 `json:"wal_bytes" metric:"caltrain_wal_bytes" help:"Bytes across all live WAL segments — the cue that a snapshot is overdue."`
	// ReplayEntries counts entries restored from the WAL at startup.
	ReplayEntries uint64 `json:"replay_entries" metric:"caltrain_ingest_replayed_entries" help:"Entries restored from the WAL at startup."`
	// LastSnapshotUnix is the Unix time of the last snapshot+truncate
	// compaction, 0 if none has run this process.
	LastSnapshotUnix int64 `json:"last_snapshot_unix"`
	// Retrains counts background index retrain + hot-swap cycles
	// triggered by drift.
	Retrains uint64 `json:"retrains" metric:"caltrain_ingest_retrains_total" help:"Background index retrain and hot-swap cycles."`
	// Drift is the serving backend's current appended fraction (0 for
	// exact backends).
	Drift float64 `json:"drift" metric:"caltrain_index_drift" help:"Serving backend's appended fraction since its last (re)train."`
	// Segments is the number of live WAL segments.
	Segments int `json:"wal_segments,omitempty" metric:"caltrain_wal_segments" help:"Live WAL segments."`
	// LastSnapshotAgeSeconds is how long ago the last snapshot ran, 0
	// when none has run this process — the age form of
	// LastSnapshotUnix, so dashboards need no wall-clock math.
	LastSnapshotAgeSeconds float64 `json:"last_snapshot_age_seconds,omitempty" metric:"caltrain_last_snapshot_age_seconds,omitzero" help:"Seconds since the last snapshot+truncate compaction; absent before the first."`
}

// SetIngester enables the write path: POST /ingest applies batches
// through ing, and /stats grows an "ingest" block. The daemon wiring
// order is service first (the ingest store hot-swaps through it), then
// the store, then this. Call before serving; it is not
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

// ErrIngestDisabled is a read-only daemon's (no Ingester configured)
// refusal of a write.
var ErrIngestDisabled = errors.New("ingest not enabled on this daemon (start caltrain-serve with -wal)")

// ingestError types a Tier's Ingest error as the reply POST /v1/ingest
// answers it with: an *APIError as it is (a router's own refusal), 501
// for a read-only daemon, 400 for a batch the daemon validated and
// refused (every replica of its shard would refuse it identically), 500
// for daemon-side faults (WAL I/O). A shard.LocalReplica returns the
// same value, so local and HTTP replicas degrade identically.
func ingestError(err error) *APIError {
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

// Writable reports whether the daemon has a write path (SetIngester).
func (s *Service) Writable() bool { return s.ingester != nil }

// Ingest applies a batch through the configured Ingester, which its
// Front calls only when Writable: the daemon's answer to POST
// /v1/ingest, which the Front admits and counts. Any validation failure
// rejects the batch before the WAL sees a byte. The durable log write
// is recorded on ctx's trace.
func (s *Service) Ingest(ctx context.Context, entries []IngestEntry) (*IngestResponse, error) {
	ls, err := DecodeIngestEntries(entries)
	if err != nil {
		return nil, err
	}
	accepted, err := s.ingester.IngestBatchCtx(ctx, ls)
	if err != nil {
		return nil, err
	}
	return &IngestResponse{Accepted: accepted, Entries: s.Searcher().Len()}, nil
}
