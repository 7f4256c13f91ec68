package cluster

import (
	"io"
	"net/http"
	"strconv"

	"caltrain/internal/fingerprint"
	"caltrain/internal/ingest"
	"caltrain/internal/obs"
)

// Source serves a daemon's replication endpoints: consistent snapshots
// and WAL shipping. It reads the store through an accessor rather than
// holding one, because the Syncer swaps stores during a full resync —
// a replica is a source and a follower at the same time (symmetric
// peering), so the endpoints must always see the current store.
type Source struct {
	store func() *ingest.Store
	// maxRecords bounds one /v1/repl/wal response; followers loop.
	maxRecords int
}

// DefaultWALBatchRecords bounds one WAL ship response. Large enough to
// amortize the HTTP round trip, small enough that a response is a
// bounded unit of work and the retention pin a cursor holds stays
// short-lived.
const DefaultWALBatchRecords = 8192

// NewSource wraps a store accessor. The accessor may return nil while
// a full resync is mid-handoff; the endpoints answer 503 then.
func NewSource(store func() *ingest.Store) *Source {
	return &Source{store: store, maxRecords: DefaultWALBatchRecords}
}

// HandleSnapshot is GET /v1/repl/snapshot: the database in its
// canonical serialized form, with its length in Content-Length (the
// follower sizes its columns by it) and the covered sequence number in
// X-Caltrain-Repl-Seq. The snapshot is taken under the store's write
// lock but streamed outside it (copies share immutable fingerprint
// storage), so a large transfer does not stall ingest.
func (s *Source) HandleSnapshot(w http.ResponseWriter, r *http.Request) {
	st := s.store()
	if st == nil {
		fingerprint.WriteError(w, http.StatusServiceUnavailable, fingerprint.ErrCodeInternal,
			"replication store is mid-handoff; retry")
		return
	}
	snap, seq := st.SnapshotView()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.FormatInt(snap.SavedSize(), 10))
	w.Header().Set(HeaderReplSeq, strconv.FormatUint(seq, 10))
	_, span := obs.StartSpan(r.Context(), "repl_snapshot_stream")
	err := snap.Save(w)
	span.SetError(err)
	span.End()
	// Past the header write there is no way to signal failure in-band;
	// the follower's LoadDB catches a cut stream via format framing.
}

// HandleWAL is GET /v1/repl/wal?from=N: acknowledged records with
// seq >= from, framed as a ship stream, bounded per response. The
// X-Caltrain-Repl-Head header carries the head sequence at cursor-open
// time so the follower can compute lag and loop until it drains.
func (s *Source) HandleWAL(w http.ResponseWriter, r *http.Request) {
	st := s.store()
	if st == nil {
		fingerprint.WriteError(w, http.StatusServiceUnavailable, fingerprint.ErrCodeInternal,
			"replication store is mid-handoff; retry")
		return
	}
	from, err := strconv.ParseUint(r.URL.Query().Get("from"), 10, 64)
	if err != nil {
		fingerprint.WriteError(w, http.StatusBadRequest, fingerprint.ErrCodeBadRequest,
			"bad ?from=%q: want a sequence number", r.URL.Query().Get("from"))
		return
	}
	cur, head, err := st.ReplCursor(from)
	if err != nil {
		fingerprint.WriteError(w, http.StatusInternalServerError, fingerprint.ErrCodeInternal,
			"wal cursor: %v", err)
		return
	}
	defer cur.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(HeaderReplHead, strconv.FormatUint(head, 10))
	_, span := obs.StartSpan(r.Context(), "repl_wal_ship")
	defer span.End()
	dim := st.Dim()
	if err := ingest.WriteShipHeader(w, dim); err != nil {
		span.SetError(err)
		return
	}
	var frame []byte
	shipped := 0
	for shipped < s.maxRecords {
		seq, l, err := cur.Next()
		if err != nil {
			// io.EOF is the view's end; anything else cuts the stream,
			// which the follower's ship reader detects by framing.
			if err != io.EOF {
				span.SetError(err)
			}
			break
		}
		frame, err = ingest.AppendShipRecord(frame[:0], dim, seq, l)
		if err != nil {
			span.SetError(err)
			return
		}
		if _, err := w.Write(frame); err != nil {
			span.SetError(err)
			return
		}
		shipped++
	}
}
