package ingest

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
)

// appender matches index.Appender structurally, so the store stays
// decoupled from the concrete index package.
type appender interface {
	Append(dbIndex int, l fingerprint.Linkage) error
}

// drifter matches index.Drifter structurally.
type drifter interface {
	Drift() float64
}

// Swapper hot-swaps a serving backend — fingerprint.Service implements
// it, so a background retrain lands via the same machinery an operator
// rebuild would use.
type Swapper interface {
	SetSearcher(fingerprint.Searcher)
}

// Options configures a Store.
type Options struct {
	// WAL tunes the log (fsync policy, segment rotation).
	WAL WALOptions
	// DriftThreshold triggers a background retrain + hot-swap once the
	// serving backend's Drift exceeds it. 0 means the default (0.25);
	// negative disables retraining. Only consulted when both Rebuild and
	// Swapper are set and the backend reports drift.
	DriftThreshold float64
	// Rebuild trains a replacement backend from a database snapshot —
	// e.g. a closure over index.TrainIVF with the daemon's options. The
	// returned backend must implement Append so entries ingested during
	// the rebuild can be caught up before the swap.
	Rebuild func(db *fingerprint.DB) (fingerprint.Searcher, error)
	// Swapper receives the retrained backend (normally the
	// fingerprint.Service).
	Swapper Swapper
	// Logf reports background retrain outcomes; nil discards.
	Logf func(format string, args ...any)
}

// DefaultDriftThreshold is the appended fraction above which a Store
// retrains its approximate backend: at 0.25, a quarter of the index
// sits in lists chosen by a quantizer that never saw those vectors.
const DefaultDriftThreshold = 0.25

// errVolatile refuses what only a store with a log can do.
var errVolatile = errors.New("ingest: a volatile store has no write-ahead log")

// ErrHalfApplied is why a store failed stop: a batch the log had taken
// failed to apply to the database or its index, which then no longer
// serve what the log holds. The store refuses every later ingest and
// snapshot with it — a snapshot would persist the half batch and
// truncate the rest away — until a restart replays the log.
var ErrHalfApplied = errors.New("ingest: a logged batch half-applied; store closed to ingests until restart")

// Store is the write path of one serving daemon: a WAL in front of the
// linkage database and its (appendable) index backend.
//
//	Open     → replay the WAL over the loaded snapshot
//	Ingest   → WAL append (fsync per policy) → DB → index, under one lock
//	Snapshot → persist the DB, truncate the WAL (compaction)
//
// A store opened without a log directory is volatile: it ingests and
// retrains the same way but logs nothing, so a restart loses every
// batch it took. Reads never block on the store: searches run against
// the index's own read locks, and the batch lock here only serializes
// writers. Store implements fingerprint.Ingester.
type Store struct {
	mu     sync.Mutex // serializes writers: Ingest, Snapshot, retrain swap
	wal    *WAL       // nil for a volatile store
	db     *fingerprint.DB
	failed error // wraps ErrHalfApplied once a batch half-applied; under mu

	// smu guards only the searcher/app pointer pair, so stats readers
	// never wait behind a Snapshot or retrain catch-up holding mu.
	// Writers hold BOTH mu and smu.
	smu      sync.Mutex
	searcher fingerprint.Searcher
	app      appender // nil when searcher is the DB itself (linear)

	driftThreshold float64
	rebuild        func(*fingerprint.DB) (fingerprint.Searcher, error)
	swapper        Swapper
	logf           func(string, ...any)

	retraining   atomic.Bool
	retrainWG    sync.WaitGroup
	accepted     atomic.Uint64
	replayed     uint64
	retrains     atomic.Uint64
	lastSnapshot atomic.Int64
}

// Open attaches a WAL at dir to the database and its serving backend,
// replaying any records the last snapshot does not cover — into both
// the database and the backend, so a restarted daemon serves exactly
// the acknowledged linkages. An empty dir opens a volatile store: no
// log, no replay, no file touched; it reports zero WAL bytes and
// segments, and refuses Snapshot and ReplCursor. The backend must be
// the database itself (linear scan; appends are naturally visible) or
// an index.Appender.
func Open(dir string, db *fingerprint.DB, searcher fingerprint.Searcher, opts Options) (*Store, error) {
	s := &Store{
		db:             db,
		searcher:       searcher,
		driftThreshold: opts.DriftThreshold,
		rebuild:        opts.Rebuild,
		swapper:        opts.Swapper,
		logf:           opts.Logf,
	}
	if s.driftThreshold == 0 {
		s.driftThreshold = DefaultDriftThreshold
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if sdb, ok := searcher.(*fingerprint.DB); ok {
		if sdb != db {
			return nil, fmt.Errorf("ingest: linear backend must be the ingest database itself")
		}
	} else {
		ap, ok := searcher.(appender)
		if !ok {
			return nil, fmt.Errorf("ingest: %s backend does not support appends", searcher.Kind())
		}
		s.app = ap
	}
	if dir == "" {
		return s, nil
	}

	wal, err := OpenWAL(dir, db.Dim(), opts.WAL)
	if err != nil {
		return nil, err
	}
	err = wal.Replay(func(seq uint64, l fingerprint.Linkage) error {
		n := uint64(db.Len())
		switch {
		case seq < n:
			return nil // covered by the loaded snapshot
		case seq > n:
			return fmt.Errorf("ingest: wal replay: record %d leaves a gap after %d entries: %w", seq, n, ErrCorrupt)
		}
		if err := s.apply(l); err != nil {
			return fmt.Errorf("ingest: wal replay: record %d: %w", seq, err)
		}
		s.replayed++
		return nil
	})
	if err != nil {
		wal.Close()
		return nil, err
	}
	s.wal = wal
	return s, nil
}

// apply adds one linkage to the database and the index backend.
// Callers hold s.mu (or, during Open, exclusive access).
func (s *Store) apply(l fingerprint.Linkage) error {
	idx := s.db.Len()
	if err := s.db.Add(l); err != nil {
		return err
	}
	if s.app != nil {
		// The stored entry, as in the retrain catch-up: its fingerprint is
		// the database's immutable copy, which an appender may alias.
		if err := s.app.Append(idx, s.db.Entry(idx)); err != nil {
			return err
		}
	}
	return nil
}

// IngestBatch is IngestBatchCtx without a trace.
func (s *Store) IngestBatch(ls []fingerprint.Linkage) (int, error) {
	return s.IngestBatchCtx(context.Background(), ls)
}

// IngestBatchCtx implements fingerprint.Ingester: validate everything,
// log the batch (durable per the WAL's fsync policy; a volatile store
// skips this step), then apply it to the database and index.
// All-or-nothing: a validation failure anywhere rejects the batch
// before the WAL sees a byte; a batch that fails to apply after that
// fails the store stop (ErrHalfApplied). The log write (including its fsync, per
// policy) is recorded as a "wal_append" stage on ctx's trace, so request
// logs attribute write latency to the disk rather than the index.
func (s *Store) IngestBatchCtx(ctx context.Context, ls []fingerprint.Linkage) (int, error) {
	if len(ls) == 0 {
		return 0, nil
	}
	if err := fingerprint.ValidateLinkages(s.db.Dim(), ls...); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return 0, s.failed
	}
	if s.wal != nil {
		wctx, span := obs.StartSpan(ctx, "wal_append")
		err := s.wal.AppendCtx(wctx, uint64(s.db.Len()), ls)
		span.SetError(err)
		span.End()
		if err != nil {
			return 0, err
		}
	}
	for i, l := range ls {
		// Validation passed above, so apply cannot fail on input; an
		// error here means the logged batch half-applied, which only a
		// restart (replay) repairs. Serving on, or logging the next batch
		// at db.Len(), would reuse sequence numbers this batch holds.
		if err := s.apply(l); err != nil {
			s.failed = fmt.Errorf("%w: entry %d of %d: %v", ErrHalfApplied, i, len(ls), err)
			return i, s.failed
		}
	}
	s.accepted.Add(uint64(len(ls)))
	s.maybeRetrainLocked()
	return len(ls), nil
}

// maybeRetrainLocked kicks off a background retrain + hot-swap when the
// serving backend reports drift past the threshold. Callers hold s.mu.
func (s *Store) maybeRetrainLocked() {
	if s.rebuild == nil || s.swapper == nil || s.driftThreshold < 0 {
		return
	}
	d, ok := s.searcher.(drifter)
	if !ok || d.Drift() < s.driftThreshold {
		return
	}
	if !s.retraining.CompareAndSwap(false, true) {
		return // one retrain at a time
	}
	snap := s.db.Snapshot(-1)
	s.retrainWG.Add(1)
	go func() {
		defer s.retrainWG.Done()
		defer s.retraining.Store(false)
		started := time.Now()
		fresh, err := s.rebuild(snap)
		if err != nil {
			s.logf("ingest: background retrain failed: %v", err)
			return
		}
		// Entries ingested while training ran are in the DB but not in
		// the fresh index; catch up under the write lock, then swap.
		s.mu.Lock()
		defer s.mu.Unlock()
		ap, ok := fresh.(appender)
		if !ok {
			s.logf("ingest: retrained %s backend is not appendable; swap aborted", fresh.Kind())
			return
		}
		for i := snap.Len(); i < s.db.Len(); i++ {
			if err := ap.Append(i, s.db.Entry(i)); err != nil {
				s.logf("ingest: retrain catch-up: %v", err)
				return
			}
		}
		s.smu.Lock()
		s.searcher, s.app = fresh, ap
		s.smu.Unlock()
		s.swapper.SetSearcher(fresh)
		s.retrains.Add(1)
		s.logf("ingest: retrained %s backend over %d entries in %v (drift reset)",
			fresh.Kind(), fresh.Len(), time.Since(started).Round(time.Millisecond))
	}()
}

// Snapshot persists the database to path (atomically, via rename) and
// truncates the WAL — the compaction step. Ingest blocks for the
// duration; queries do not. The path should be the same -db file the
// daemon loads at startup, so a restart reads the snapshot and replays
// only the post-snapshot tail.
//
// alsoPersist callbacks run with the current serving backend inside the
// same write-locked section, after the database file lands and before
// the WAL truncates — a daemon that loaded its index from a file
// re-saves it here, so the index and database files can never disagree
// on entry count across a restart. A callback failure aborts the
// truncate: the database file is already updated, but replay is
// idempotent, so nothing is lost. The directory holding path is synced
// after the rename, so a crash cannot leave the old database file
// beside a truncated log. A volatile store has no log to compact and
// refuses, and so does a store that failed stop (ErrHalfApplied).
func (s *Store) Snapshot(path string, alsoPersist ...func(fingerprint.Searcher) error) error {
	if s.wal == nil {
		return errVolatile
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return s.failed
	}
	if err := WriteFile(path, s.db.Save); err != nil {
		return fmt.Errorf("ingest: snapshot: %w", err)
	}
	for _, fn := range alsoPersist {
		if err := fn(s.searcher); err != nil {
			return fmt.Errorf("ingest: snapshot: %w", err)
		}
	}
	if err := s.wal.Truncate(); err != nil {
		return err
	}
	s.lastSnapshot.Store(time.Now().Unix())
	return nil
}

// WriteFile replaces the file at path with what save writes, so that a
// crash, a full disk or a failing save leaves either the previous file
// or the new one, never a mix: save writes path.tmp, which is fsynced,
// closed and renamed over path, and then the directory is synced so the
// rename itself survives a crash. On failure the temporary file is
// removed and path is untouched.
func WriteFile(path string, save func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = save(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(filepath.Dir(path))
}

// IngestStats implements fingerprint.Ingester.
func (s *Store) IngestStats() fingerprint.IngestStats {
	st := fingerprint.IngestStats{
		Accepted:         s.accepted.Load(),
		ReplayEntries:    s.replayed,
		LastSnapshotUnix: s.lastSnapshot.Load(),
		Retrains:         s.retrains.Load(),
	}
	if s.wal != nil {
		// Zero WAL bytes and segments are how /stats tells a volatile
		// write path from a durable one.
		st.WALBytes, st.Segments = s.wal.Bytes(), s.wal.Segments()
	}
	if ls := st.LastSnapshotUnix; ls > 0 {
		st.LastSnapshotAgeSeconds = time.Since(time.Unix(ls, 0)).Seconds()
	}
	s.smu.Lock()
	sr := s.searcher
	s.smu.Unlock()
	if d, ok := sr.(drifter); ok {
		st.Drift = d.Drift()
	}
	return st
}

// Replayed returns how many WAL entries Open restored.
func (s *Store) Replayed() int { return int(s.replayed) }

// Dim returns the fingerprint dimension of the backing database.
func (s *Store) Dim() int { return s.db.Dim() }

// DB returns the backing database, the one a Store is opened over for
// its whole life.
func (s *Store) DB() *fingerprint.DB { return s.db }

// Head returns the next sequence number the log will assign — the
// number of linkages applied so far. A follower at Head() == the
// source's Head() is fully caught up.
func (s *Store) Head() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return uint64(s.db.Len())
}

// SnapshotView returns a consistent copy of the database plus the
// sequence number it covers (its entry count) — the replication
// snapshot: a follower loading the copy and replaying shipped records
// from seq onward reconstructs the store exactly. The copy shares
// immutable fingerprint storage with the live database, so taking it
// is cheap and the caller can stream it over the network outside any
// store lock.
func (s *Store) SnapshotView() (*fingerprint.DB, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.db.Snapshot(-1)
	return snap, uint64(snap.Len())
}

// ReplCursor opens a WAL cursor at from together with the head
// sequence observed at the same instant — no append can land between
// the two reads, so every record in [from, head) that the log still
// retains is visible through the cursor. The caller must Close the
// cursor; while it is open, compaction defers segment deletion (see
// WAL.Truncate). A volatile store has no log to ship and refuses.
func (s *Store) ReplCursor(from uint64) (*Cursor, uint64, error) {
	if s.wal == nil {
		return nil, 0, errVolatile
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	cur, err := s.wal.OpenCursor(from)
	if err != nil {
		return nil, 0, err
	}
	return cur, uint64(s.db.Len()), nil
}

// Close waits for any background retrain and closes the WAL. It does
// not snapshot; an un-snapshotted store simply replays more on the next
// Open.
func (s *Store) Close() error {
	s.retrainWG.Wait()
	if s.wal == nil {
		return nil
	}
	return s.wal.Close()
}
