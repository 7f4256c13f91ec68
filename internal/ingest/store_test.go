package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
)

func storeDB(t *testing.T, dim, n, classes int, seed uint64) *fingerprint.DB {
	t.Helper()
	db, err := fingerprint.NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	for i, f := range index.SynthFingerprints(rng, n, dim, classes, 0.2) {
		if err := db.Add(fingerprint.Linkage{F: f, Y: i % classes, S: "seed"}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func newLinkages(t *testing.T, dim, n, classes int, seed uint64, src string) []fingerprint.Linkage {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 2))
	out := make([]fingerprint.Linkage, n)
	for i, f := range index.SynthFingerprints(rng, n, dim, classes, 0.2) {
		out[i] = fingerprint.Linkage{F: f, Y: i % classes, S: src}
	}
	return out
}

// TestStoreIngestVisibleToSearch: an acknowledged batch is queryable on
// the flat backend immediately, with Match.Index consistent with the DB.
func TestStoreIngestVisibleToSearch(t *testing.T) {
	db := storeDB(t, 8, 60, 3, 1)
	flat := index.NewFlat(db)
	st, err := Open(t.TempDir(), db, flat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	ls := newLinkages(t, 8, 12, 3, 2, "late")
	n, err := st.IngestBatch(ls)
	if err != nil || n != 12 {
		t.Fatalf("ingest: %d, %v", n, err)
	}
	if flat.Len() != 72 || db.Len() != 72 {
		t.Fatalf("sizes after ingest: flat %d, db %d", flat.Len(), db.Len())
	}
	// The new entry must be its own nearest neighbour, with provenance
	// and the same Index the exact scan reports.
	for i, l := range ls {
		got, err := flat.Search(l.F, l.Y, 1)
		if err != nil || len(got) != 1 {
			t.Fatalf("search %d: %v %v", i, got, err)
		}
		want, _ := db.Query(l.F, l.Y, 1)
		if got[0].Index != want[0].Index || got[0].Source != "late" {
			t.Fatalf("search %d: got %+v, want %+v", i, got[0], want[0])
		}
	}
}

// TestStoreReplayRestoresAcknowledged is the crash contract: open a
// second store over the same directory without snapshotting (the
// process died), and every acknowledged entry is back — in the DB and
// in the index.
func TestStoreReplayRestoresAcknowledged(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "linkage.db")
	walDir := filepath.Join(dir, "wal")

	db := storeDB(t, 8, 40, 2, 3)
	f, err := os.Create(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, err := Open(walDir, db, index.NewFlat(db), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls := newLinkages(t, 8, 10, 2, 4, "acked")
	if _, err := st.IngestBatch(ls); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no Snapshot. Records were fsynced (SyncAlways).

	rf, err := os.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := fingerprint.LoadDB(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 40 {
		t.Fatalf("snapshot holds %d entries, want the pre-ingest 40", db2.Len())
	}
	flat2 := index.NewFlat(db2)
	st2, err := Open(walDir, db2, flat2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Replayed() != 10 {
		t.Fatalf("replayed %d entries, want 10", st2.Replayed())
	}
	if db2.Len() != 50 || flat2.Len() != 50 {
		t.Fatalf("after replay: db %d, flat %d, want 50", db2.Len(), flat2.Len())
	}
	for i, l := range ls {
		got, err := flat2.Search(l.F, l.Y, 1)
		if err != nil || len(got) != 1 || got[0].Source != "acked" {
			t.Fatalf("replayed entry %d not served: %v %v", i, got, err)
		}
	}
	if stats := st2.IngestStats(); stats.ReplayEntries != 10 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestStoreSnapshotCompacts: Snapshot persists the DB, truncates the
// WAL, and a restart replays nothing.
func TestStoreSnapshotCompacts(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "linkage.db")
	db := storeDB(t, 4, 20, 2, 5)
	st, err := Open(filepath.Join(dir, "wal"), db, index.NewFlat(db), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.IngestBatch(newLinkages(t, 4, 6, 2, 6, "x")); err != nil {
		t.Fatal(err)
	}
	if err := st.Snapshot(dbPath); err != nil {
		t.Fatal(err)
	}
	if st.IngestStats().LastSnapshotUnix == 0 {
		t.Fatal("last_snapshot not recorded")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := fingerprint.LoadDB(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 26 {
		t.Fatalf("snapshot holds %d entries, want 26", db2.Len())
	}
	st2, err := Open(filepath.Join(dir, "wal"), db2, index.NewFlat(db2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Replayed() != 0 {
		t.Fatalf("replayed %d after snapshot, want 0", st2.Replayed())
	}
}

// TestStoreSnapshotSyncsDir: the snapshot's directory is synced after
// the new database file is renamed into it and before the log's
// segments are removed — otherwise a crash can leave the old database
// file beside a truncated log, and the linkages only the log held are
// gone. A failed directory sync leaves the log whole.
func TestStoreSnapshotSyncsDir(t *testing.T) {
	dir := t.TempDir()
	dbDir, walDir := filepath.Join(dir, "db"), filepath.Join(dir, "wal")
	if err := os.Mkdir(dbDir, 0o755); err != nil {
		t.Fatal(err)
	}
	dbPath := filepath.Join(dbDir, "linkage.db")
	db := storeDB(t, 4, 20, 2, 5)
	st, err := Open(walDir, db, index.NewFlat(db), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.IngestBatch(newLinkages(t, 4, 6, 2, 6, "x")); err != nil {
		t.Fatal(err)
	}
	before, _, err := listSegments(walDir)
	if err != nil {
		t.Fatal(err)
	}

	orig := syncDir
	t.Cleanup(func() { syncDir = orig })
	var events []string
	fail := errors.New("injected")
	syncDir = func(d string) error {
		if d != dbDir {
			return orig(d)
		}
		_, tmpErr := os.Stat(dbPath + ".tmp")
		segs, _, _ := listSegments(walDir)
		events = append(events, fmt.Sprintf("renamed=%v segments=%v", os.IsNotExist(tmpErr), segs))
		if fail != nil {
			return fail
		}
		return orig(d)
	}
	if err := st.Snapshot(dbPath); !errors.Is(err, fail) {
		t.Fatalf("snapshot with a failing directory sync: %v", err)
	}
	if after, _, _ := listSegments(walDir); !reflect.DeepEqual(after, before) {
		t.Fatalf("a failed directory sync truncated the log: segments %v → %v", before, after)
	}

	fail, events = nil, nil
	if err := st.Snapshot(dbPath); err != nil {
		t.Fatal(err)
	}
	if want := []string{fmt.Sprintf("renamed=true segments=%v", before)}; !reflect.DeepEqual(events, want) {
		t.Fatalf("syncs of the database's directory: %q, want %q (after the rename, before the truncate)", events, want)
	}
	after, _, err := listSegments(walDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != 1 || after[0] <= before[len(before)-1] {
		t.Fatalf("segments after the snapshot: %v, want one past %v", after, before)
	}
}

// TestWriteFileFailedSaveKeepsPrevious: a save that fails after writing
// part of the new file leaves the previous file byte-identical and no
// temporary file behind; a save that succeeds replaces it whole.
func TestWriteFileFailedSaveKeepsPrevious(t *testing.T) {
	path := filepath.Join(t.TempDir(), "artifact")
	prev := []byte("the previous artifact, whole")
	if err := os.WriteFile(path, prev, 0o644); err != nil {
		t.Fatal(err)
	}
	fail := errors.New("disk full halfway")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("the new artifact, ha")); err != nil {
			return err
		}
		return fail
	})
	if !errors.Is(err, fail) {
		t.Fatalf("WriteFile with a failing save: %v", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, prev) {
		t.Fatalf("previous file after a failed save: %q (%v), want %q", got, err, prev)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}

	next := []byte("the new artifact")
	if err := WriteFile(path, func(w io.Writer) error { _, err := w.Write(next); return err }); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, next) {
		t.Fatalf("file after a successful save: %q (%v), want %q", got, err, next)
	}
}

// TestStoreVolatile: a store opened without a log directory ingests
// and serves like a durable one, touches no file, reports no log in its
// stats, and refuses what only a log can do.
func TestStoreVolatile(t *testing.T) {
	t.Chdir(t.TempDir()) // a stray relative path would land here
	db := storeDB(t, 8, 60, 3, 1)
	flat := index.NewFlat(db)
	st, err := Open("", db, flat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls := newLinkages(t, 8, 12, 3, 2, "volatile")
	if n, err := st.IngestBatch(ls); err != nil || n != 12 {
		t.Fatalf("ingest: %d, %v", n, err)
	}
	if got, err := flat.Search(ls[0].F, ls[0].Y, 1); err != nil || got[0].Source != "volatile" {
		t.Fatalf("ingested entry not served: %v %v", got, err)
	}
	if _, err := st.IngestBatch([]fingerprint.Linkage{{F: make(fingerprint.Fingerprint, 3)}}); !errors.Is(err, fingerprint.ErrDimMismatch) {
		t.Fatalf("bad batch: %v", err)
	}
	stats := st.IngestStats()
	if stats.Accepted != 12 || stats.WALBytes != 0 || stats.Segments != 0 || stats.ReplayEntries != 0 {
		t.Fatalf("volatile stats: %+v", stats)
	}
	if err := st.Snapshot("linkage.db"); err == nil {
		t.Fatal("a volatile store snapshotted")
	}
	if _, _, err := st.ReplCursor(0); err == nil {
		t.Fatal("a volatile store opened a replication cursor")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if files, err := os.ReadDir("."); err != nil || len(files) != 0 {
		t.Fatalf("a volatile store wrote %v (%v)", files, err)
	}
}

// TestStoreRejectsBadBatch: one invalid entry rejects the whole batch
// before anything is logged or applied.
func TestStoreRejectsBadBatch(t *testing.T) {
	db := storeDB(t, 4, 10, 2, 7)
	flat := index.NewFlat(db)
	st, err := Open(t.TempDir(), db, flat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	good := newLinkages(t, 4, 3, 2, 8, "ok")
	bad := append(good[:2:2], fingerprint.Linkage{F: make(fingerprint.Fingerprint, 3), Y: 0})
	if _, err := st.IngestBatch(bad); !errors.Is(err, fingerprint.ErrDimMismatch) {
		t.Fatalf("bad batch: %v", err)
	}
	if db.Len() != 10 || flat.Len() != 10 || st.IngestStats().Accepted != 0 {
		t.Fatalf("bad batch leaked: db %d, flat %d", db.Len(), flat.Len())
	}
	for _, y := range []int{-1, 1 << 31} { // a label is an int32 in the WAL and in every file
		if _, err := st.IngestBatch([]fingerprint.Linkage{{F: good[0].F, Y: y}}); !errors.Is(err, fingerprint.ErrBadLabel) {
			t.Fatalf("label %d: %v", y, err)
		}
	}
	if db.Len() != 10 || st.Head() != 10 {
		t.Fatalf("a rejected label was applied: db %d, head %d", db.Len(), st.Head())
	}
}

// failingAppender is a Flat whose k-th Append, counting from 1, fails.
type failingAppender struct {
	*index.Flat
	k, calls int
}

func (f *failingAppender) Append(i int, l ...fingerprint.Linkage) error {
	if f.calls++; f.calls == f.k {
		return errors.New("injected append failure")
	}
	return f.Flat.Append(i, l...)
}

// TestStoreFailStopOnHalfAppliedBatch: a batch the log took but the
// index refused half-way fails the store stop, as a failed fsync fails
// the log: every later ingest and snapshot answers ErrHalfApplied and
// touches neither the log nor the database file, so a restart replays
// the whole batch.
func TestStoreFailStopOnHalfAppliedBatch(t *testing.T) {
	dir := t.TempDir()
	dbPath, walDir := filepath.Join(dir, "linkage.db"), filepath.Join(dir, "wal")
	db := storeDB(t, 8, 20, 2, 13)
	if err := WriteFile(dbPath, db.Save); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	st, err := Open(walDir, db, &failingAppender{Flat: index.NewFlat(db), k: 3}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ls := newLinkages(t, 8, 5, 2, 14, "half")
	if n, err := st.IngestBatch(ls); n != 2 || !errors.Is(err, ErrHalfApplied) {
		t.Fatalf("half-applied batch: %d, %v; want 2 and ErrHalfApplied", n, err)
	}
	walBytes := st.IngestStats().WALBytes
	for i := 0; i < 2; i++ {
		if n, err := st.IngestBatch(newLinkages(t, 8, 2, 2, 15, "later")); n != 0 || !errors.Is(err, ErrHalfApplied) {
			t.Fatalf("ingest %d after the half-applied batch: %d, %v; want the fail-stop error", i, n, err)
		}
	}
	if err := st.Snapshot(dbPath); !errors.Is(err, ErrHalfApplied) {
		t.Fatalf("snapshot after the half-applied batch: %v, want the fail-stop error", err)
	}
	if got := st.IngestStats().WALBytes; got != walBytes || db.Len() != 23 {
		t.Fatalf("refused ingests moved the store: wal %d → %d bytes, db %d entries", walBytes, got, db.Len())
	}
	if now, err := os.ReadFile(dbPath); err != nil || !bytes.Equal(now, saved) {
		t.Fatalf("the refused snapshot rewrote the database file (%v)", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	db2, err := fingerprint.LoadDB(rf)
	rf.Close()
	if err != nil {
		t.Fatal(err)
	}
	flat2 := index.NewFlat(db2)
	st2, err := Open(walDir, db2, flat2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Replayed() != 5 || db2.Len() != 25 || flat2.Len() != 25 {
		t.Fatalf("restart replayed %d entries (db %d, index %d), want the whole batch of 5 over 20", st2.Replayed(), db2.Len(), flat2.Len())
	}
	for i, l := range ls {
		got, err := flat2.Search(l.F, l.Y, 1)
		if err != nil || len(got) != 1 || got[0].Index != 20+i || got[0].Source != "half" {
			t.Fatalf("replayed entry %d: %v %v", i, got, err)
		}
	}
	if _, err := st2.IngestBatch(newLinkages(t, 8, 2, 2, 15, "later")); err != nil {
		t.Fatalf("ingest after the restart: %v", err)
	}
}

// TestStoreRejectsNonAppendable: a snapshot backend with no Append must
// be refused up front, not silently served stale.
func TestStoreRejectsNonAppendable(t *testing.T) {
	db := storeDB(t, 4, 10, 2, 9)
	other := storeDB(t, 4, 10, 2, 10)
	if _, err := Open(t.TempDir(), db, other, Options{}); err == nil {
		t.Fatal("foreign linear backend accepted")
	}
	// The DB itself is fine: linear scans see Adds naturally.
	st, err := Open(t.TempDir(), db, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.IngestBatch(newLinkages(t, 4, 2, 2, 11, "lin")); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 12 {
		t.Fatalf("linear ingest: %d entries", db.Len())
	}
}

// swapRecorder is a Swapper that remembers every hot-swap.
type swapRecorder struct {
	mu    sync.Mutex
	swaps []fingerprint.Searcher
}

func (s *swapRecorder) SetSearcher(sr fingerprint.Searcher) {
	s.mu.Lock()
	s.swaps = append(s.swaps, sr)
	s.mu.Unlock()
}

// TestStoreDriftRetrainHotSwap: appends past the drift threshold
// trigger a background retrain whose result is caught up and swapped
// in, resetting drift.
func TestStoreDriftRetrainHotSwap(t *testing.T) {
	db := storeDB(t, 8, 200, 2, 12)
	ivf, err := index.TrainIVF(db, index.IVFOptions{Nlist: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &swapRecorder{}
	st, err := Open(t.TempDir(), db, ivf, Options{
		DriftThreshold: 0.10,
		Rebuild: func(snap *fingerprint.DB) (fingerprint.Searcher, error) {
			return index.TrainIVF(snap, index.IVFOptions{Nlist: 8, Seed: 2})
		},
		Swapper: rec,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 40 appends over 200 → drift 0.167 > 0.10 at some batch.
	for i := 0; i < 4; i++ {
		if _, err := st.IngestBatch(newLinkages(t, 8, 10, 2, uint64(20+i), "new")); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil { // waits for the background retrain
		t.Fatal(err)
	}
	stats := st.IngestStats()
	if stats.Retrains == 0 {
		t.Fatalf("no retrain despite drift; stats %+v", stats)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.swaps) == 0 {
		t.Fatal("no hot-swap recorded")
	}
	fresh := rec.swaps[len(rec.swaps)-1]
	if fresh.Len() != db.Len() {
		t.Fatalf("swapped index has %d entries, db %d", fresh.Len(), db.Len())
	}
	// Entries ingested while training ran are caught up as appends, so
	// drift resets to (at most) their small fraction, not exactly 0.
	if d := fresh.(*index.IVF).Drift(); d >= 0.10 {
		t.Fatalf("fresh index drift %v, want below the 0.10 threshold", d)
	}
	if stats.Drift >= 0.10 {
		t.Fatalf("store still reports drift %v after swap", stats.Drift)
	}
}

// TestIngestQueryRace is the serving-tier race gate: concurrent ingest
// batches, searches, stats reads, and drift-triggered hot-swaps on one
// store, then a replay of everything acknowledged — run under -race in
// CI.
func TestIngestQueryRace(t *testing.T) {
	const dim, classes = 8, 3
	db := storeDB(t, dim, 300, classes, 13)
	ivf, err := index.TrainIVF(db, index.IVFOptions{Nlist: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	svc := fingerprint.NewSearcherService(ivf)
	walDir := t.TempDir()
	st, err := Open(walDir, db, ivf, Options{
		DriftThreshold: 0.02, // retrain eagerly to exercise swaps
		Rebuild: func(snap *fingerprint.DB) (fingerprint.Searcher, error) {
			return index.TrainIVF(snap, index.IVFOptions{Nlist: 6, Seed: 4})
		},
		Swapper: svc,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetIngester(st)

	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	// Writers: racing ingest batches.
	for g := 0; g < 2; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 15; i++ {
				if _, err := st.IngestBatch(newLinkages(t, dim, 8, classes, uint64(100*g+i), "race")); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	// Readers: searches through the service's current backend, plus
	// raw DB queries (the linear path ingest also feeds).
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 5))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q := index.SynthFingerprints(rng, 1, dim, classes, 0.2)[0]
				if _, err := svc.Searcher().Search(q, g%classes, 5); err != nil {
					t.Error(err)
					return
				}
				if _, err := db.Query(q, g%classes, 5); err != nil {
					t.Error(err)
					return
				}
				_ = svc.StatsSnapshot()
			}
		}(g)
	}
	// Wait for writers, then stop readers.
	done := make(chan struct{})
	go func() {
		writers.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("race test wedged")
	}
	close(stop)
	readers.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything acknowledged must replay: the seed entries never went
	// through the WAL (they are the "snapshot"), so rebuild them the
	// same way and replay the ingested 2×15×8 on top.
	db2 := storeDB(t, dim, 300, classes, 13)
	st2, err := Open(walDir, db2, index.NewFlat(db2), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if db2.Len() != 300+2*15*8 {
		t.Fatalf("replay restored %d entries, want %d", db2.Len(), 300+2*15*8)
	}
}
