package cluster

import (
	"bytes"
	"context"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/ingest"
)

const testDim = 8

func testLinkages(seed uint64, n int) []fingerprint.Linkage {
	rng := rand.New(rand.NewPCG(seed, 1))
	out := make([]fingerprint.Linkage, n)
	for i := range out {
		f := make(fingerprint.Fingerprint, testDim)
		for j := range f {
			f[j] = float32(rng.NormFloat64())
		}
		var h [32]byte
		h[0], h[1] = byte(i), byte(i>>8)
		out[i] = fingerprint.Linkage{F: f, Y: i % 5, S: "round-" + string(rune('a'+i%7)), H: h}
	}
	return out
}

// replica is one fully-wired replication-enabled daemon: service,
// store, syncer, source, HTTP server.
type replica struct {
	svc    *fingerprint.Service
	syncer *Syncer
	ts     *httptest.Server
	walDir string
}

func newReplica(t *testing.T, peer string) *replica {
	t.Helper()
	db, err := fingerprint.NewDB(testDim)
	if err != nil {
		t.Fatal(err)
	}
	svc := fingerprint.NewSearcherService(db)
	walDir := filepath.Join(t.TempDir(), "wal")
	open := func(ndb *fingerprint.DB, sr fingerprint.Searcher) (*ingest.Store, error) {
		return ingest.Open(walDir, ndb, sr, ingest.Options{WAL: ingest.WALOptions{Sync: ingest.SyncNever}})
	}
	st, err := open(db, db)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := NewSyncer(Options{
		Peer:    peer,
		Service: svc,
		Build:   func(ndb *fingerprint.DB) (fingerprint.Searcher, error) { return ndb, nil },
		Reopen: func(ndb *fingerprint.DB, sr fingerprint.Searcher) (*ingest.Store, error) {
			if err := os.RemoveAll(walDir); err != nil {
				return nil, err
			}
			return open(ndb, sr)
		},
		Logf: t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	sync.AttachStore(st)
	svc.SetIngester(sync)
	src := NewSource(sync.Store)
	svc.SetReplRoutes(fingerprint.ReplRoutes{
		Snapshot: src.HandleSnapshot,
		WAL:      src.HandleWAL,
		Sync:     sync.HandleSync,
		Status:   sync.HandleStatus,
	})
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		sync.Close()
	})
	return &replica{svc: svc, syncer: sync, ts: ts, walDir: walDir}
}

func ingestAll(t *testing.T, r *replica, ls []fingerprint.Linkage) {
	t.Helper()
	if _, err := r.syncer.IngestBatchCtx(context.Background(), ls); err != nil {
		t.Fatal(err)
	}
}

func assertSame(t *testing.T, a, b *replica, want int) {
	t.Helper()
	sa, sb := a.svc.Searcher(), b.svc.Searcher()
	if sa.Len() != want || sb.Len() != want {
		t.Fatalf("entry counts %d / %d, want %d", sa.Len(), sb.Len(), want)
	}
	if got := b.syncer.Store().Head(); got != uint64(want) {
		t.Fatalf("follower head %d, want %d", got, want)
	}
}

// TestSyncIncremental: a fresh follower whose peer still retains its
// full WAL catches up incrementally — no snapshot fetch — and reaches
// live with an identical database.
func TestSyncIncremental(t *testing.T) {
	source := newReplica(t, "")
	ingestAll(t, source, testLinkages(1, 50))

	follower := newReplica(t, source.ts.URL)
	if follower.syncer.State() != StateCold {
		t.Fatalf("pre-sync state %v, want cold", follower.syncer.State())
	}
	if err := follower.syncer.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := follower.syncer.State(); got != StateLive {
		t.Fatalf("post-sync state %v, want live", got)
	}
	st := follower.syncer.Status()
	if st.FullSyncs != 0 {
		t.Fatalf("incremental join took %d full syncs, want 0", st.FullSyncs)
	}
	assertSame(t, source, follower, 50)
}

// TestSyncSnapshotBootstrap: once the peer has compacted (snapshot +
// WAL truncate), a fresh follower cannot catch up incrementally — the
// state machine must take the snapshot path and still converge.
func TestSyncSnapshotBootstrap(t *testing.T) {
	source := newReplica(t, "")
	ingestAll(t, source, testLinkages(2, 60))
	// Compact: records 0..59 now live only in the snapshot.
	if err := source.syncer.Store().Snapshot(filepath.Join(t.TempDir(), "db.ctfp")); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, source, testLinkages(3, 10))

	follower := newReplica(t, source.ts.URL)
	if err := follower.syncer.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := follower.syncer.State(); got != StateLive {
		t.Fatalf("post-sync state %v, want live", got)
	}
	st := follower.syncer.Status()
	if st.FullSyncs != 1 {
		t.Fatalf("bootstrap join took %d full syncs, want 1", st.FullSyncs)
	}
	assertSame(t, source, follower, 70)

	// The follower's own replication endpoints serve its new world:
	// symmetric peering means it can now source another replica.
	third := newReplica(t, follower.ts.URL)
	if err := third.syncer.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	assertSame(t, follower, third, 70)
}

// TestSnapshotDeclaresLength: the snapshot response's Content-Length is
// its body's length, so a follower's LoadDB sizes its columns once.
func TestSnapshotDeclaresLength(t *testing.T) {
	source := newReplica(t, "")
	ingestAll(t, source, testLinkages(5, 40))
	resp, err := http.Get(source.ts.URL + "/v1/repl/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != int64(len(body)) {
		t.Fatalf("Content-Length %d, body %d bytes", resp.ContentLength, len(body))
	}
	if db, err := fingerprint.LoadDB(bytes.NewReader(body)); err != nil || db.Len() != 40 {
		t.Fatalf("snapshot body: %v", err)
	}
}

// TestWritesRejectedDuringSync: while the state machine runs, external
// writes answer ErrSyncing — interleaving local appends with shipped
// records would fork the sequence history.
func TestWritesRejectedDuringSync(t *testing.T) {
	source := newReplica(t, "")
	ingestAll(t, source, testLinkages(4, 5))

	// A peer proxy that stalls the WAL fetch until released, keeping
	// the follower mid-sync while we probe its write path.
	release := make(chan struct{})
	entered := make(chan struct{})
	var once bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/repl/wal" && !once {
			once = true
			close(entered)
			<-release
		}
		resp, err := http.Get(source.ts.URL + r.URL.Path + "?" + r.URL.RawQuery)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(resp.StatusCode)
		buf := make([]byte, 32<<10)
		for {
			n, err := resp.Body.Read(buf)
			if n > 0 {
				w.Write(buf[:n])
			}
			if err != nil {
				return
			}
		}
	}))
	defer proxy.Close()

	follower := newReplica(t, proxy.URL)
	done := make(chan error, 1)
	go func() { done <- follower.syncer.Sync(context.Background()) }()
	<-entered
	if _, err := follower.syncer.IngestBatchCtx(context.Background(), testLinkages(5, 1)); err != ErrSyncing {
		t.Fatalf("write during sync: %v, want ErrSyncing", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// Live again: writes flow.
	if _, err := follower.syncer.IngestBatchCtx(context.Background(), testLinkages(6, 1)); err != nil {
		t.Fatalf("write after sync: %v", err)
	}
}

// TestNudgeEndpoint: POST /v1/repl/sync drives a resync over HTTP and
// /v1/repl/status reports the machine reaching live — the router's
// repair loop uses exactly these calls.
func TestNudgeEndpoint(t *testing.T) {
	source := newReplica(t, "")
	ingestAll(t, source, testLinkages(7, 30))
	follower := newReplica(t, "") // no configured peer

	// A bare nudge with no peer anywhere is a 400.
	resp, err := http.Post(follower.ts.URL+"/v1/repl/sync", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("peerless nudge answered %d, want 400", resp.StatusCode)
	}

	fc := fingerprint.NewClient(follower.ts.URL, nil)
	st, err := fc.ReplSync(context.Background(), source.ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if st.Peer == "" {
		t.Fatal("nudge did not adopt the named peer")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := fc.ReplStatus(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if st.State == StateLive.String() && st.Head == 30 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached live: %+v", st)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// Capability discovery reflects replication.
	var meta fingerprint.MetaResponse
	mresp, err := http.Get(follower.ts.URL + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	if err := decodeJSON(mresp.Body, &meta); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if !meta.Capabilities.Replication {
		t.Fatal("meta does not advertise replication")
	}
}
