package serve

import (
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/ingest"
)

func testDB(t testing.TB, dim, n, labels int) *fingerprint.DB {
	t.Helper()
	db, err := fingerprint.NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < n; i++ {
		f := make(fingerprint.Fingerprint, dim)
		for j := range f {
			f[j] = rng.Float32()
		}
		if err := db.Add(fingerprint.Linkage{F: f, Y: i % labels, S: "seed"}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestParseBackend: each wire name resolves to the backend it names,
// "" to flat, and a kind that names no backend is refused by Build,
// before anything is built, with the message the daemons print. The
// reference scan, "linear", is no serving kind: DB.Query stays the
// reference the indexes are checked against.
func TestParseBackend(t *testing.T) {
	cases := []struct {
		kind string
		want string
	}{
		{"", "flat"},
		{"flat", "flat"},
		{"ivf", "ivf"},
		{"ivfpq", "ivfpq"},
	}
	for _, c := range cases {
		b := BackendConfig{Kind: c.kind}
		if err := b.validate(); err != nil {
			t.Fatalf("%q: %v", c.kind, err)
		}
		if b.kind() != c.want {
			t.Fatalf("%q: kind %s, want %s", c.kind, b.kind(), c.want)
		}
	}
	for _, kind := range []string{"annoy", "linear"} {
		_, err := Deployment{Backend: BackendConfig{Kind: kind}}.Build(testDB(t, 8, 20, 2))
		if want := `serve: backend.kind must be flat, ivf, or ivfpq, got "` + kind + `"`; err == nil || err.Error() != want {
			t.Fatalf("backend kind %q: %v, want %s", kind, err, want)
		}
	}
}

// TestSpecBuildKinds: each kind builds the backend it names over the
// whole database; only the trained kinds supply a retrain hook.
func TestSpecBuildKinds(t *testing.T) {
	db := testDB(t, 8, 200, 4)
	for _, b := range []BackendConfig{
		{},
		{Kind: "flat"},
		{Kind: "ivf", Nlist: 2, Nprobe: 2, Seed: 3},
		{Kind: "ivfpq", Nlist: 2, Nprobe: 2, Seed: 3, M: 4},
	} {
		srv, err := Deployment{Backend: b}.Build(db)
		if err != nil {
			t.Fatalf("%q build: %v", b.Kind, err)
		}
		sr := srv.Service().Searcher()
		if sr.Kind() != b.kind() || sr.Len() != db.Len() {
			t.Fatalf("%q built a %s backend of %d entries, want %s of %d", b.Kind, sr.Kind(), sr.Len(), b.kind(), db.Len())
		}
		if hook := b.rebuild() != nil; hook != b.trains() || b.trains() != (b.Kind == "ivf" || b.Kind == "ivfpq") {
			t.Fatalf("%q: retrain hook %v, trains %v", b.Kind, hook, b.trains())
		}
	}
}

// TestDeploymentSingleReadOnly: the zero-value deployment is one Flat
// query service with no write path.
func TestDeploymentSingleReadOnly(t *testing.T) {
	db := testDB(t, 8, 100, 4)
	srv, err := Deployment{}.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Service() == nil || srv.router != nil || srv.Store() != nil {
		t.Fatalf("single build shape: svc=%v router=%v stores=%v", srv.Service(), srv.router, srv.Stores())
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := fingerprint.NewClient(hs.URL, hs.Client())
	meta, err := client.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Backend != "flat" || meta.Capabilities.Ingest || meta.Capabilities.Sharded {
		t.Fatalf("meta: %+v", meta)
	}
	if _, err := client.Ingest([]fingerprint.IngestEntry{{Fingerprint: make([]float32, 8)}}); err == nil {
		t.Fatal("read-only deployment accepted a write")
	}
	q := make(fingerprint.Fingerprint, 8)
	resp, err := client.Query(q, 1, 3)
	if err != nil || len(resp.Matches) != 3 {
		t.Fatalf("query: %v %v", resp, err)
	}
}

// TestDeploymentSingleVolatileWrites: VolatileWrites enables a
// non-durable write path on every backend that can append.
func TestDeploymentSingleVolatileWrites(t *testing.T) {
	for _, b := range []BackendConfig{{}, {Kind: "flat"}, {Kind: "ivf", Nlist: 2, Nprobe: 2, Seed: 5}} {
		db := testDB(t, 8, 120, 3)
		srv, err := Deployment{Backend: b, VolatileWrites: true}.Build(db)
		if err != nil {
			t.Fatalf("%s: %v", b.Kind, err)
		}
		hs := httptest.NewServer(srv.Handler())
		client := fingerprint.NewClient(hs.URL, hs.Client())
		meta, err := client.Meta()
		if err != nil || !meta.Capabilities.Ingest {
			t.Fatalf("%s meta: %+v %v", b.Kind, meta, err)
		}
		f := make([]float32, 8)
		f[0] = 42 // far from the seed cloud
		resp, err := client.Ingest([]fingerprint.IngestEntry{{Fingerprint: f, Label: 1, Source: "new"}})
		if err != nil || resp.Accepted != 1 {
			t.Fatalf("%s ingest: %+v %v", b.Kind, resp, err)
		}
		q, err := client.Query(fingerprint.Fingerprint(f), 1, 1)
		if err != nil || len(q.Matches) != 1 || q.Matches[0].Source != "new" {
			t.Fatalf("%s: ingested entry not served: %+v %v", b.Kind, q, err)
		}
		// All-or-nothing validation: a bad entry anywhere rejects the batch.
		bad := []fingerprint.IngestEntry{
			{Fingerprint: make([]float32, 8), Label: 0, Source: "x"},
			{Fingerprint: make([]float32, 3), Label: 0, Source: "x"},
		}
		before := srv.Service().Searcher().Len()
		if _, err := client.Ingest(bad); err == nil {
			t.Fatalf("%s: mixed-dimension batch accepted", b.Kind)
		}
		if got := srv.Service().Searcher().Len(); got != before {
			t.Fatalf("%s: rejected batch half-applied: %d → %d", b.Kind, before, got)
		}
		hs.Close()
	}
}

// TestDeploymentVolatileRetrains: a volatile write path is the durable
// one without a log, so an IVF deployment ingesting past the drift
// threshold retrains and hot-swaps its backend instead of losing recall
// without bound — and Close waits for the swap, whose duration
// LastRetrain reports. Nothing is exposed to snapshot.
func TestDeploymentVolatileRetrains(t *testing.T) {
	db := testDB(t, 8, 300, 3)
	srv, err := Deployment{Backend: BackendConfig{Kind: "ivf", Nlist: 4, Nprobe: 1, Seed: 5}, VolatileWrites: true}.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Store() != nil || len(srv.Stores()) != 0 {
		t.Fatalf("a volatile deployment exposed stores to snapshot: %v", srv.Stores())
	}
	if d := srv.LastRetrain(); d != 0 {
		t.Fatalf("LastRetrain %v before any retrain", d)
	}
	before := srv.Service().Searcher()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := fingerprint.NewClient(hs.URL, hs.Client())
	// 120 appends over 300 entries: drift 0.29, past the default 0.25.
	entries := make([]fingerprint.IngestEntry, 120)
	for i := range entries {
		f := make([]float32, 8)
		f[i%8] = 10 + float32(i)
		entries[i] = fingerprint.IngestEntry{Fingerprint: f, Label: i % 3, Source: "volatile"}
	}
	if resp, err := client.Ingest(entries); err != nil || resp.Accepted != len(entries) {
		t.Fatalf("ingest: %+v %v", resp, err)
	}
	if err := srv.Close(); err != nil { // waits for the background retrain
		t.Fatal(err)
	}
	after := srv.Service().Searcher()
	if after == before {
		t.Fatal("no retrained backend swapped in past the drift threshold")
	}
	if srv.LastRetrain() <= 0 {
		t.Fatal("the volatile write path's retrain was not timed")
	}
	if d := after.(*index.IVF).Drift(); after.Len() != 420 || d >= ingest.DefaultDriftThreshold {
		t.Fatalf("swapped backend: %d entries, drift %v; want 420 below %v", after.Len(), d, ingest.DefaultDriftThreshold)
	}
	st, err := client.Stats()
	if err != nil || st.Ingest == nil || st.Ingest.Retrains != 1 || st.Ingest.WALBytes != 0 {
		t.Fatalf("stats after the retrain: %+v %v", st.Ingest, err)
	}
	for i, e := range entries {
		q, err := client.Query(fingerprint.Fingerprint(e.Fingerprint), e.Label, 1)
		if err != nil || len(q.Matches) != 1 || q.Matches[0].Source != "volatile" || q.Matches[0].Distance != 0 {
			t.Fatalf("entry %d through the retrained backend: %+v %v", i, q, err)
		}
	}
}

// TestDeploymentShardedReadOnlyMeta: a sharded build with no write
// path says so on /v1/meta instead of advertising ingest and answering
// 501 per shard.
func TestDeploymentShardedReadOnlyMeta(t *testing.T) {
	db := testDB(t, 8, 100, 4)
	srv, err := Deployment{Shards: 2}.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := fingerprint.NewClient(hs.URL, hs.Client())
	meta, err := client.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Capabilities.Ingest || !meta.Capabilities.Sharded {
		t.Fatalf("read-only sharded meta: %+v", meta.Capabilities)
	}
	// A write anyway fans out and comes back failed (501 per replica →
	// quorum miss), mirroring a read-only external tier.
	resp, err := client.Ingest([]fingerprint.IngestEntry{{Fingerprint: make([]float32, 8)}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 0 || resp.Failed != 1 || len(resp.FailedShards) != 1 {
		t.Fatalf("read-only sharded deployment accepted a write: %+v", resp)
	}
}

// TestDeploymentShardedRouterTakesLimits: the in-process router
// enforces the limits block at its door, as a router over shard daemons
// does: a batch the block admits is not refused at the router's default
// bound, a body past max_body_bytes is, and the router's own latency
// histogram has the block's bounds.
func TestDeploymentShardedRouterTakesLimits(t *testing.T) {
	db := testDB(t, 2, 100, 4)
	ms := func(n int) Duration { return Duration(time.Duration(n) * time.Millisecond) }
	srv, err := Deployment{Shards: 2, Limits: &LimitsConfig{
		MaxBatch: 300, MaxBodyBytes: 24 << 10, LatencyBuckets: []Duration{ms(1), ms(7), ms(40)},
	}}.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := fingerprint.NewClient(hs.URL, hs.Client())

	reqs := make([]fingerprint.QueryRequest, 280)
	for i := range reqs {
		e := db.Entry(i % db.Len())
		reqs[i] = fingerprint.QueryRequest{Fingerprint: e.F, Label: e.Y, K: 1}
	}
	resp, err := client.QueryBatch(reqs)
	if err != nil {
		t.Fatalf("280 queries under limits.max_batch 300: %v", err)
	}
	for i, r := range resp.Results {
		if r.Error != "" || len(r.Matches) != 1 {
			t.Fatalf("result %d: %+v", i, r)
		}
	}

	body := `{"queries": [` + strings.Repeat(" ", 32<<10) + `]}`
	hr, err := hs.Client().Post(hs.URL+"/v1/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var envelope struct{ Code string }
	err = json.NewDecoder(hr.Body).Decode(&envelope)
	hr.Body.Close()
	if err != nil || hr.StatusCode != http.StatusRequestEntityTooLarge || envelope.Code != fingerprint.ErrCodeBodyTooLarge {
		t.Fatalf("32 KiB body past limits.max_body_bytes 24 KiB: status %d, code %q (%v)", hr.StatusCode, envelope.Code, err)
	}

	metrics, err := client.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, le := range []string{"0.001", "0.007", "0.04"} {
		if line := `caltrain_query_latency_seconds_bucket{le="` + le + `"}`; !strings.Contains(metrics, line) {
			t.Errorf("router metrics lack %s", line)
		}
	}
}

// TestDeploymentShardedIngestRoutesToOwningShard is the acceptance
// check of the in-process sharded write path: POST /ingest against the
// router lands each entry on the shard owning its label, and only
// there.
func TestDeploymentShardedIngestRoutesToOwningShard(t *testing.T) {
	db := testDB(t, 8, 300, 6)
	srv, err := Deployment{Shards: 3, VolatileWrites: true}.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	if srv.router == nil || srv.Service() != nil {
		t.Fatal("sharded build shape wrong")
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := fingerprint.NewClient(hs.URL, hs.Client())
	meta, err := client.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Backend != "router" || !meta.Capabilities.Sharded || !meta.Capabilities.Ingest {
		t.Fatalf("router meta: %+v", meta)
	}

	entries := make([]fingerprint.IngestEntry, 6)
	for i := range entries {
		f := make([]float32, 8)
		f[i%8] = 50 + float32(i)
		entries[i] = fingerprint.IngestEntry{Fingerprint: f, Label: i, Source: "routed"}
	}
	resp, err := client.Ingest(entries)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != len(entries) || resp.Failed != 0 {
		t.Fatalf("routed ingest: %+v", resp)
	}
	// Every entry is queryable through the router, served by its owning
	// shard (exact-match distance 0 on the ingested fingerprint).
	for i, e := range entries {
		q, err := client.Query(fingerprint.Fingerprint(e.Fingerprint), e.Label, 1)
		if err != nil || len(q.Matches) != 1 {
			t.Fatalf("entry %d: %v %v", i, q, err)
		}
		if q.Matches[0].Source != "routed" || q.Matches[0].Distance > 1e-6 {
			t.Fatalf("entry %d not served by owning shard: %+v", i, q.Matches[0])
		}
	}
	// Stats across shards account for every seed + ingested entry.
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 300+len(entries) {
		t.Fatalf("router stats entries %d, want %d", st.Entries, 300+len(entries))
	}
}

// TestDeploymentShardedDurableWrites: with a WAL, a routed write is
// durable — rebuilding the same deployment over the same seed database
// and WAL dir replays it into the owning shard.
func TestDeploymentShardedDurableWrites(t *testing.T) {
	walDir := t.TempDir()
	build := func() (*Server, *fingerprint.DB) {
		db := testDB(t, 8, 200, 4)
		srv, err := Deployment{
			Shards: 2,
			WAL:    &WALConfig{Dir: walDir, Fsync: "always"},
		}.Build(db)
		if err != nil {
			t.Fatal(err)
		}
		return srv, db
	}
	srv, _ := build()
	if len(srv.Stores()) != 2 {
		t.Fatalf("expected one store per shard, got %d", len(srv.Stores()))
	}
	hs := httptest.NewServer(srv.Handler())
	client := fingerprint.NewClient(hs.URL, hs.Client())
	f := make([]float32, 8)
	f[3] = 77
	resp, err := client.Ingest([]fingerprint.IngestEntry{{Fingerprint: f, Label: 3, Source: "durable"}})
	if err != nil || resp.Accepted != 1 {
		t.Fatalf("ingest: %+v %v", resp, err)
	}
	hs.Close() // abandon without snapshot, like a SIGKILL

	srv2, _ := build()
	defer srv2.Close()
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	client2 := fingerprint.NewClient(hs2.URL, hs2.Client())
	q, err := client2.Query(fingerprint.Fingerprint(f), 3, 1)
	if err != nil || len(q.Matches) != 1 {
		t.Fatalf("replayed query: %v %v", q, err)
	}
	if q.Matches[0].Source != "durable" || q.Matches[0].Distance > 1e-6 {
		t.Fatalf("acknowledged write lost across rebuild: %+v", q.Matches[0])
	}
}

// TestDeploymentShardedBuildFailureClosesStores: a sharded Build that
// fails part-way, here at shard 1's log, whose path is a file, closes
// the write paths it had already opened, as a clean shutdown does; once
// the file is gone, the same Build succeeds.
func TestDeploymentShardedBuildFailureClosesStores(t *testing.T) {
	open := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count open files by")
		}
		return len(fds)
	}
	dep := func(dir string) Deployment {
		return Deployment{Shards: 2, WAL: &WALConfig{Dir: dir, Fsync: "always"}}
	}
	// Whatever the process opens once and keeps is in the baseline.
	warm, err := dep(t.TempDir()).Build(testDB(t, 8, 200, 4))
	if err != nil {
		t.Fatal(err)
	}
	warm.Close()

	walDir := t.TempDir()
	blocker := filepath.Join(walDir, "shard-1")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	before := open()
	if _, err := dep(walDir).Build(testDB(t, 8, 200, 4)); err == nil || !strings.Contains(err.Error(), "not a directory") {
		t.Fatalf("shard 1's log path is a file: %v, want \"not a directory\"", err)
	}
	if after := open(); after > before {
		t.Fatalf("the failed Build left %d files open, %d before it", after, before)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	srv, err := dep(walDir).Build(testDB(t, 8, 200, 4))
	if err != nil {
		t.Fatalf("Build once shard 1's log path is free: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeploymentReplicasPerShard: replicated shards acknowledge writes
// on every replica, and a write-visible query works via the router.
func TestDeploymentReplicasPerShard(t *testing.T) {
	db := testDB(t, 8, 100, 4)
	srv, err := Deployment{Shards: 2, ReplicasPerShard: 2, VolatileWrites: true}.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := fingerprint.NewClient(hs.URL, hs.Client())
	f := make([]float32, 8)
	f[1] = 33
	resp, err := client.Ingest([]fingerprint.IngestEntry{{Fingerprint: f, Label: 2, Source: "rep"}})
	if err != nil || resp.Accepted != 1 || len(resp.DegradedReplicas) != 0 {
		t.Fatalf("replicated ingest: %+v %v", resp, err)
	}
	q, err := client.Query(fingerprint.Fingerprint(f), 2, 1)
	if err != nil || len(q.Matches) != 1 || q.Matches[0].Source != "rep" {
		t.Fatalf("replicated query: %+v %v", q, err)
	}
}

// TestDeploymentIVFEmptyShardFallsBackToFlat: an IVF deployment over a
// database whose labels all hash to a subset of shards serves the empty
// shards exact instead of failing to train.
func TestDeploymentIVFEmptyShardFallsBackToFlat(t *testing.T) {
	db := testDB(t, 8, 120, 1) // one label: most shards empty
	srv, err := Deployment{
		Backend:        BackendConfig{Kind: "ivf", Nlist: 2, Nprobe: 2, Seed: 9},
		Shards:         4,
		VolatileWrites: true,
	}.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := fingerprint.NewClient(hs.URL, hs.Client())
	// A write to a label owned by an (empty) shard still lands and serves.
	for label := 0; label < 8; label++ {
		f := make([]float32, 8)
		f[label%8] = 60
		if _, err := client.Ingest([]fingerprint.IngestEntry{{Fingerprint: f, Label: label, Source: "any"}}); err != nil {
			t.Fatalf("label %d: %v", label, err)
		}
	}
}
