package serve

import (
	"bytes"
	"math/rand/v2"
	"net/http/httptest"
	"reflect"
	"testing"

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

func TestParseBackend(t *testing.T) {
	cases := []struct {
		kind string
		want string
	}{
		{"linear", "linear"},
		{"flat", "flat"},
		{"ivf", "ivf"},
		{"ivfpq", "ivfpq"},
	}
	for _, c := range cases {
		spec, err := ParseBackend(c.kind, index.IVFPQOptions{})
		if err != nil {
			t.Fatalf("%s: %v", c.kind, err)
		}
		if spec.Kind() != c.want {
			t.Fatalf("%s: kind %s", c.kind, spec.Kind())
		}
	}
	if _, err := ParseBackend("annoy", index.IVFPQOptions{}); err == nil {
		t.Fatal("unknown backend kind accepted")
	}
}

func TestSpecBuildKinds(t *testing.T) {
	db := testDB(t, 8, 200, 4)
	for _, spec := range []BackendSpec{
		LinearSpec{},
		FlatSpec{},
		IVFSpec{index.IVFOptions{Nlist: 2, Nprobe: 2, Seed: 3}},
		IVFPQSpec{index.IVFPQOptions{IVFOptions: index.IVFOptions{Nlist: 2, Nprobe: 2, Seed: 3}, M: 4}},
	} {
		sr, err := spec.Build(db)
		if err != nil {
			t.Fatalf("%s build: %v", spec.Kind(), err)
		}
		if sr.Kind() != spec.Kind() {
			t.Fatalf("spec %s built a %s backend", spec.Kind(), sr.Kind())
		}
		if sr.Len() != db.Len() {
			t.Fatalf("%s: %d entries, want %d", spec.Kind(), sr.Len(), db.Len())
		}
	}
	// LinearSpec serves the live database itself; FlatSpec a snapshot;
	// IVFSpec supplies a retrain hook, the exact specs none.
	if sr, _ := (LinearSpec{}).Build(db); sr.(*fingerprint.DB) != db {
		t.Fatal("linear spec did not serve the database itself")
	}
	if (LinearSpec{}).Rebuild() != nil || (FlatSpec{}).Rebuild() != nil {
		t.Fatal("exact specs should not retrain")
	}
	if (IVFSpec{}).Rebuild() == nil {
		t.Fatal("IVFSpec must supply a rebuild hook")
	}
	if (IVFPQSpec{}).Rebuild() == nil {
		t.Fatal("ivf spec has no retrain hook")
	}
}

func TestPrebuiltSpec(t *testing.T) {
	db := testDB(t, 8, 50, 2)
	flat := index.NewFlat(db)
	spec := PrebuiltSpec{Searcher: flat}
	if spec.Kind() != "flat" {
		t.Fatalf("prebuilt kind %s", spec.Kind())
	}
	sr, err := spec.Build(db)
	if err != nil || sr != fingerprint.Searcher(flat) {
		t.Fatalf("prebuilt build: %v %v", sr, err)
	}
	if _, err := (Deployment{Backend: spec, Shards: 2}).Build(db); err == nil {
		t.Fatal("sharded prebuilt backend accepted")
	}

	// An IVFPQ index loaded over the database answers with exact
	// distances like the index it was saved from; Build attaches it to
	// the database it serves, and fails for a database that is not the
	// indexed one.
	trained, err := index.TrainIVFPQ(db, index.IVFPQOptions{IVFOptions: index.IVFOptions{Nlist: 2, Nprobe: 2, Seed: 3}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := index.Save(&saved, trained); err != nil {
		t.Fatal(err)
	}
	q := db.Entry(7).F
	want, _ := trained.Search(q, db.Entry(7).Y, 5)
	for _, c := range []struct {
		db *fingerprint.DB
		ok bool
	}{{testDB(t, 8, 50, 5), false}, {db, true}} {
		loaded, err := index.Load(bytes.NewReader(saved.Bytes()), db)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := PrebuiltSpec{Searcher: loaded}.Build(c.db)
		if (err == nil) != c.ok {
			t.Fatalf("prebuilt ivfpq over a %d-label database: %v", len(c.db.Labels()), err)
		}
		if !c.ok {
			continue
		}
		if got, _ := sr.Search(q, db.Entry(7).Y, 5); !reflect.DeepEqual(got, want) || got[0].Distance != 0 {
			t.Fatalf("prebuilt ivfpq after Build: %+v, want the trained index's %+v", got, want)
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
	if srv.Service() == nil || srv.Router() != nil || srv.Store() != nil {
		t.Fatalf("single build shape: svc=%v router=%v stores=%v", srv.Service(), srv.Router(), srv.Stores())
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
	for _, spec := range []BackendSpec{LinearSpec{}, FlatSpec{}, IVFSpec{index.IVFOptions{Nlist: 2, Nprobe: 2, Seed: 5}}} {
		db := testDB(t, 8, 120, 3)
		srv, err := Deployment{Backend: spec, VolatileWrites: true}.Build(db)
		if err != nil {
			t.Fatalf("%s: %v", spec.Kind(), err)
		}
		hs := httptest.NewServer(srv.Handler())
		client := fingerprint.NewClient(hs.URL, hs.Client())
		meta, err := client.Meta()
		if err != nil || !meta.Capabilities.Ingest {
			t.Fatalf("%s meta: %+v %v", spec.Kind(), meta, err)
		}
		f := make([]float32, 8)
		f[0] = 42 // far from the seed cloud
		resp, err := client.Ingest([]fingerprint.IngestEntry{{Fingerprint: f, Label: 1, Source: "new"}})
		if err != nil || resp.Accepted != 1 {
			t.Fatalf("%s ingest: %+v %v", spec.Kind(), resp, err)
		}
		q, err := client.Query(fingerprint.Fingerprint(f), 1, 1)
		if err != nil || len(q.Matches) != 1 || q.Matches[0].Source != "new" {
			t.Fatalf("%s: ingested entry not served: %+v %v", spec.Kind(), q, err)
		}
		// All-or-nothing validation: a bad entry anywhere rejects the batch.
		bad := []fingerprint.IngestEntry{
			{Fingerprint: make([]float32, 8), Label: 0, Source: "x"},
			{Fingerprint: make([]float32, 3), Label: 0, Source: "x"},
		}
		before := srv.Service().Searcher().Len()
		if _, err := client.Ingest(bad); err == nil {
			t.Fatalf("%s: mixed-dimension batch accepted", spec.Kind())
		}
		if got := srv.Service().Searcher().Len(); got != before {
			t.Fatalf("%s: rejected batch half-applied: %d → %d", spec.Kind(), before, got)
		}
		hs.Close()
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
	if srv.Router() == nil || srv.Service() != nil {
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
			WAL:    &WALConfig{Dir: walDir, Store: ingest.Options{WAL: ingest.WALOptions{Sync: ingest.SyncAlways}}},
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
		Backend:        IVFSpec{index.IVFOptions{Nlist: 2, Nprobe: 2, Seed: 9}},
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
