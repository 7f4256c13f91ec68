package caltrain

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
)

func TestSaveLoadModelFacade(t *testing.T) {
	cfg := quickConfig().Model
	net, err := BuildModel(cfg, 77)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, cfg, net); err != nil {
		t.Fatal(err)
	}
	cfg2, net2, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if cfg2.Name != cfg.Name || net2.NumLayers() != net.NumLayers() {
		t.Fatalf("round trip mismatch: %s/%d", cfg2.Name, net2.NumLayers())
	}
}

func TestLinkageDBFacadeAndClient(t *testing.T) {
	db, err := newTestDB(16, 30)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadLinkageDB(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != db.Len() {
		t.Fatalf("db round trip: %d vs %d", db2.Len(), db.Len())
	}
	srv := httptest.NewServer(NewQueryService(db2))
	defer srv.Close()
	client := NewQueryClient(srv.URL)
	q := make(Fingerprint, 16)
	q[0] = 1
	resp, err := client.Query(q, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Matches) == 0 {
		t.Fatal("no matches over HTTP facade")
	}
}

// TestIndexServingFacade drives the new serving surface end to end: build
// indexes over a linkage database, verify agreement and recall, persist
// and reload, serve through the hot-swappable service, and batch-query it.
func TestIndexServingFacade(t *testing.T) {
	db, err := newTestDB(16, 400)
	if err != nil {
		t.Fatal(err)
	}
	flat := NewFlatIndex(db)
	ivf, err := TrainIVFIndex(db, IVFOptions{Nlist: 8, Nprobe: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}

	rng := rand.New(rand.NewPCG(9, 9))
	queries := make([]Fingerprint, 20)
	labels := make([]int, 20)
	for i := range queries {
		f := make(Fingerprint, 16)
		for j := range f {
			f[j] = rng.Float32()
		}
		queries[i], labels[i] = f, i%3
	}
	// Full probe: IVF must agree exactly, so recall is 1.
	r, err := IndexRecall(flat, ivf, queries, labels, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("full-probe recall %v, want 1", r)
	}

	var buf bytes.Buffer
	if err := SaveIndex(&buf, ivf); err != nil {
		t.Fatal(err)
	}
	reloaded, err := LoadIndex(&buf, db)
	if err != nil {
		t.Fatal(err)
	}

	svc := NewSearcherQueryService(flat, WithMaxK(64))
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewQueryClient(srv.URL)
	resp, err := client.QueryBatch([]QueryRequest{
		{Fingerprint: queries[0], Label: 0, K: 4},
		{Fingerprint: queries[1], Label: 1, K: 100}, // over WithMaxK: per-query error
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" || len(resp.Results[0].Matches) != 4 {
		t.Fatalf("batch result 0: %+v", resp.Results[0])
	}
	if resp.Results[1].Error == "" {
		t.Fatal("oversized k in batch succeeded")
	}
	// Hot-swap to the reloaded IVF index; stats reflect it.
	svc.SetSearcher(reloaded)
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Index != "ivf" || st.Entries != 400 {
		t.Fatalf("stats after swap: %+v", st)
	}
}

// TestShardedServingFacade drives the distributed serving surface end
// to end through the public API: shard-map round trip, SplitDB, local
// replicas behind a router, scatter-gather batches, and aggregated
// stats.
func TestShardedServingFacade(t *testing.T) {
	db, err := newTestDB(16, 300)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewHashShardMap(2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveShardMap(&buf, m); err != nil {
		t.Fatal(err)
	}
	m, err = LoadShardMap(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.Strategy() != ShardByHash || m.NumShards() != 2 {
		t.Fatalf("map round trip: %v/%d", m.Strategy(), m.NumShards())
	}
	parts, err := SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([][]ShardReplica, len(parts))
	for i, p := range parts {
		replicas[i] = []ShardReplica{NewLocalShardReplica("local", NewSearcherQueryService(NewFlatIndex(p)))}
	}
	rt, err := NewShardRouter(m, replicas, WithRouterMaxBatch(64))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()
	client := NewQueryClient(srv.URL)

	single := NewFlatIndex(db)
	reqs := make([]QueryRequest, 9)
	for i := range reqs {
		f := make(Fingerprint, 16)
		f[i%16] = 1
		reqs[i] = QueryRequest{Fingerprint: f, Label: i % 3, K: 4}
	}
	resp, err := client.QueryBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.UnreachableShards) != 0 {
		t.Fatalf("unreachable shards: %v", resp.UnreachableShards)
	}
	for i, res := range resp.Results {
		if res.Error != "" || len(res.Matches) != 4 {
			t.Fatalf("routed result %d: %+v", i, res)
		}
		want, err := single.Search(reqs[i].Fingerprint, reqs[i].Label, reqs[i].K)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if res.Matches[j].Distance != want[j].Distance || res.Matches[j].Source != want[j].Source {
				t.Fatalf("routed result %d match %d diverges", i, j)
			}
		}
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Index != "router" || st.Entries != db.Len() {
		t.Fatalf("router stats through facade client: %+v", st)
	}
	if err := client.Healthz(); err != nil {
		t.Fatal(err)
	}
}

// TestDeploymentFacade drives the declarative serving API end to end
// through the public surface: one Deployment literal describes the
// topology, Build assembles it, and the client discovers its
// capabilities on /v1/meta. The sharded shape carries the write path:
// POST /v1/ingest against the router lands each entry on the shard owning
// its label.
func TestDeploymentFacade(t *testing.T) {
	db, err := newTestDB(16, 300)
	if err != nil {
		t.Fatal(err)
	}
	built, err := Deployment{
		Backend:        IVFSpec{IVFOptions: IVFOptions{Nlist: 4, Nprobe: 4, Seed: 11}},
		Shards:         3,
		VolatileWrites: true,
		Limits:         []ServiceOption{WithMaxK(32)},
	}.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(built.Handler())
	defer srv.Close()
	client := NewQueryClient(srv.URL)

	meta, err := client.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Backend != "router" || !meta.Capabilities.Sharded || !meta.Capabilities.Ingest {
		t.Fatalf("deployment meta: %+v", meta)
	}

	// Routed writes land on the owning shard and serve immediately.
	entries := make([]IngestEntry, 3)
	for i := range entries {
		f := make([]float32, 16)
		f[i] = 40
		entries[i] = IngestEntry{Fingerprint: f, Label: i, Source: "deployed"}
	}
	resp, err := client.Ingest(entries)
	if err != nil || resp.Accepted != 3 {
		t.Fatalf("routed ingest through facade: %+v %v", resp, err)
	}
	for i, e := range entries {
		q, err := client.Query(Fingerprint(e.Fingerprint), e.Label, 1)
		if err != nil || len(q.Matches) != 1 || q.Matches[0].Source != "deployed" {
			t.Fatalf("entry %d not served by its shard: %+v %v", i, q, err)
		}
	}

	// Limits flow into every per-shard service.
	if _, err := client.Query(make(Fingerprint, 16), 0, 33); err == nil {
		t.Fatal("k over deployment limit accepted")
	}

	// The single durable shape: same declarative config, WAL-backed, and
	// a rebuild over the same directory replays the acknowledged write.
	walDir := t.TempDir()
	single := func() (*DeploymentServer, *LinkageDB) {
		seed, err := newTestDB(16, 60)
		if err != nil {
			t.Fatal(err)
		}
		s, err := Deployment{WAL: &WALConfig{Dir: walDir}}.Build(seed)
		if err != nil {
			t.Fatal(err)
		}
		return s, seed
	}
	s1, _ := single()
	f := make([]float32, 16)
	f[7] = 70
	if _, err := s1.Store().IngestBatch([]Linkage{{F: f, Y: 1, S: "durable"}}); err != nil {
		t.Fatal(err)
	}
	s2, db2 := single()
	defer s2.Close()
	if db2.Len() != 61 {
		t.Fatalf("rebuild replayed to %d entries, want 61", db2.Len())
	}
	m, err := s2.Service().Searcher().Search(f, 1, 1)
	if err != nil || len(m) != 1 || m[0].Source != "durable" {
		t.Fatalf("durable write lost: %+v %v", m, err)
	}
}

// TestDeploymentConfigFacade: the JSON file form of a Deployment parses
// through the facade, builds the declared topology, and client
// rejections carry the typed wire-protocol code.
func TestDeploymentConfigFacade(t *testing.T) {
	db, err := newTestDB(16, 200)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := ParseDeploymentConfig(strings.NewReader(
		`{"backend": {"kind": "flat"}, "shards": 2, "volatile_writes": true, "limits": {"max_k": 16}}`))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	built, err := dep.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	defer built.Close()
	srv := httptest.NewServer(built.Handler())
	defer srv.Close()
	client := NewQueryClient(srv.URL)

	meta, err := client.Meta()
	if err != nil || !meta.Capabilities.Sharded || !meta.Capabilities.Ingest {
		t.Fatalf("config-built meta: %+v %v", meta, err)
	}

	// Typed rejection: the config's max_k surfaces as ErrCodeLimitExceeded,
	// branchable without message matching.
	_, err = client.Query(make(Fingerprint, 16), 0, 17)
	if ErrorCodeOf(err) != ErrCodeLimitExceeded {
		t.Fatalf("k over config limit: %v (code %q)", err, ErrorCodeOf(err))
	}
	var ae *APIError
	if !errors.As(err, &ae) || ae.Status != 400 {
		t.Fatalf("typed error: %v (%+v)", err, ae)
	}
	if _, err := client.Query(make(Fingerprint, 16), 0, 4); err != nil || ErrorCodeOf(err) != "" {
		t.Fatalf("success: %v (code %q)", err, ErrorCodeOf(err))
	}

	// A typo'd knob fails at parse time, not silently at serve time.
	if _, err := ParseDeploymentConfig(strings.NewReader(`{"shrads": 2}`)); err == nil {
		t.Fatal("unknown config field accepted")
	}
}

func newTestDB(dim, n int) (*LinkageDB, error) {
	db, err := NewLinkageDB(dim)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < n; i++ {
		f := make(Fingerprint, dim)
		for j := range f {
			f[j] = rng.Float32()
		}
		if err := db.Add(Linkage{F: f, Y: i % 3, S: "src"}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func TestPoisonAndStampFacade(t *testing.T) {
	ds := SynthFace(FaceOptions{Identities: 3, H: 12, W: 12, PerID: 6, Seed: 3})
	tr := &Trigger{Size: 3, C: 3, Target: 1, Patch: make([]float32, 27)}
	for i := range tr.Patch {
		tr.Patch[i] = 1
	}
	poisoned := PoisonDataset(tr, ds, 5, 9)
	if poisoned.Len() != 5 {
		t.Fatalf("poisoned %d", poisoned.Len())
	}
	for _, r := range poisoned.Records {
		if r.Label != 1 {
			t.Fatal("poisoned label wrong")
		}
	}
	stamped := StampDataset(tr, ds)
	if stamped.Len() != ds.Len() {
		t.Fatal("stamp changed size")
	}
	for i := range stamped.Records {
		if stamped.Records[i].Label != ds.Records[i].Label {
			t.Fatal("stamp changed labels")
		}
	}
}

func TestFederationFacade(t *testing.T) {
	fed, err := NewFederation(FederationConfig{
		Session:     quickConfig(),
		Hubs:        2,
		LocalEpochs: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if fed.Hubs() != 2 {
		t.Fatalf("hubs = %d", fed.Hubs())
	}
	ds := SynthCIFAR(DataOptions{Classes: 3, H: 12, W: 12, PerClass: 12, Seed: 21})
	shards := ds.PartitionAmong(2)
	for i, shard := range shards {
		p := NewParticipant([]string{"x", "y"}[i], shard, uint64(600+i))
		if _, err := fed.AddParticipant(i, p); err != nil {
			t.Fatal(err)
		}
	}
	st, err := fed.Round()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.HubLosses) != 2 {
		t.Fatalf("losses: %v", st.HubLosses)
	}
}

// TestWarmStartContinuesFromReleasedModel: a refinement session
// initialized via WarmStart serves the previous round's predictions
// before any new training.
func TestWarmStartContinuesFromReleasedModel(t *testing.T) {
	cfg := quickConfig()
	ds := SynthCIFAR(DataOptions{Classes: 3, H: 12, W: 12, PerClass: 16, Seed: 41})
	alice := NewParticipant("alice", ds, 42)

	sess1, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess1.AddParticipant(alice); err != nil {
		t.Fatal(err)
	}
	if _, err := sess1.Train(); err != nil {
		t.Fatal(err)
	}
	rm, err := sess1.Release("alice")
	if err != nil {
		t.Fatal(err)
	}
	v1, _, err := alice.AssembleModel(rm)
	if err != nil {
		t.Fatal(err)
	}

	sess2, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	alice2 := NewParticipant("alice", ds, 43)
	if _, err := sess2.AddParticipant(alice2); err != nil {
		t.Fatal(err)
	}
	if err := sess2.WarmStart(alice2, v1); err != nil {
		t.Fatal(err)
	}
	// Session 2's model now predicts exactly like v1.
	in, labels := ds.Batch(0, 6)
	top1v1, _, err := Accuracy(v1, ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	probs2, err := sess2.server.Trainer().Predict(in)
	if err != nil {
		t.Fatal(err)
	}
	hits := 0
	classes := probs2.Dim(1)
	for b := 0; b < probs2.Dim(0); b++ {
		best, bi := float32(-1), -1
		for c := 0; c < classes; c++ {
			if v := probs2.At(b, c); v > best {
				best, bi = v, c
			}
		}
		if bi == labels[b] {
			hits++
		}
	}
	_ = top1v1
	// Strongest check: the released model and the warm-started session
	// produce identical probabilities on the same inputs.
	ref, err := Classify(v1, ds.Subset([]int{0, 1, 2, 3, 4, 5}), 1)
	if err != nil {
		t.Fatal(err)
	}
	for b := 0; b < probs2.Dim(0); b++ {
		best, bi := float32(-1), -1
		for c := 0; c < classes; c++ {
			if v := probs2.At(b, c); v > best {
				best, bi = v, c
			}
		}
		if bi != ref[b][0] {
			t.Fatalf("warm-started session diverges from v1 at record %d", b)
		}
	}
	// WarmStart from an unregistered participant fails.
	stranger := NewParticipant("stranger", ds, 44)
	if err := sess2.WarmStart(stranger, v1); err == nil {
		t.Fatal("warm start from unprovisioned participant accepted")
	}
}

func TestClassifyFacade(t *testing.T) {
	ds := SynthCIFAR(DataOptions{Classes: 3, H: 12, W: 12, PerClass: 4, Seed: 31})
	net, err := BuildModel(quickConfig().Model, 32)
	if err != nil {
		t.Fatal(err)
	}
	preds, err := Classify(net, ds, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != ds.Len() || len(preds[0]) != 2 {
		t.Fatalf("preds shape %d/%d", len(preds), len(preds[0]))
	}
}

// TestIngestFacade drives the write-path surface end to end through the
// public API: open a WAL-backed store over an appendable index, ingest
// through the HTTP client, kill-and-replay, snapshot compaction, and
// the typed loader sentinels.
func TestIngestFacade(t *testing.T) {
	db, err := newTestDB(16, 60)
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	flat := NewFlatIndex(db)
	svc := NewSearcherQueryService(flat)
	store, err := OpenIngestStore(walDir, db, flat, IngestOptions{
		WAL: WALOptions{Sync: WALSyncAlways},
	})
	if err != nil {
		t.Fatal(err)
	}
	svc.SetIngester(store)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewIngestClient(srv.URL)

	entries := make([]IngestEntry, 5)
	for i := range entries {
		f := make([]float32, 16)
		f[i] = 9 // far from the uniform seed cloud
		entries[i] = IngestEntry{Fingerprint: f, Label: i % 3, Source: "facade"}
	}
	resp, err := client.Ingest(entries)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 5 || resp.Entries != 65 {
		t.Fatalf("ingest response: %+v", resp)
	}
	q, err := client.Query(Fingerprint(entries[0].Fingerprint), entries[0].Label, 1)
	if err != nil || len(q.Matches) != 1 || q.Matches[0].Source != "facade" {
		t.Fatalf("ingested entry not served: %+v %v", q, err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingest == nil || st.Ingest.Accepted != 5 || st.Ingest.WALBytes == 0 {
		t.Fatalf("ingest stats: %+v", st.Ingest)
	}

	// Kill (abandon the store) and replay into a fresh deployment built
	// from the same seed data.
	db2, err := newTestDB(16, 60)
	if err != nil {
		t.Fatal(err)
	}
	flat2 := NewFlatIndex(db2)
	store2, err := OpenIngestStore(walDir, db2, flat2, IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if db2.Len() != 65 || flat2.Len() != 65 {
		t.Fatalf("replay restored %d/%d entries, want 65", db2.Len(), flat2.Len())
	}

	// Snapshot compacts: a third open replays nothing.
	snapPath := t.TempDir() + "/linkage.db"
	if err := store2.Snapshot(snapPath); err != nil {
		t.Fatal(err)
	}
	if err := store2.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	db3, err := LoadLinkageDB(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	store3, err := OpenIngestStore(walDir, db3, NewFlatIndex(db3), IngestOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	if db3.Len() != 65 || store3.Replayed() != 0 {
		t.Fatalf("post-snapshot open: %d entries, %d replayed", db3.Len(), store3.Replayed())
	}

	// The loader sentinels are part of the facade: corrupt data reads as
	// ErrCorrupt, not matchable message text.
	if _, err := LoadLinkageDB(bytes.NewReader([]byte("NOPEnope"))); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt db load: %v", err)
	}
	if _, err := LoadIndex(bytes.NewReader([]byte{'C', 'T', 'I', 'X', 99}), db3); !errors.Is(err, ErrVersionMismatch) && !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupt index load: %v", err)
	}
}
