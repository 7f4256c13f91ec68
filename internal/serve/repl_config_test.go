package serve

import (
	"context"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"caltrain/internal/cluster"
	"caltrain/internal/fingerprint"
	"caltrain/internal/shard"
)

// TestParseConfigReplication: the replication block reaches the
// Deployment, and its preconditions (WAL present, single-service shape)
// are enforced at translate time.
func TestParseConfigReplication(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(
		`{"wal": {"dir": "w"}, "replication": {"peer": "replica-a:8791"}}`))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	if dep.Replication == nil || dep.Replication.Peer != "replica-a:8791" {
		t.Fatalf("replication: %+v", dep.Replication)
	}

	rejects := []struct {
		name string
		doc  string
	}{
		{"replication without wal", `{"replication": {"peer": "a:1"}}`},
		{"replication with sharding", `{"shards": 2, "wal": {"dir": "w"}, "replication": {}}`},
		{"topology in a daemon", `{"topology": {"map": "m", "shards": {"0": ["a:1"]}}}`},
	}
	for _, c := range rejects {
		cfg, err := ParseConfig(strings.NewReader(c.doc))
		if err != nil {
			t.Errorf("%s: failed at parse (%v), want translate failure", c.name, err)
			continue
		}
		if _, err := cfg.Deployment(); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

func replDeployment(dir, peer string) Deployment {
	return Deployment{
		WAL:         &WALConfig{Dir: dir, Fsync: "never"},
		Replication: &ReplicationConfig{Peer: peer},
	}
}

// TestReplicationDeploymentBuild: a replication-enabled deployment
// builds the whole follower stack — syncer as the write path, the
// /v1/repl/* routes mounted, sync gauges registered — and a second
// build pointed at the first syncs to an identical database through
// nothing but the declared config.
func TestReplicationDeploymentBuild(t *testing.T) {
	srcDB := testDB(t, 8, 40, 5)
	source, err := replDeployment(filepath.Join(t.TempDir(), "wal"), "").Build(srcDB)
	if err != nil {
		t.Fatal(err)
	}
	defer source.Close()
	if source.syncer == nil || source.Store() == nil {
		t.Fatal("replication build has no syncer or store")
	}
	ts := httptest.NewServer(source.Handler())
	defer ts.Close()

	client := fingerprint.NewClient(ts.URL, ts.Client())
	meta, err := client.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Capabilities.Replication {
		t.Fatalf("meta capabilities: %+v", meta.Capabilities)
	}
	if _, err := client.Ingest([]fingerprint.IngestEntry{{Fingerprint: make([]float32, 8), Label: 1, Source: "cfg"}}); err != nil {
		t.Fatalf("ingest through syncer write path: %v", err)
	}

	fdb, err := fingerprint.NewDB(8)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := replDeployment(filepath.Join(t.TempDir(), "wal"), ts.URL).Build(fdb)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()
	if err := follower.syncer.Sync(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := follower.syncer.State(); got != cluster.StateLive {
		t.Fatalf("follower state %v, want live", got)
	}
	if got, want := follower.Service().Searcher().Len(), 41; got != want {
		t.Fatalf("follower has %d entries, want %d", got, want)
	}
	// The sync gauges are on the public metrics endpoint.
	fts := httptest.NewServer(follower.Handler())
	defer fts.Close()
	resp, err := fts.Client().Get(fts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 1<<20)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if !strings.Contains(string(body[:n]), "caltrain_replica_sync_state") {
		t.Fatal("follower metrics missing caltrain_replica_sync_state")
	}
}

func writeShardMap(t testing.TB, n int) string {
	t.Helper()
	m, err := shard.NewHashMap(n)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "map.ctsm")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRouterPlan: a topology config translates into a complete router
// assembly — loaded map, scheme-defaulted replicas, options — and the
// result actually builds a serving router.
func TestRouterPlan(t *testing.T) {
	mapPath := writeShardMap(t, 2)
	doc := fmt.Sprintf(`{
		"topology": {
			"map": %q,
			"shards": {"0": ["replica-a:9000"], "1": ["http://replica-b:9001", "replica-c:9001"]},
			"write_quorum": 1,
			"timeout": "2s",
			"repair": {"after": "5s"}
		},
		"limits": {"max_batch": 16},
		"observability": {"debug_addr": "localhost:0"}
	}`, mapPath)
	cfg, err := ParseConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := cfg.RouterPlan(nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Map.NumShards() != 2 || len(plan.Replicas) != 2 {
		t.Fatalf("plan shards: %d map / %d replica rows", plan.Map.NumShards(), len(plan.Replicas))
	}
	if got := plan.Replicas[0][0].Addr(); got != "http://replica-a:9000" {
		t.Fatalf("bare address not scheme-defaulted: %q", got)
	}
	if len(plan.Replicas[1]) != 2 {
		t.Fatalf("shard 1 replicas: %d, want 2", len(plan.Replicas[1]))
	}
	if plan.Tracer == nil || plan.DebugAddr != "localhost:0" {
		t.Fatalf("plan observability: tracer=%v debug=%q", plan.Tracer, plan.DebugAddr)
	}
	srv, err := NewRouter(plan.Map, plan.Replicas, plan.Options...)
	if err != nil {
		t.Fatal(err)
	}
	if srv.router == nil {
		t.Fatal("plan did not build a router")
	}
}

// TestRouterPlanRejects: shape conflicts and topology typos fail at
// plan time instead of silently routing wrong.
func TestRouterPlanRejects(t *testing.T) {
	mapPath := writeShardMap(t, 2)
	cases := []struct {
		name string
		doc  string
	}{
		{"no topology block", `{}`},
		{"daemon fields conflict", fmt.Sprintf(`{"backend": {"kind": "flat"}, "topology": {"map": %q, "shards": {"0": ["a:1"], "1": ["b:1"]}}}`, mapPath)},
		{"missing map path", `{"topology": {"shards": {"0": ["a:1"]}}}`},
		{"missing shard key", fmt.Sprintf(`{"topology": {"map": %q, "shards": {"0": ["a:1"]}}}`, mapPath)},
		{"shard key outside map", fmt.Sprintf(`{"topology": {"map": %q, "shards": {"0": ["a:1"], "1": ["b:1"], "5": ["c:1"]}}}`, mapPath)},
		{"empty replica list", fmt.Sprintf(`{"topology": {"map": %q, "shards": {"0": [], "1": ["b:1"]}}}`, mapPath)},
		{"negative write_quorum", fmt.Sprintf(`{"topology": {"map": %q, "shards": {"0": ["a:1"], "1": ["b:1"]}, "write_quorum": -1}}`, mapPath)},
		{"max_k at the router", fmt.Sprintf(`{"limits": {"max_k": 8}, "topology": {"map": %q, "shards": {"0": ["a:1"], "1": ["b:1"]}}}`, mapPath)},
	}
	for _, c := range cases {
		cfg, err := ParseConfig(strings.NewReader(c.doc))
		if err != nil {
			t.Errorf("%s: failed at parse (%v), want plan failure", c.name, err)
			continue
		}
		if _, err := cfg.RouterPlan(nil); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestReplicationServeRunsStartupSync: Server.Serve runs the syncer's
// startup loop — a follower with a configured peer reaches live without
// any explicit Sync call, exactly how the daemon runs it.
func TestReplicationServeRunsStartupSync(t *testing.T) {
	srcDB := testDB(t, 8, 30, 5)
	source, err := replDeployment(filepath.Join(t.TempDir(), "wal"), "").Build(srcDB)
	if err != nil {
		t.Fatal(err)
	}
	defer source.Close()
	ts := httptest.NewServer(source.Handler())
	defer ts.Close()

	fdb, err := fingerprint.NewDB(8)
	if err != nil {
		t.Fatal(err)
	}
	follower, err := replDeployment(filepath.Join(t.TempDir(), "wal"), ts.URL).Build(fdb)
	if err != nil {
		t.Fatal(err)
	}
	defer follower.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- follower.Serve(ctx, l, time.Second) }()

	deadline := time.Now().Add(10 * time.Second)
	for follower.syncer.State() != cluster.StateLive {
		if time.Now().After(deadline) {
			t.Fatalf("follower never reached live: %+v", follower.syncer.Status())
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
