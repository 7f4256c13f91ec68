package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"caltrain/internal/cluster"
	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
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

// TestTopologyBuild: a topology config hands its block to the
// Deployment, and Build(nil) loads the map and routes to the shard
// daemons it names — bare addresses scheme-defaulted, every replica of a
// shard in preference order — with the config's limits, tracer and
// repair loop.
func TestTopologyBuild(t *testing.T) {
	db := testDB(t, 8, 40, 5)
	m, err := shard.NewHashMap(2)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := shard.SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	var daemons []string
	for _, part := range parts {
		ts := httptest.NewServer(fingerprint.NewSearcherService(index.NewFlat(part)).Handler())
		defer ts.Close()
		daemons = append(daemons, strings.TrimPrefix(ts.URL, "http://"))
	}
	doc := fmt.Sprintf(`{
		"topology": {
			"map": %q,
			"shards": {"0": [%q], "1": ["http://127.0.0.1:1", %q]},
			"write_quorum": 1,
			"timeout": "2s",
			"repair": {"after": "5s"}
		},
		"limits": {"max_batch": 16},
		"observability": {"debug_addr": "localhost:0"}
	}`, writeShardMap(t, 2), daemons[0], daemons[1])
	cfg, err := ParseConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	if dep.Topology != cfg.Topology || dep.Observability.DebugAddr != "localhost:0" {
		t.Fatalf("deployment: topology %+v, debug %q", dep.Topology, dep.Observability.DebugAddr)
	}
	srv, err := dep.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	if srv.router == nil || srv.TraceStore() == nil || srv.IndexOrigin() != "hash map" {
		t.Fatalf("built: router %v, trace store %v, origin %q", srv.router, srv.TraceStore(), srv.IndexOrigin())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st shard.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// Shard 1's first replica is down: its stats come from the second.
	if len(st.Shards) != 2 || st.Shards[0].Replica != "http://"+daemons[0] || st.Shards[1].Replica != "http://"+daemons[1] {
		t.Fatalf("stats shards: %+v", st.Shards)
	}
	if st.Entries != db.Len() || st.Repair == nil {
		t.Fatalf("stats: %d entries of %d, repair %v", st.Entries, db.Len(), st.Repair)
	}
	reqs := make([]fingerprint.QueryRequest, 17)
	for i := range reqs {
		reqs[i] = fingerprint.QueryRequest{Fingerprint: db.Entry(i).F, Label: db.Entry(i).Y, K: 1}
	}
	_, err = fingerprint.NewClient(ts.URL, ts.Client()).QueryBatch(reqs)
	if fingerprint.CodeOf(err) != fingerprint.ErrCodeLimitExceeded {
		t.Fatalf("17 queries past limits.max_batch 16: %v", err)
	}
}

// TestRouterServeLifecycle drives Server.Serve over a topology with a
// real listener and a context cancel, the path caltrain-router runs:
// routed queries answer while it serves, and cancellation drains and
// returns nil.
func TestRouterServeLifecycle(t *testing.T) {
	db := testDB(t, 8, 90, 3)
	m, err := shard.NewHashMap(3)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := shard.SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	shards := map[string][]string{}
	for i, part := range parts {
		daemon, err := Deployment{}.Build(part)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(daemon.Handler())
		defer ts.Close()
		shards[strconv.Itoa(i)] = []string{ts.URL}
	}
	srv, err := Deployment{Topology: &TopologyConfig{Map: writeShardMap(t, 3), Shards: shards}}.Build(nil)
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ctx, l, time.Second) }()
	client := fingerprint.NewClient("http://"+l.Addr().String(), nil)
	deadline := time.Now().Add(5 * time.Second)
	for client.Healthz() != nil {
		if time.Now().After(deadline) {
			t.Fatal("router never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	resp, err := client.QueryBatch([]fingerprint.QueryRequest{{Fingerprint: db.Entry(0).F, Label: 0, K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Results[0].Error != "" {
		t.Fatalf("routed query failed: %s", resp.Results[0].Error)
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("router did not drain on cancel")
	}
}

// TestTopologyRejects: shape conflicts and topology typos fail at
// Build instead of silently routing wrong — the checks that need no
// shard map already in Config.Deployment.
func TestTopologyRejects(t *testing.T) {
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
		{"non-canonical shard keys", fmt.Sprintf(`{"topology": {"map": %q, "shards": {"0": ["a:1"], "00": ["b:1"], "1": ["c:1"], "+1": ["d:1"]}}}`, mapPath)},
	}
	for _, c := range cases {
		cfg, err := ParseConfig(strings.NewReader(c.doc))
		if err != nil {
			t.Errorf("%s: failed at parse (%v), want a build failure", c.name, err)
			continue
		}
		dep, err := cfg.Deployment()
		if err != nil {
			continue
		}
		if srv, err := dep.Build(nil); err == nil {
			srv.Close()
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
