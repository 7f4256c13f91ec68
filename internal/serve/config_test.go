package serve

import (
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
)

// TestParseConfigFull: every field of the file form round-trips into
// the Deployment it declares.
func TestParseConfigFull(t *testing.T) {
	doc := `{
		"backend": {"kind": "ivf", "nlist": 8, "nprobe": 4, "iters": 3, "seed": 9},
		"shards": 4,
		"replicas_per_shard": 2,
		"wal": {"dir": "wal/", "fsync": "interval", "fsync_every": "25ms", "segment_bytes": 1048576, "drift_threshold": 0.5},
		"limits": {"max_body_bytes": 4096, "max_k": 16, "max_batch": 8, "latency_buckets": ["100us", "1ms", "10ms"]}
	}`
	cfg, err := ParseConfig(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	if want := (BackendConfig{Kind: "ivf", Nlist: 8, Nprobe: 4, Iters: 3, Seed: 9}); dep.Backend != want {
		t.Fatalf("backend: %#v", dep.Backend)
	}
	if dep.Shards != 4 || dep.ReplicasPerShard != 2 {
		t.Fatalf("topology: shards=%d replicas=%d", dep.Shards, dep.ReplicasPerShard)
	}
	if dep.WAL == nil || dep.WAL.Dir != "wal/" {
		t.Fatalf("wal: %+v", dep.WAL)
	}
	w := dep.WAL
	if w.Fsync != "interval" || w.FsyncEvery != Duration(25*time.Millisecond) || w.SegmentBytes != 1<<20 {
		t.Fatalf("wal options: %+v", w)
	}
	if w.DriftThreshold == nil || *w.DriftThreshold != 0.5 {
		t.Fatalf("drift threshold: %v", w.DriftThreshold)
	}
	if dep.Limits != cfg.Limits || len(dep.Limits.options()) != 4 {
		t.Fatalf("limits: %+v, %d options, want the config's block and 4", dep.Limits, len(dep.Limits.options()))
	}
}

// TestParseConfigIVFPQ: the "m" knob reaches the IVFPQ backend alongside
// the shared IVF tunables.
func TestParseConfigIVFPQ(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(
		`{"backend": {"kind": "ivfpq", "nlist": 8, "nprobe": 4, "seed": 9, "m": 4}}`))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	if want := (BackendConfig{Kind: "ivfpq", Nlist: 8, Nprobe: 4, Seed: 9, M: 4}); dep.Backend != want {
		t.Fatalf("backend: %#v", dep.Backend)
	}
}

// TestParseConfigRejects: unknown fields, bad kinds, bad durations, bad
// fsync policies, and impossible topologies all fail at parse/translate
// time instead of silently serving defaults.
func TestParseConfigRejects(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"unknown top-level field", `{"backend": {"kind": "flat"}, "shrads": 4}`},
		{"unknown backend field", `{"backend": {"kind": "flat", "nliist": 4}}`},
		{"trailing data", `{"backend": {"kind": "flat"}} {"shards": 2}`},
		{"bad duration", `{"wal": {"dir": "w", "fsync_every": "fast"}}`},
		{"not json", `backend: flat`},
	}
	for _, c := range cases {
		if _, err := ParseConfig(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}

	translate := []struct {
		name string
		doc  string
	}{
		{"unknown backend kind", `{"backend": {"kind": "annoy"}}`},
		{"negative shards", `{"shards": -1}`},
		{"replicas without shards", `{"replicas_per_shard": 2}`},
		{"wal without dir", `{"wal": {"fsync": "always"}}`},
		{"bad fsync policy", `{"wal": {"dir": "w", "fsync": "sometimes"}}`},
		{"non-positive latency bucket", `{"limits": {"latency_buckets": ["0s"]}}`},
		{"sub-microsecond latency bucket", `{"limits": {"latency_buckets": ["500ns"]}}`},
		{"sub-microsecond latency bucket beside a valid one", `{"limits": {"latency_buckets": ["500ns", "1ms"]}}`},
		{"negative max_k", `{"limits": {"max_k": -5}}`},
		{"negative max_body_bytes", `{"limits": {"max_body_bytes": -1}}`},
		{"wal and volatile_writes contradict", `{"wal": {"dir": "w"}, "volatile_writes": true}`},
		{"negative fsync_every", `{"wal": {"dir": "w", "fsync_every": "-1s"}}`},
		{"negative segment_bytes", `{"wal": {"dir": "w", "segment_bytes": -1}}`},
		{"ambiguous zero drift_threshold", `{"wal": {"dir": "w", "drift_threshold": 0}}`},
	}
	for _, c := range translate {
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

// TestLimitsLatencyBuckets: latency_buckets reach the histogram as
// ascending whole microseconds, each bucket as written; one under a
// microsecond — which would count as 0 and be dropped, or leave the
// defaults in place — is refused, naming the key.
func TestLimitsLatencyBuckets(t *testing.T) {
	us := func(ds ...time.Duration) *LimitsConfig {
		l := &LimitsConfig{}
		for _, d := range ds {
			l.LatencyBuckets = append(l.LatencyBuckets, Duration(d))
		}
		return l
	}
	for _, c := range []struct {
		limits *LimitsConfig
		want   []int64
	}{
		{us(250*time.Microsecond, time.Millisecond, 5*time.Millisecond, time.Second), []int64{250, 1000, 5000, 1_000_000}},
		{us(10*time.Millisecond, time.Microsecond, time.Millisecond), []int64{1, 1000, 10_000}},
		{us(1500 * time.Nanosecond), []int64{1}},
		{us(), nil},
	} {
		if err := c.limits.validate(); err != nil {
			t.Fatalf("%v: %v", c.limits.LatencyBuckets, err)
		}
		if got := c.limits.bucketsUS(); !slices.Equal(got, c.want) {
			t.Fatalf("%v: bounds %v, want %v", c.limits.LatencyBuckets, got, c.want)
		}
	}
	for _, bad := range []*LimitsConfig{us(500 * time.Nanosecond), us(500*time.Nanosecond, time.Millisecond), us(0), us(-time.Millisecond)} {
		if err := bad.validate(); err == nil || !strings.Contains(err.Error(), "limits.latency_buckets") {
			t.Fatalf("%v: %v, want a refusal naming limits.latency_buckets", bad.LatencyBuckets, err)
		}
	}
}

// TestDeploymentValidatesGoForm: every rejection the file form gets
// from Config.Deployment, the same Deployment written as a Go literal
// gets from Build, with the same text — one validation, not one per
// spelling. A topology block, which the Go form cannot spell, is left
// out.
func TestDeploymentValidatesGoForm(t *testing.T) {
	db := testDB(t, 8, 40, 2)
	dir := t.TempDir() // never created under: every case is refused first
	rate := func(r float64) *float64 { return &r }
	for _, c := range []struct {
		name string
		doc  string
		dep  Deployment
	}{
		{"negative shards", `{"shards": -1}`, Deployment{Shards: -1}},
		{"unknown backend kind", `{"backend": {"kind": "annoy"}}`, Deployment{Backend: BackendConfig{Kind: "annoy"}}},
		{"negative max_k", `{"limits": {"max_k": -5}}`, Deployment{Limits: &LimitsConfig{MaxK: -5}}},
		{"sub-microsecond latency bucket", `{"limits": {"latency_buckets": ["1ms", "500ns"]}}`,
			Deployment{Limits: &LimitsConfig{LatencyBuckets: []Duration{Duration(time.Millisecond), 500}}}},
		{"replicas without shards", `{"replicas_per_shard": 2}`, Deployment{ReplicasPerShard: 2}},
		{"negative replicas", `{"shards": 2, "replicas_per_shard": -1}`, Deployment{Shards: 2, ReplicasPerShard: -1}},
		{"wal without dir", `{"wal": {"fsync": "always"}}`, Deployment{WAL: &WALConfig{Fsync: "always"}}},
		{"bad fsync policy", `{"wal": {"dir": "w", "fsync": "sometimes"}}`, Deployment{WAL: &WALConfig{Dir: dir, Fsync: "sometimes"}}},
		{"wal and volatile_writes contradict", `{"wal": {"dir": "w"}, "volatile_writes": true}`,
			Deployment{WAL: &WALConfig{Dir: dir}, VolatileWrites: true}},
		{"negative fsync_every", `{"wal": {"dir": "w", "fsync_every": "-1s"}}`,
			Deployment{WAL: &WALConfig{Dir: dir, FsyncEvery: Duration(-time.Second)}}},
		{"negative segment_bytes", `{"wal": {"dir": "w", "segment_bytes": -1}}`, Deployment{WAL: &WALConfig{Dir: dir, SegmentBytes: -1}}},
		{"ambiguous zero drift_threshold", `{"wal": {"dir": "w", "drift_threshold": 0}}`,
			Deployment{WAL: &WALConfig{Dir: dir, DriftThreshold: rate(0)}}},
		{"replication without wal", `{"replication": {"peer": "a:1"}}`, Deployment{Replication: &ReplicationConfig{Peer: "a:1"}}},
		{"replication with sharding", `{"shards": 2, "wal": {"dir": "w"}, "replication": {}}`,
			Deployment{Shards: 2, WAL: &WALConfig{Dir: dir}, Replication: &ReplicationConfig{}}},
		{"negative slow_query_threshold", `{"observability": {"slow_query_threshold": "-1s"}}`,
			Deployment{Observability: &ObservabilityConfig{SlowQueryThreshold: Duration(-time.Second)}}},
		{"debug_addr without port", `{"observability": {"debug_addr": "localhost"}}`,
			Deployment{Observability: &ObservabilityConfig{DebugAddr: "localhost"}}},
		{"sample_rate above 1", `{"observability": {"tracing": {"sample_rate": 1.5}}}`,
			Deployment{Observability: &ObservabilityConfig{Trace: &TraceConfig{SampleRate: rate(1.5)}}}},
		{"negative sample_rate", `{"observability": {"tracing": {"sample_rate": -0.1}}}`,
			Deployment{Observability: &ObservabilityConfig{Trace: &TraceConfig{SampleRate: rate(-0.1)}}}},
		{"negative slow_always", `{"observability": {"tracing": {"slow_always": "-1s"}}}`,
			Deployment{Observability: &ObservabilityConfig{Trace: &TraceConfig{SlowAlways: Duration(-time.Second)}}}},
		{"trace store over the cap", fmt.Sprintf(`{"observability": {"tracing": {"store": %d}}}`, maxTraceStore+1),
			Deployment{Observability: &ObservabilityConfig{Trace: &TraceConfig{StoreSize: maxTraceStore + 1}}}},
	} {
		cfg, err := ParseConfig(strings.NewReader(c.doc))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		_, fileErr := cfg.Deployment()
		if fileErr == nil {
			t.Errorf("%s: the file form %s is accepted", c.name, c.doc)
			continue
		}
		srv, goErr := c.dep.Build(db)
		if goErr == nil {
			srv.Close()
			t.Errorf("%s: the Go form builds; the file form is refused with %q", c.name, fileErr)
			continue
		}
		if goErr.Error() != fileErr.Error() {
			t.Errorf("%s: the Go form is refused with %q, the file form with %q", c.name, goErr, fileErr)
		}
	}
}

// TestConfigDefaults: the zero document serves the same deployment as
// the zero Deployment value — a read-only Flat service.
func TestConfigDefaults(t *testing.T) {
	cfg, err := ParseConfig(strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	if dep.Backend != (BackendConfig{}) || dep.Backend.kind() != "flat" {
		t.Fatalf("default backend: %#v", dep.Backend)
	}
	if dep.Shards != 0 || dep.WAL != nil || dep.VolatileWrites || dep.Limits != nil {
		t.Fatalf("zero config deployment: %+v", dep)
	}
}

// TestConfigBuildsShardedDeployment: a config-declared sharded topology
// builds, serves /v1/meta with sharded+ingest capabilities, and routes
// a write to the owning shard — the file is the whole topology.
func TestConfigBuildsShardedDeployment(t *testing.T) {
	db := testDB(t, 8, 120, 6)
	cfg, err := ParseConfig(strings.NewReader(
		`{"backend": {"kind": "flat"}, "shards": 3, "volatile_writes": true, "limits": {"max_k": 32}}`))
	if err != nil {
		t.Fatal(err)
	}
	dep, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dep.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.router == nil || srv.Service() != nil {
		t.Fatal("config sharded build did not produce a router")
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := fingerprint.NewClient(hs.URL, hs.Client())
	meta, err := client.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Capabilities.Sharded || !meta.Capabilities.Ingest {
		t.Fatalf("meta capabilities: %+v", meta.Capabilities)
	}
	if _, err := client.Ingest([]fingerprint.IngestEntry{{Fingerprint: make([]float32, 8), Label: 2, Source: "cfg"}}); err != nil {
		t.Fatalf("routed ingest through config-built deployment: %v", err)
	}
}

// TestDurationMarshalRoundTrip: the wire form of Duration is a duration
// string with a unit. Bare numbers are rejected — "fsync_every": 50
// read as 50ns would busy-loop the flush timer, so the unit must be
// explicit.
func TestDurationMarshalRoundTrip(t *testing.T) {
	var d Duration
	if err := d.UnmarshalJSON([]byte(`"1.5s"`)); err != nil || time.Duration(d) != 1500*time.Millisecond {
		t.Fatalf("string form: %v %v", d, err)
	}
	b, err := Duration(50 * time.Millisecond).MarshalJSON()
	if err != nil || string(b) != `"50ms"` {
		t.Fatalf("marshal: %s %v", b, err)
	}
	for _, bad := range []string{`2500`, `true`, `"50"`} {
		if err := d.UnmarshalJSON([]byte(bad)); err == nil {
			t.Fatalf("%s accepted as duration", bad)
		}
	}
}
