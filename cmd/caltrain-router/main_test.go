package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math/rand/v2"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/serve"
	"caltrain/internal/shard"
)

// syncBuffer lets the test read the daemon's output while run() writes it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

var addrRE = regexp.MustCompile(`routing accountability queries on (\S+)`)

func waitForAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("router never announced its address; output:\n%s", out.String())
	return ""
}

// routedFixture builds a 2-shard deployment with real shard daemons on
// loopback listeners and writes the shard map file; it returns the map
// path, the shard addresses, and the backing database.
func routedFixture(t *testing.T) (mapPath string, shardAddrs []string, db *fingerprint.DB, stopShard []context.CancelFunc) {
	t.Helper()
	var err error
	db, err = fingerprint.NewDB(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(31, 1))
	for i, f := range index.SynthFingerprints(rng, 240, 8, 6, 0.2) {
		if err := db.Add(fingerprint.Linkage{F: f, Y: i % 6, S: "p1"}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := shard.NewHashMap(2)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := shard.SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		built, err := serve.Deployment{}.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		stopShard = append(stopShard, cancel)
		go func() { _ = built.Serve(ctx, l, time.Second) }()
		t.Cleanup(cancel)
		shardAddrs = append(shardAddrs, l.Addr().String())
	}
	mapPath = filepath.Join(t.TempDir(), "shardmap.ctsm")
	f, err := os.Create(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return mapPath, shardAddrs, db, stopShard
}

// TestRouterLifecycle is the daemon acceptance test: load the map,
// route batches across real shard daemons, degrade to partial results
// when a shard dies, and drain cleanly on context cancel.
func TestRouterLifecycle(t *testing.T) {
	mapPath, addrs, db, stopShard := routedFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-map", mapPath, "-addr", "127.0.0.1:0",
			"-shard", "0=" + addrs[0], "-shard", "1=" + addrs[1],
			"-timeout", "2s", "-cooldown", "50ms",
		}, &out)
	}()
	addr := waitForAddr(t, &out)
	client := fingerprint.NewClient("http://"+addr, nil)
	deadline := time.Now().Add(5 * time.Second)
	for client.Healthz() != nil {
		if time.Now().After(deadline) {
			t.Fatal("router never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	reqs := make([]fingerprint.QueryRequest, 12)
	for i := range reqs {
		reqs[i] = fingerprint.QueryRequest{Fingerprint: db.Entry(i).F, Label: i % 6, K: 3}
	}
	resp, err := client.QueryBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.UnreachableShards) != 0 {
		t.Fatalf("healthy deployment reports unreachable: %v", resp.UnreachableShards)
	}
	for i, res := range resp.Results {
		if res.Error != "" || len(res.Matches) != 3 {
			t.Fatalf("result %d: %+v", i, res)
		}
	}

	// The single-daemon client protocol works unchanged: /query and
	// /stats against the router.
	single, err := client.Query(db.Entry(0).F, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Matches) != 2 {
		t.Fatalf("single query matches: %d", len(single.Matches))
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Index != "router" || st.Entries != db.Len() {
		t.Fatalf("router stats: %+v", st)
	}

	// Chaos: kill shard 1's daemon; batches spanning both shards come
	// back partial, naming the dead shard.
	stopShard[1]()
	time.Sleep(50 * time.Millisecond)
	resp, err = client.QueryBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.UnreachableShards) != 1 || resp.UnreachableShards[0] != "shard 1" {
		t.Fatalf("unreachable after kill: %v", resp.UnreachableShards)
	}
	m, err := loadMapFile(mapPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range resp.Results {
		owner := m.Shard(reqs[i].Label)
		if owner == 1 && res.Error == "" {
			t.Fatalf("query %d to dead shard succeeded", i)
		}
		if owner == 0 && res.Error != "" {
			t.Fatalf("query %d to live shard failed: %s", i, res.Error)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("router did not exit on cancel")
	}
	if !bytes.Contains([]byte(out.String()), []byte("drained")) {
		t.Fatalf("no graceful drain message; output:\n%s", out.String())
	}
}

func loadMapFile(path string) (*shard.Map, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return shard.LoadMap(f)
}

func TestRouterRejectsBadConfig(t *testing.T) {
	mapPath, addrs, _, _ := routedFixture(t)
	stopped, cancel := context.WithCancel(context.Background())
	cancel()
	for _, args := range [][]string{
		{"-map", mapPath, "-shard", "0=" + addrs[0]},                                             // shard 1 missing
		{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "0=" + addrs[1]},                  // duplicate
		{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "1=" + addrs[1], "-shard", "2=x"}, // beyond map
		{"-map", mapPath, "-shard", "zero=" + addrs[0]},                                          // bad id
		{"-map", filepath.Join(t.TempDir(), "missing.ctsm"), "-shard", "0=" + addrs[0]},          // no map
		{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "1=" + addrs[1], "-latency-buckets", "5ms,nope"},
		{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "1=" + addrs[1], "-latency-buckets", "500ns"},
		{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "1="}, // empty replica address
		// Flags are validated by the config file's validator: negative
		// bounds are rejected at startup, 0 means the default.
		{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "1=" + addrs[1], "-timeout", "-1s"},
		{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "1=" + addrs[1], "-cooldown", "-1s"},
		{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "1=" + addrs[1], "-max-batch", "-1"},
		{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "1=" + addrs[1], "-max-body", "-1"},
		{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "1=" + addrs[1], "-response-cache", "-1"},
		// strconv.ParseFloat reads NaN, which no range check catches.
		{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "1=" + addrs[1], "-trace-sample-rate", "NaN"},
		// Shard 0 spelled twice: one spelling would never be read.
		{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "00=" + addrs[1], "-shard", "1=" + addrs[1]},
	} {
		// The context is already cancelled: a router that accepted the
		// arguments would start, drain and return nil, not hang the test.
		if err := run(stopped, append(args, "-addr", "127.0.0.1:0"), &syncBuffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
	// A refusal of -shard names the flag, as every knob's does.
	err := run(stopped, []string{"-map", mapPath, "-shard", "0=" + addrs[0] + ",", "-shard", "1=" + addrs[1], "-addr", "127.0.0.1:0"}, &syncBuffer{})
	if want := `-shard has an empty replica address for shard "0"`; err == nil || err.Error() != want {
		t.Fatalf("-shard 0=%s,: %v, want %s", addrs[0], err, want)
	}
	// A document without a topology block is a daemon's.
	doc := filepath.Join(t.TempDir(), "daemon.json")
	if err := os.WriteFile(doc, []byte(`{"backend": {"kind": "flat"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(stopped, []string{"-deployment", doc, "-addr", "127.0.0.1:0"}, &syncBuffer{})
	if err == nil || err.Error() != "serve: config has no topology block; a router deployment declares topology.map and topology.shards" {
		t.Fatalf("a daemon config: %v", err)
	}
	// 0 is "the default": -timeout 0 must not make every shard call
	// expire before it is sent.
	err = run(stopped, []string{"-map", mapPath, "-shard", "0=" + addrs[0], "-shard", "1=" + addrs[1],
		"-timeout", "0", "-cooldown", "0", "-max-batch", "0", "-max-body", "0", "-addr", "127.0.0.1:0"}, &syncBuffer{})
	if err != nil {
		t.Fatalf("zero-means-default flags: %v", err)
	}
}

// TestFlagConfigParity keeps the flag/file fork closed: a command line
// binds into exactly the serve.Config its equivalent JSON document
// parses into, so both reach Config.Deployment as the same value. The
// documents spell out the flag defaults that differ from the file's zero
// value.
func TestFlagConfigParity(t *testing.T) {
	const limits = `"limits": {"max_body_bytes": 8388608, "max_batch": 256}`
	for _, c := range []struct {
		name string
		argv []string
		doc  string
	}{
		{"defaults", nil,
			`{"topology": {"map": "shards/shardmap.ctsm", "timeout": "5s", "cooldown": "1s"}, ` + limits + `, "observability": {}}`},
		{"topology, repair and response cache",
			[]string{"-map", "m.ctsm", "-shard", "0=a:9000, http://b:9000", "-shard", "1=c:9001", "-write-quorum", "1",
				"-timeout", "2s", "-cooldown", "0", "-response-cache", "8", "-repair-after", "15s", "-repair-interval", "1s"},
			`{"topology": {"map": "m.ctsm", "shards": {"0": ["a:9000", " http://b:9000"], "1": ["c:9001"]}, "write_quorum": 1,
			    "timeout": "2s", "response_cache": 8, "repair": {"after": "15s", "interval": "1s"}},
			  ` + limits + `, "observability": {}}`},
		{"bare -repair", []string{"-repair"},
			`{"topology": {"map": "shards/shardmap.ctsm", "timeout": "5s", "cooldown": "1s", "repair": {}}, ` + limits + `, "observability": {}}`},
		{"limits and latency buckets", []string{"-max-body", "4096", "-max-batch", "0", "-latency-buckets", "5ms,25ms"},
			`{"topology": {"map": "shards/shardmap.ctsm", "timeout": "5s", "cooldown": "1s"}, "observability": {},
			  "limits": {"max_body_bytes": 4096, "latency_buckets": ["5ms", "25ms"]}}`},
		{"request log and tracing",
			[]string{"-request-log", "-slow-query-threshold", "250ms", "-trace-sample-rate", "0", "-trace-store", "-1", "-trace-slow", "50ms"},
			`{"topology": {"map": "shards/shardmap.ctsm", "timeout": "5s", "cooldown": "1s"}, ` + limits + `,
			  "observability": {"request_log": true, "slow_query_threshold": "250ms",
			    "tracing": {"sample_rate": 0, "store": -1, "slow_always": "50ms"}}}`},
	} {
		_, o, err := parseFlags(c.argv)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		want, err := serve.ParseConfig(strings.NewReader(c.doc))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !reflect.DeepEqual(o.cfg, want) {
			got, _ := json.Marshal(o.cfg)
			t.Errorf("%s: %v binds to\n  %s\nwant the config of\n  %s", c.name, c.argv, got, c.doc)
		}
	}
}

// TestEveryKnobFlagReachesConfig: a flag is either a process flag or
// changes serve.Config — a future flag cannot bypass the one validated
// path by being read straight out of the FlagSet.
func TestEveryKnobFlagReachesConfig(t *testing.T) {
	fs, base, err := parseFlags(nil)
	if err != nil {
		t.Fatal(err)
	}
	fs.VisitAll(func(f *flag.Flag) {
		if processFlags[f.Name] {
			return
		}
		// Whichever sample the flag's type parses and that is not its default.
		for _, sample := range []string{"true", "7", "7ms", "7=host:1"} {
			if _, o, err := parseFlags([]string{"-" + f.Name + "=" + sample}); err == nil && sample != f.DefValue {
				if reflect.DeepEqual(o.cfg, base.cfg) {
					t.Errorf("-%s=%s leaves serve.Config unchanged: bind it into a Config field or list it in processFlags", f.Name, sample)
				}
				return
			}
		}
		t.Errorf("-%s accepts no sample value", f.Name)
	})
}
