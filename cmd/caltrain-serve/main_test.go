package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/serve"
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

func writeTestDB(t *testing.T, n int) string {
	t.Helper()
	return writeDB(t, n, 77)
}

// writeDB saves n synthetic linkages drawn from seed, all from source
// "p1", and returns the file's path.
func writeDB(t *testing.T, n int, seed uint64) string {
	t.Helper()
	db, err := fingerprint.NewDB(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	for i, f := range index.SynthFingerprints(rng, n, 8, 8, 0.2) {
		if err := db.Add(fingerprint.Linkage{F: f, Y: i % 3, S: "p1"}); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "linkage.db")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

var addrRE = regexp.MustCompile(`serving accountability queries on (\S+)`)

func waitForAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := addrRE.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never announced its address; output:\n%s", out.String())
	return ""
}

// TestServeLifecycle is the daemon acceptance test: start on a random
// port with an IVF index, answer /healthz, serve single and batch
// queries from concurrent clients, then shut down gracefully on SIGTERM.
func TestServeLifecycle(t *testing.T) {
	dbPath := writeTestDB(t, 600)
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(context.Background(), []string{
			"-db", dbPath, "-addr", "127.0.0.1:0",
			"-backend", "ivf", "-nlist", "8", "-nprobe", "4",
		}, &out)
	}()
	addr := waitForAddr(t, &out)
	client := fingerprint.NewClient("http://"+addr, nil)

	deadline := time.Now().Add(5 * time.Second)
	for client.Healthz() != nil {
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 9))
			for i := 0; i < 20; i++ {
				q := index.SynthFingerprints(rng, 1, 8, 2, 0.3)[0]
				if _, err := client.Query(q, i%3, 5); err != nil {
					t.Error(err)
					return
				}
				batch := []fingerprint.QueryRequest{
					{Fingerprint: q, Label: 0, K: 3},
					{Fingerprint: make([]float32, 2), Label: 0, K: 3}, // per-query failure
				}
				resp, err := client.QueryBatch(batch)
				if err != nil {
					t.Error(err)
					return
				}
				if resp.Results[0].Error != "" || resp.Results[1].Error == "" {
					t.Errorf("batch results: %+v", resp.Results)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Index != "ivf" || st.Entries != 600 || st.Queries == 0 {
		t.Fatalf("stats: %+v", st)
	}

	// The real signal path: SIGTERM to the process, caught by
	// signal.NotifyContext inside run.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit on SIGTERM")
	}
	if !bytes.Contains([]byte(out.String()), []byte("drained")) {
		t.Fatalf("no graceful drain message; output:\n%s", out.String())
	}
}

// TestServeSaveLoadIndex persists a built index and restarts from it.
func TestServeSaveLoadIndex(t *testing.T) {
	dbPath := writeTestDB(t, 300)
	idxPath := filepath.Join(t.TempDir(), "linkage.ivf")

	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{
			"-db", dbPath, "-addr", "127.0.0.1:0",
			"-backend", "ivf", "-nlist", "4", "-save-index", idxPath,
		}, &out)
	}()
	waitForAddr(t, &out)
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(idxPath); err != nil {
		t.Fatal(err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	var out2 syncBuffer
	done2 := make(chan error, 1)
	go func() {
		done2 <- run(ctx2, []string{
			"-db", dbPath, "-addr", "127.0.0.1:0", "-load-index", idxPath,
		}, &out2)
	}()
	addr := waitForAddr(t, &out2)
	client := fingerprint.NewClient("http://"+addr, nil)
	deadline := time.Now().Add(5 * time.Second)
	for client.Healthz() != nil {
		if time.Now().After(deadline) {
			t.Fatal("restarted daemon never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Index != "ivf" || st.Entries != 300 {
		t.Fatalf("reloaded stats: %+v", st)
	}
	cancel2()
	if err := <-done2; err != nil {
		t.Fatal(err)
	}
}

// TestServeDeploymentConfigSingle: -deployment declares the topology
// from one JSON file; the daemon serves it and /v1/meta reports the
// declared backend.
func TestServeDeploymentConfigSingle(t *testing.T) {
	dbPath := writeTestDB(t, 120)
	cfgPath := filepath.Join(t.TempDir(), "deploy.json")
	doc := `{"backend": {"kind": "ivf", "nlist": 4, "nprobe": 4}, "limits": {"max_k": 7}}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-db", dbPath, "-addr", "127.0.0.1:0", "-deployment", cfgPath}, &out)
	}()
	addr := waitForAddr(t, &out)
	client := fingerprint.NewClient("http://"+addr, nil)
	meta, err := client.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if meta.Backend != "ivf" || meta.Capabilities.Ingest || meta.Capabilities.Sharded {
		t.Fatalf("meta: %+v", meta)
	}
	// The file's limits are live: k over max_k is rejected with the
	// limit_exceeded envelope code.
	_, err = client.Query(make(fingerprint.Fingerprint, 8), 0, 8)
	if fingerprint.CodeOf(err) != fingerprint.ErrCodeLimitExceeded {
		t.Fatalf("k over config limit: %v (code %q)", err, fingerprint.CodeOf(err))
	}
	if _, err := client.Query(make(fingerprint.Fingerprint, 8), 0, 5); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServeDeploymentConfigSharded: a "shards" document makes the one
// daemon serve the whole in-process sharded topology — scatter-gather
// reads and routed writes — from a single file.
func TestServeDeploymentConfigSharded(t *testing.T) {
	dbPath := writeTestDB(t, 150)
	cfgPath := filepath.Join(t.TempDir(), "deploy.json")
	doc := `{"backend": {"kind": "flat"}, "shards": 3, "volatile_writes": true}`
	if err := os.WriteFile(cfgPath, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-db", dbPath, "-addr", "127.0.0.1:0", "-deployment", cfgPath}, &out)
	}()
	addr := waitForAddr(t, &out)
	client := fingerprint.NewClient("http://"+addr, nil)
	meta, err := client.Meta()
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Capabilities.Sharded || !meta.Capabilities.Ingest {
		t.Fatalf("sharded meta: %+v", meta)
	}
	if _, err := client.Query(make(fingerprint.Fingerprint, 8), 1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Ingest([]fingerprint.IngestEntry{
		{Fingerprint: make([]float32, 8), Label: 2, Source: "cfg-test"},
	}); err != nil {
		t.Fatalf("routed ingest: %v", err)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 151 {
		t.Fatalf("entries after routed ingest: %d, want 151", st.Entries)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServeDeploymentConflictsWithKnobFlags: a topology knob alongside
// -deployment is a config fight; each one is rejected by name.
func TestServeDeploymentConflictsWithKnobFlags(t *testing.T) {
	dbPath := writeTestDB(t, 30)
	cfgPath := filepath.Join(t.TempDir(), "deploy.json")
	if err := os.WriteFile(cfgPath, []byte(`{}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, extra := range [][]string{
		{"-backend", "flat"}, {"-nlist", "4"},
		{"-wal", "waldir"}, {"-max-k", "9"}, {"-save-index", "x.idx"},
	} {
		args := append([]string{"-db", dbPath, "-deployment", cfgPath}, extra...)
		err := run(context.Background(), args, &syncBuffer{})
		if err == nil || !strings.Contains(err.Error(), "conflicts with -deployment") {
			t.Fatalf("%v: %v", extra, err)
		}
	}
	// -snapshot-every without a WAL (or with shards) in the file cannot
	// compact anything.
	err := run(context.Background(),
		[]string{"-db", dbPath, "-deployment", cfgPath, "-snapshot-every", "1s"}, &syncBuffer{})
	if err == nil {
		t.Fatal("-snapshot-every against a read-only deployment config accepted")
	}
}

func TestServeRejectsUnknownIndexKind(t *testing.T) {
	dbPath := writeTestDB(t, 30)
	err := run(context.Background(), []string{"-db", dbPath, "-backend", "annoy"}, &syncBuffer{})
	if err == nil {
		t.Fatal("unknown index kind accepted")
	}
}

func TestServeRejectsConflictingFlags(t *testing.T) {
	dbPath := writeTestDB(t, 30)
	// -save-index with the linear scan has nothing to persist.
	err := run(context.Background(), []string{"-db", dbPath, "-backend", "linear", "-save-index", "x.idx"}, &syncBuffer{})
	if err == nil {
		t.Fatal("-backend linear -save-index accepted")
	}
	// Training flags alongside -load-index would be silently ignored.
	for _, extra := range [][]string{{"-backend", "ivf"}, {"-nlist", "4"}, {"-iters", "3"}, {"-seed", "1"}} {
		args := append([]string{"-db", dbPath, "-load-index", "whatever.idx"}, extra...)
		if err := run(context.Background(), args, &syncBuffer{}); err == nil {
			t.Fatalf("%v with -load-index accepted", extra)
		}
	}
	// Flags are validated by the config file's validator: a negative
	// bound is rejected at startup (0 means the default) and an explicit
	// -drift-threshold 0 is ambiguous, like wal.drift_threshold: 0. The
	// context is already cancelled, so a daemon that accepted the flag
	// would start, drain and return nil instead of hanging the test.
	stopped, cancel := context.WithCancel(context.Background())
	cancel()
	wal := filepath.Join(t.TempDir(), "wal")
	for _, extra := range [][]string{
		{"-max-k", "-1"}, {"-max-batch", "-1"}, {"-max-body", "-1"},
		{"-wal", wal, "-wal-segment-bytes", "-1"}, {"-wal", wal, "-fsync-every", "-1s"},
		{"-wal", wal, "-drift-threshold", "0"}, {"-fsync", "never"}, {"-repl"},
	} {
		args := append([]string{"-db", dbPath, "-addr", "127.0.0.1:0"}, extra...)
		if err := run(stopped, args, &syncBuffer{}); err == nil {
			t.Fatalf("%v accepted", extra)
		}
	}
	// 0 is "the default", not "reject every query".
	for _, extra := range [][]string{{"-max-k", "0"}, {"-max-batch", "0"}, {"-max-body", "0"}} {
		args := append([]string{"-db", dbPath, "-addr", "127.0.0.1:0"}, extra...)
		if err := run(stopped, args, &syncBuffer{}); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
	}
	// The -index alias of -backend is gone.
	err = run(stopped, []string{"-db", dbPath, "-index", "flat"}, &syncBuffer{})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
		t.Fatalf("-index: %v", err)
	}
}

// TestFlagConfigParity keeps the flag/file fork closed: a command line
// binds into exactly the serve.Config its equivalent JSON document
// parses into, so both reach Config.Deployment as the same value. The
// documents spell out the flag defaults that differ from the file's zero
// value.
func TestFlagConfigParity(t *testing.T) {
	const limits = `"limits": {"max_body_bytes": 8388608, "max_k": 1024, "max_batch": 256}`
	for _, c := range []struct {
		name string
		argv []string
		doc  string
	}{
		{"defaults", nil,
			`{"backend": {"kind": "flat", "seed": 42}, ` + limits + `, "observability": {}}`},
		{"backend ivfpq",
			[]string{"-backend", "ivfpq", "-nlist", "8", "-nprobe", "4", "-iters", "3", "-seed", "9", "-pq-m", "2"},
			`{"backend": {"kind": "ivfpq", "nlist": 8, "nprobe": 4, "iters": 3, "seed": 9, "m": 2}, ` + limits + `, "observability": {}}`},
		{"wal with fsync interval",
			[]string{"-wal", "w", "-fsync", "interval", "-fsync-every", "25ms", "-wal-segment-bytes", "1048576", "-drift-threshold", "-1"},
			`{"backend": {"kind": "flat", "seed": 42}, ` + limits + `, "observability": {},
			  "wal": {"dir": "w", "fsync": "interval", "fsync_every": "25ms", "segment_bytes": 1048576, "drift_threshold": -1}}`},
		{"wal defaults and a replication peer",
			[]string{"-wal", "w", "-repl-peer", "http://a:8791"},
			`{"backend": {"kind": "flat", "seed": 42}, ` + limits + `, "observability": {},
			  "wal": {"dir": "w", "fsync": "always", "fsync_every": "50ms", "segment_bytes": 67108864, "drift_threshold": 0.25},
			  "replication": {"peer": "http://a:8791"}}`},
		{"source-only replication", []string{"-wal", "w", "-fsync", "never", "-repl"},
			`{"backend": {"kind": "flat", "seed": 42}, ` + limits + `, "observability": {},
			  "wal": {"dir": "w", "fsync": "never", "fsync_every": "50ms", "segment_bytes": 67108864, "drift_threshold": 0.25},
			  "replication": {}}`},
		{"limits and latency buckets",
			[]string{"-max-body", "4096", "-max-k", "0", "-max-batch", "8", "-latency-buckets", "100us, 1ms,10ms"},
			`{"backend": {"kind": "flat", "seed": 42}, "observability": {},
			  "limits": {"max_body_bytes": 4096, "max_batch": 8, "latency_buckets": ["100us", "1ms", "10ms"]}}`},
		{"request log and tracing",
			[]string{"-request-log", "-slow-query-threshold", "250ms", "-trace-sample-rate", "0.05", "-trace-store", "512", "-trace-slow", "100ms"},
			`{"backend": {"kind": "flat", "seed": 42}, ` + limits + `,
			  "observability": {"request_log": true, "slow_query_threshold": "250ms",
			    "tracing": {"sample_rate": 0.05, "store": 512, "slow_always": "100ms"}}}`},
		{"one trace flag keeps the block, others at their flag defaults", []string{"-trace-store", "-1"},
			`{"backend": {"kind": "flat", "seed": 42}, ` + limits + `, "observability": {"tracing": {"sample_rate": 1, "store": -1}}}`},
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
		if _, process := processFlags[f.Name]; process {
			return
		}
		// Whichever sample the flag's type parses and that is not its default.
		for _, sample := range []string{"true", "7", "7ms"} {
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

func TestServeRejectsMismatchedIndex(t *testing.T) {
	dbPath := writeTestDB(t, 40)
	otherDB := writeTestDB(t, 50)
	// Build an index over a larger database and try to serve with it: the
	// daemon must refuse it as foreign, naming a label's entry count in
	// each, not silently serve results that point at the wrong linkages.
	f, err := os.Open(otherDB)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fingerprint.LoadDB(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(t.TempDir(), "other.idx")
	w, err := os.Create(idxPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := index.Save(w, index.NewFlat(db)); err != nil {
		t.Fatal(err)
	}
	w.Close()
	err = run(context.Background(), []string{"-db", dbPath, "-load-index", idxPath}, &syncBuffer{})
	if err == nil {
		t.Fatal("mismatched index accepted")
	}
	if !errors.Is(err, index.ErrForeignIndex) || !strings.Contains(err.Error(), "label 0 holds 17 entries, the database 14") {
		t.Fatalf("mismatch error %q is not index.ErrForeignIndex naming label 0's counts", err)
	}
}

// readDB loads a database file written by writeDB.
func readDB(t *testing.T, path string) *fingerprint.DB {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	db, err := fingerprint.LoadDB(f)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestServeRefusesForeignIndex: an index saved over one database and
// loaded against another of the same size and dimension must not be
// served — its answers would name linkages -db does not hold. The two
// databases share labels and sources and differ in every row, which
// Flat and IVF compare; their IVFPQ index (no rows, only codes) is
// caught once one source differs too. The daemon refuses at start-up
// with index.ErrForeignIndex.
func TestServeRefusesForeignIndex(t *testing.T) {
	const n = 60
	dbPath, otherPath := writeDB(t, n, 77), writeDB(t, n, 78)
	other := readDB(t, otherPath)
	for _, kind := range []string{"flat", "ivf", "ivfpq"} {
		t.Run(kind, func(t *testing.T) {
			var idx fingerprint.Searcher
			var err error
			switch kind {
			case "flat":
				idx = index.NewFlat(other)
			case "ivf":
				idx, err = index.TrainIVF(other, index.IVFOptions{Nlist: 2, Seed: 1})
			case "ivfpq":
				// Entry 5 from another contributor: a provenance difference.
				relabeled, _ := fingerprint.NewDB(8)
				for i := range n {
					l := other.Entry(i)
					if i == 5 {
						l.S = "p2"
					}
					if err := relabeled.Add(l); err != nil {
						t.Fatal(err)
					}
				}
				idx, err = index.TrainIVFPQ(relabeled, index.IVFPQOptions{IVFOptions: index.IVFOptions{Nlist: 2, Seed: 1}, M: 2})
			}
			if err != nil {
				t.Fatal(err)
			}
			idxPath := filepath.Join(t.TempDir(), "other.idx")
			if err := serve.SaveIndexFile(idxPath, idx); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var out syncBuffer
			done := make(chan error, 1)
			go func() {
				done <- run(ctx, []string{"-db", dbPath, "-addr", "127.0.0.1:0", "-load-index", idxPath}, &out)
			}()
			for {
				select {
				case err := <-done:
					if !errors.Is(err, index.ErrForeignIndex) {
						t.Fatalf("start-up error %v, want index.ErrForeignIndex", err)
					}
					return
				case <-time.After(5 * time.Millisecond):
					if addrRE.MatchString(out.String()) {
						cancel()
						<-done
						t.Fatalf("%s index of another database served:\n%s", kind, out.String())
					}
				}
			}
		})
	}
}

// TestServeCatchesUpLaggingIndex: a -load-index file that covers only a
// prefix of the database — what a crash between the database's rename
// and the index's leaves behind — is checked, caught up by Append, and
// served over the whole database; the newest entries answer at
// distance 0.
func TestServeCatchesUpLaggingIndex(t *testing.T) {
	const n, saved = 60, 45
	dbPath := writeTestDB(t, n)
	db := readDB(t, dbPath)
	idx, err := index.TrainIVFPQ(db.Snapshot(saved), index.IVFPQOptions{IVFOptions: index.IVFOptions{Nlist: 2, Seed: 1}, M: 2})
	if err != nil {
		t.Fatal(err)
	}
	idxPath := filepath.Join(t.TempDir(), "lagging.idx")
	if err := serve.SaveIndexFile(idxPath, idx); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-db", dbPath, "-addr", "127.0.0.1:0", "-load-index", idxPath}, &out)
	}()
	client := fingerprint.NewClient("http://"+waitForAddr(t, &out), nil)
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != n {
		t.Fatalf("serving %d entries, want %d", st.Entries, n)
	}
	for i := saved; i < n; i++ {
		l := db.Entry(i)
		got, err := client.Query(l.F, l.Y, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Matches) != 1 || got.Matches[0].Index != i || got.Matches[0].Distance != 0 {
			t.Fatalf("entry %d: %+v", i, got.Matches)
		}
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestSaveIndexFileIsAtomic: a persist that fails — here index.Save
// refusing a backend it cannot write — leaves the previous index file
// whole and loadable, and no temporary file behind.
func TestSaveIndexFileIsAtomic(t *testing.T) {
	db := readDB(t, writeTestDB(t, 40))
	path := filepath.Join(t.TempDir(), "linkage.idx")
	if err := serve.SaveIndexFile(path, index.NewFlat(db)); err != nil {
		t.Fatal(err)
	}
	if err := serve.SaveIndexFile(path, db); err == nil {
		t.Fatal("saving the linear scan succeeded")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := index.Load(f, db)
	if err != nil {
		t.Fatalf("previous index no longer loads after a failed save: %v", err)
	}
	if s.Len() != db.Len() {
		t.Fatalf("previous index holds %d entries, want %d", s.Len(), db.Len())
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

// TestServeRejectsCorruptIndex: -load-index against a file with an
// unsupported version byte, a foreign magic, or a truncated body must
// fail with a clear loader error instead of serving wrong results.
func TestServeRejectsCorruptIndex(t *testing.T) {
	dbPath := writeTestDB(t, 40)
	f, err := os.Open(dbPath)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fingerprint.LoadDB(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	var good bytes.Buffer
	if err := index.Save(&good, index.NewFlat(db)); err != nil {
		t.Fatal(err)
	}

	// The loader wraps typed sentinels, so the assertion is errors.Is —
	// not message text: daemons and operators branch the same way.
	corrupt := func(name string, mutate func([]byte) []byte, want error) {
		t.Helper()
		blob := mutate(append([]byte(nil), good.Bytes()...))
		idxPath := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(idxPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(context.Background(), []string{"-db", dbPath, "-load-index", idxPath}, &syncBuffer{})
		if err == nil {
			t.Fatalf("%s accepted", name)
		}
		if !errors.Is(err, want) {
			t.Fatalf("%s: error %q is not %q", name, err, want)
		}
	}
	corrupt("future-version.idx", func(b []byte) []byte { b[4] = 99; return b }, index.ErrVersionMismatch)
	corrupt("bad-magic.idx", func(b []byte) []byte { copy(b, "NOPE"); return b }, index.ErrCorrupt)
	corrupt("truncated.idx", func(b []byte) []byte { return b[:len(b)/2] }, index.ErrCorrupt)
	// The two sentinels stay distinct: a version mismatch is not
	// corruption and vice versa.
	corruptIs := func(mutate func([]byte) []byte, not error) {
		t.Helper()
		blob := mutate(append([]byte(nil), good.Bytes()...))
		idxPath := filepath.Join(t.TempDir(), "distinct.idx")
		if err := os.WriteFile(idxPath, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		err := run(context.Background(), []string{"-db", dbPath, "-load-index", idxPath}, &syncBuffer{})
		if errors.Is(err, not) {
			t.Fatalf("error %q should not be %q", err, not)
		}
	}
	corruptIs(func(b []byte) []byte { b[4] = 99; return b }, index.ErrCorrupt)
	corruptIs(func(b []byte) []byte { copy(b, "NOPE"); return b }, index.ErrVersionMismatch)
}
