package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
	"caltrain/internal/shard"
)

// TestMain doubles as the daemon-under-test: when re-exec'd with
// CALTRAIN_SERVE_HELPER=1 the test binary runs a real caltrain-serve
// process that can be SIGKILLed — the only honest way to test WAL
// durability.
func TestMain(m *testing.M) {
	if os.Getenv("CALTRAIN_SERVE_HELPER") == "1" {
		var args []string
		if err := json.Unmarshal([]byte(os.Getenv("CALTRAIN_SERVE_ARGS")), &args); err != nil {
			fmt.Fprintln(os.Stderr, "helper:", err)
			os.Exit(2)
		}
		if err := run(context.Background(), args, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "caltrain-serve:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// daemon is one spawned caltrain-serve child process.
type daemon struct {
	cmd *exec.Cmd
	out *syncBuffer
}

func spawnDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	blob, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "CALTRAIN_SERVE_HELPER=1", "CALTRAIN_SERVE_ARGS="+string(blob))
	out := &syncBuffer{}
	cmd.Stdout = out
	cmd.Stderr = out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
	})
	return &daemon{cmd: cmd, out: out}
}

func (d *daemon) sigkill(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	d.cmd.Wait()
}

func waitHealthy(t *testing.T, client *fingerprint.Client) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for client.Healthz() != nil {
		if time.Now().After(deadline) {
			t.Fatal("daemon never became healthy")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	blob, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestIngestDurabilityEndToEnd is the write path's acceptance test, the
// production topology in miniature: one shard served by two real daemon
// processes (each with its own database copy and WAL), fronted by a
// router that replicates ingest batches to both with a full write
// quorum. A batch is acknowledged, one replica is SIGKILLed and
// restarted, and WAL replay must restore exactly the acknowledged
// linkages — queries then return the new entries from every replica.
func TestIngestDurabilityEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	seedPath := writeTestDB(t, 120)

	// Two replicas of the one shard, each its own copy of the seed
	// database and its own WAL directory (as on separate hosts).
	var replicas []*fingerprint.Client
	var dirs []string
	var procs []*daemon
	for i := 0; i < 2; i++ {
		dir := t.TempDir()
		copyFile(t, seedPath, filepath.Join(dir, "linkage.db"))
		d := spawnDaemon(t,
			"-db", filepath.Join(dir, "linkage.db"),
			"-wal", filepath.Join(dir, "wal"),
			"-addr", "127.0.0.1:0", "-backend", "flat",
		)
		addr := waitForAddr(t, d.out)
		client := fingerprint.NewClient("http://"+addr, nil)
		waitHealthy(t, client)
		replicas = append(replicas, client)
		dirs = append(dirs, dir)
		procs = append(procs, d)
	}

	m, err := shard.NewHashMap(1)
	if err != nil {
		t.Fatal(err)
	}
	addrOf := func(d *daemon) string {
		return "http://" + addrRE.FindStringSubmatch(d.out.String())[1]
	}
	rt, err := shard.NewRouter(m, [][]shard.Replica{{
		shard.NewHTTPReplica(addrOf(procs[0]), nil),
		shard.NewHTTPReplica(addrOf(procs[1]), nil),
	}}, shard.WithWriteQuorum(2))
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()
	routerClient := fingerprint.NewClient(routerSrv.URL, nil)

	// Ingest a batch through the router fan-out; with quorum 2 the ack
	// means both replicas logged it durably.
	entries := make([]fingerprint.IngestEntry, 9)
	for i := range entries {
		f := make([]float32, 8)
		f[i%8] = 7 + float32(i) // far from the seed cluster: it is its own NN
		entries[i] = fingerprint.IngestEntry{Fingerprint: f, Label: i % 3, Source: "ingested"}
	}
	resp, err := routerClient.Ingest(entries)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != len(entries) || resp.Failed != 0 || len(resp.DegradedReplicas) != 0 {
		t.Fatalf("routed ingest: %+v", resp)
	}

	// SIGKILL replica 1 — no drain, no snapshot, nothing but the WAL.
	procs[1].sigkill(t)

	// Restart it with identical flags. The database file was never
	// rewritten, so everything acknowledged must come back via replay.
	d := spawnDaemon(t,
		"-db", filepath.Join(dirs[1], "linkage.db"),
		"-wal", filepath.Join(dirs[1], "wal"),
		"-addr", "127.0.0.1:0", "-backend", "flat",
	)
	addr := waitForAddr(t, d.out)
	restarted := fingerprint.NewClient("http://"+addr, nil)
	waitHealthy(t, restarted)
	replicas[1] = restarted

	// Exactly the acknowledged linkages: seed + batch, no more, no less.
	for i, client := range replicas {
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Entries != 120+len(entries) {
			t.Fatalf("replica %d serves %d entries, want %d", i, st.Entries, 120+len(entries))
		}
		for j, e := range entries {
			out, err := client.Query(e.Fingerprint, e.Label, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Matches) != 1 || out.Matches[0].Source != "ingested" || out.Matches[0].Distance > 1e-6 {
				t.Fatalf("replica %d entry %d: %+v", i, j, out.Matches)
			}
		}
	}
	st, err := replicas[1].Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingest == nil || st.Ingest.ReplayEntries != uint64(len(entries)) {
		t.Fatalf("restarted replica ingest stats: %+v", st.Ingest)
	}

	// And through the router: both replicas are serving again.
	single, err := routerClient.Query(entries[0].Fingerprint, entries[0].Label, 1)
	if err != nil || len(single.Matches) != 1 || single.Matches[0].Source != "ingested" {
		t.Fatalf("routed query after restart: %+v, %v", single, err)
	}
}

// TestServeIngestGracefulSnapshot: a drained daemon compacts — the
// database file is rewritten with the ingested entries and the restart
// replays nothing.
func TestServeIngestGracefulSnapshot(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "linkage.db")
	copyFile(t, writeTestDB(t, 60), dbPath)

	d := spawnDaemon(t, "-db", dbPath, "-wal", filepath.Join(dir, "wal"),
		"-addr", "127.0.0.1:0", "-backend", "flat")
	addr := waitForAddr(t, d.out)
	client := fingerprint.NewClient("http://"+addr, nil)
	waitHealthy(t, client)

	entries := []fingerprint.IngestEntry{{Fingerprint: make([]float32, 8), Label: 1, Source: "snap"}}
	if _, err := client.Ingest(entries); err != nil {
		t.Fatal(err)
	}
	// SIGTERM: drain, snapshot, truncate.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v\n%s", err, d.out.String())
	}

	d2 := spawnDaemon(t, "-db", dbPath, "-wal", filepath.Join(dir, "wal"),
		"-addr", "127.0.0.1:0", "-backend", "flat")
	addr2 := waitForAddr(t, d2.out)
	client2 := fingerprint.NewClient("http://"+addr2, nil)
	waitHealthy(t, client2)
	st, err := client2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 61 {
		t.Fatalf("after snapshot restart: %d entries, want 61", st.Entries)
	}
	if st.Ingest == nil || st.Ingest.ReplayEntries != 0 {
		t.Fatalf("snapshot restart should replay nothing: %+v", st.Ingest)
	}
}

// TestServePeriodicSnapshot: a wal.snapshot_every daemon compacts while
// it serves — one tick after an ingest the log is truncated and -db
// reloads with the ingested entry, with no shutdown in between.
func TestServePeriodicSnapshot(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "linkage.db")
	copyFile(t, writeTestDB(t, 60), dbPath)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run(ctx, []string{"-db", dbPath, "-wal", filepath.Join(dir, "wal"),
			"-snapshot-every", "20ms", "-addr", "127.0.0.1:0"}, &out)
	}()
	client := fingerprint.NewClient("http://"+waitForAddr(t, &out), nil)
	before, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	entries := []fingerprint.IngestEntry{{Fingerprint: make([]float32, 8), Label: 1, Source: "tick"}}
	if _, err := client.Ingest(entries); err != nil {
		t.Fatal(err)
	}
	// The acknowledged entry is in the log until a tick truncates it
	// back to an empty segment, after the database file is written.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Ingest.WALBytes == before.Ingest.WALBytes {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("the wal was never truncated: %+v", st.Ingest)
		}
	}
	db := readDB(t, dbPath)
	if db.Len() != 61 || db.Entry(60).S != "tick" {
		t.Fatalf("-db reloads %d entries, want 61 ending with the ingested one", db.Len())
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestServeSetupIsLegible: every backend announces how long loading the
// database and building its index took, the same split is on
// /v1/metrics (lint-clean), and a drift retrain moves the build gauge.
func TestServeSetupIsLegible(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "linkage.db")
	copyFile(t, writeTestDB(t, 300), dbPath)
	d := spawnDaemon(t, "-db", dbPath, "-wal", filepath.Join(dir, "wal"), "-fsync", "never",
		"-addr", "127.0.0.1:0", "-backend", "ivf", "-nlist", "4", "-nprobe", "2", "-drift-threshold", "0.05")
	addr := waitForAddr(t, d.out)
	if !regexp.MustCompile(`(?m)^loaded 300 entries in \S+, trained ivf index in \S+ \(nprobe 2\)$`).MatchString(d.out.String()) {
		t.Fatalf("no set-up line in the daemon output:\n%s", d.out.String())
	}
	client := fingerprint.NewClient("http://"+addr, nil)
	waitHealthy(t, client)

	gauge := func(name string) float64 {
		t.Helper()
		body, err := client.Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.Lint(strings.NewReader(body)); err != nil {
			t.Fatalf("exposition lint: %v", err)
		}
		m := regexp.MustCompile(`(?m)^` + name + ` (\S+)$`).FindStringSubmatch(body)
		if m == nil {
			t.Fatalf("%s missing from /v1/metrics:\n%s", name, body)
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	if v := gauge("caltrain_startup_load_seconds"); v <= 0 {
		t.Errorf("caltrain_startup_load_seconds = %v", v)
	}
	atStartup := gauge("caltrain_index_build_seconds")
	if atStartup <= 0 {
		t.Errorf("caltrain_index_build_seconds = %v", atStartup)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for _, part := range []string{"rows", "provenance", "class_index", "index"} {
		v := gauge(`caltrain_linkage_resident_bytes\{part="` + part + `"\}`)
		if v <= 0 || int64(v) != st.LinkageResidentBytes[part] {
			t.Errorf("caltrain_linkage_resident_bytes{part=%q} = %v, /stats %d", part, v, st.LinkageResidentBytes[part])
		}
	}
	if rows := st.LinkageResidentBytes["rows"]; rows != 300*8*4 {
		t.Errorf("rows = %d bytes for a loaded 300 × 8 database", rows)
	}

	// 30 appends on 300 entries cross the 5 % drift threshold.
	entries := make([]fingerprint.IngestEntry, 30)
	for i := range entries {
		entries[i] = fingerprint.IngestEntry{Fingerprint: make([]float32, 8), Label: i % 3, Source: "late"}
	}
	if _, err := client.Ingest(entries); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for gauge("caltrain_ingest_retrains_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("no drift retrain within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if after := gauge("caltrain_index_build_seconds"); after <= 0 || after == atStartup {
		t.Errorf("caltrain_index_build_seconds = %v after a retrain, %v at startup", after, atStartup)
	}
}

// TestServeIngestSnapshotKeepsIndexInSync is the kept-index restart
// regression guard: a snapshot grows the database past the kept index
// file, and the restart must load the file and catch it up — serving
// every entry, and counting the caught-up ones as drift — rather than
// refuse it.
func TestServeIngestSnapshotKeepsIndexInSync(t *testing.T) {
	dir := t.TempDir()
	dbPath := filepath.Join(dir, "linkage.db")
	copyFile(t, writeTestDB(t, 90), dbPath)
	args := []string{"-db", dbPath, "-backend", "ivf", "-nlist", "4", "-wal", filepath.Join(dir, "wal"), "-addr", "127.0.0.1:0"}

	// The first run trains and keeps the index.
	d := spawnDaemon(t, args...)
	client := fingerprint.NewClient("http://"+waitForAddr(t, d.out), nil)
	waitHealthy(t, client)
	if _, err := client.Ingest([]fingerprint.IngestEntry{
		{Fingerprint: make([]float32, 8), Label: 0, Source: "grow"},
	}); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("daemon exit: %v\n%s", err, d.out.String())
	}

	// Each restart loads the kept file: it must come up with the grown
	// entry count, replay nothing, and report the entries the file lacks
	// as drift — also after another ingest + SIGTERM.
	for round := 0; round < 2; round++ {
		d = spawnDaemon(t, args...)
		client = fingerprint.NewClient("http://"+waitForAddr(t, d.out), nil)
		waitHealthy(t, client)
		if !strings.Contains(d.out.String(), ", loaded ivf index from ") {
			t.Fatalf("round %d did not load the kept index:\n%s", round, d.out.String())
		}
		st, err := client.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if want := 91 + round; st.Entries != want || st.Index != "ivf" || st.Ingest.ReplayEntries != 0 || st.Ingest.Drift == 0 {
			t.Fatalf("round %d: %d entries (%s, replay %d, drift %v), want %d and drift", round, st.Entries, st.Index, st.Ingest.ReplayEntries, st.Ingest.Drift, want)
		}
		if _, err := client.Ingest([]fingerprint.IngestEntry{
			{Fingerprint: make([]float32, 8), Label: 1, Source: "grow"},
		}); err != nil {
			t.Fatal(err)
		}
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		if err := d.cmd.Wait(); err != nil {
			t.Fatalf("round %d daemon exit: %v\n%s", round, err, d.out.String())
		}
	}
}

// TestServeRestartLoadsKeptIndex: a daemon whose backend trains keeps
// the trained index — with -wal in its log directory, read-only beside
// -db — so a restart after a SIGKILL loads it instead of training and
// answers exactly as the trained daemon did (a -wal daemon replays its
// acknowledged linkages into it). A file of other knobs is refused,
// retrained and replaced, and the retrained file is byte for byte the
// first training's. A place the file cannot be written costs a training
// on each start, never a start.
func TestServeRestartLoadsKeptIndex(t *testing.T) {
	for _, c := range []struct {
		name string
		wal  bool
	}{{"wal", true}, {"read-only", false}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			dbPath, walDir := filepath.Join(dir, "linkage.db"), filepath.Join(dir, "wal")
			copyFile(t, writeTestDB(t, 300), dbPath)
			kept := filepath.Join(dir, "linkage.db.index-ivfpq-*.ctix")
			args := []string{"-db", dbPath, "-backend", "ivfpq", "-addr", "127.0.0.1:0"}
			if c.wal {
				kept = filepath.Join(walDir, "index-ivfpq-*.ctix")
				args = append(args, "-wal", walDir)
			}
			start := func(nlist string) (*daemon, *fingerprint.Client) {
				t.Helper()
				d := spawnDaemon(t, append(args, "-nlist", nlist)...)
				client := fingerprint.NewClient("http://"+waitForAddr(t, d.out), nil)
				waitHealthy(t, client)
				return d, client
			}
			setup := func(d *daemon, origin string) {
				t.Helper()
				if !regexp.MustCompile(`(?m)^loaded 300 entries in \S+, ` + origin + ` in \S+ \(nprobe \d+\)$`).MatchString(d.out.String()) {
					t.Fatalf("start-up is not %q:\n%s", origin, d.out.String())
				}
			}
			keptFile := func() string {
				t.Helper()
				files, err := filepath.Glob(kept)
				if err != nil || len(files) != 1 {
					t.Fatalf("kept index files %v (%v), want one", files, err)
				}
				return files[0]
			}
			entries := make([]fingerprint.IngestEntry, 12)
			for i := range entries {
				f := make([]float32, 8)
				f[i%8] = 9 + float32(i) // far from the seed cluster: its own nearest neighbour
				entries[i] = fingerprint.IngestEntry{Fingerprint: f, Label: i % 4, Source: "acked"}
			}
			answers := func(client *fingerprint.Client) [][]fingerprint.MatchJSON {
				t.Helper()
				var got [][]fingerprint.MatchJSON
				for _, e := range entries {
					out, err := client.Query(e.Fingerprint, e.Label, 3)
					if err != nil {
						t.Fatal(err)
					}
					got = append(got, out.Matches)
				}
				return got
			}

			d, client := start("4")
			setup(d, "trained ivfpq index")
			if c.wal {
				if resp, err := client.Ingest(entries); err != nil || resp.Accepted != len(entries) {
					t.Fatalf("ingest: %+v %v", resp, err)
				}
			}
			trained := answers(client)
			d.sigkill(t)
			file := keptFile()
			first, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}

			d, client = start("4")
			setup(d, "loaded ivfpq index from "+regexp.QuoteMeta(file))
			if got := answers(client); !reflect.DeepEqual(got, trained) {
				t.Fatalf("the loaded daemon answers\n%v\nthe trained one\n%v", got, trained)
			}
			served := 300
			if c.wal {
				served += len(entries)
				for i, m := range trained {
					if len(m) == 0 || m[0].Source != "acked" || m[0].Distance > 1e-6 {
						t.Fatalf("acked entry %d: %+v", i, m)
					}
				}
			}
			if st, err := client.Stats(); err != nil || st.Index != "ivfpq" || st.Entries != served {
				t.Fatalf("the loaded daemon's stats: %+v %v", st, err)
			}
			d.sigkill(t)

			// Other knobs: the file is refused, and the training of these
			// knobs replaces it — and is in turn refused by the first knobs.
			d, _ = start("2")
			setup(d, "index file "+regexp.QuoteMeta(file)+` refused \(trained with other knobs\); trained ivfpq index`)
			d.sigkill(t)
			if other := keptFile(); other == file {
				t.Fatalf("other knobs kept %s, the first knobs' file", other)
			}
			d, client = start("4")
			setup(d, `index file \S+ refused \(trained with other knobs\); trained ivfpq index`)
			if got := answers(client); !reflect.DeepEqual(got, trained) {
				t.Fatal("the retrained daemon answers otherwise than the first training")
			}
			d.sigkill(t)
			if again, err := os.ReadFile(keptFile()); err != nil || !bytes.Equal(again, first) {
				t.Fatalf("the retrained file is not the first training's bytes (err %v)", err)
			}

			// A place that cannot be written: the temporary the file is
			// written through is a directory, which no user can replace.
			if err := os.Remove(file); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(filepath.Join(file+".tmp", "occupied"), 0o755); err != nil {
				t.Fatal(err)
			}
			for range 2 {
				d, client = start("4")
				setup(d, "trained ivfpq index")
				if !strings.Contains(d.out.String(), "index: keeping "+file+": ") {
					t.Fatalf("the failed write was not logged:\n%s", d.out.String())
				}
				if got := answers(client); !reflect.DeepEqual(got, trained) {
					t.Fatal("the daemon that could not keep its index answers otherwise")
				}
				d.sigkill(t)
			}
		})
	}
}
