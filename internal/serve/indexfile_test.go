package serve

import (
	"bytes"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
)

// savedBytes is index.Save of sr.
func savedBytes(t *testing.T, sr fingerprint.Searcher) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := index.Save(&buf, sr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// otherDB is a database of db's shape whose entries are not db's.
func otherDB(t *testing.T, dim, n, labels int) *fingerprint.DB {
	t.Helper()
	db, err := fingerprint.NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(8, 8))
	for i := 0; i < n; i++ {
		f := make(fingerprint.Fingerprint, dim)
		for j := range f {
			f[j] = rng.Float32()
		}
		if err := db.Add(fingerprint.Linkage{F: f, Y: i % labels, S: "other"}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestDeploymentKeepsTrainedIndex: a WAL deployment whose backend trains
// keeps the trained index in its log directory, and a second Build over
// the same database loads that file instead of training — the file is
// not rewritten, and the served index is byte for byte a fresh
// training's. Every file Build may not load is refused without failing
// Build: the index is trained, the file overwritten with it, and the
// same bytes served.
func TestDeploymentKeepsTrainedIndex(t *testing.T) {
	const dim, n, labels = 8, 400, 4
	db := testDB(t, dim, n, labels)
	backends := map[string]BackendConfig{
		"ivf":   {Kind: "ivf", Nlist: 4, Nprobe: 3, Seed: 3},
		"ivfpq": {Kind: "ivfpq", Nlist: 4, Nprobe: 3, Seed: 3, M: 4},
	}
	for kind, backend := range backends {
		t.Run(kind, func(t *testing.T) {
			want := savedBytes(t, mustBuild(t, backend, db))

			// build builds backend (or another) over db into dir and checks
			// it serves want; it returns where the index came from.
			build := func(dir string, backend BackendConfig, over *fingerprint.DB) indexOrigin {
				t.Helper()
				srv, err := Deployment{Backend: backend, WAL: &WALConfig{Dir: dir, Fsync: "never"}}.Build(over)
				if err != nil {
					t.Fatalf("build: %v", err)
				}
				defer srv.Close()
				if over == db {
					if !bytes.Equal(savedBytes(t, srv.Service().Searcher()), savedBytes(t, mustBuild(t, backend, db))) {
						t.Fatalf("served index is not a fresh training's (%s)", srv.IndexOrigin())
					}
				}
				return srv.origins[0]
			}

			dir := t.TempDir()
			if o := build(dir, backend, db); !o.trained || o.refused != "" {
				t.Fatalf("first build: %+v, want trained", o)
			}
			k, _ := keepIndex(keepBase(dir, ""), backend)
			if got, err := os.ReadFile(k.file); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("kept file is not the trained index's Save bytes (err %v)", err)
			}
			before, err := os.Stat(k.file)
			if err != nil {
				t.Fatal(err)
			}
			if o := build(dir, backend, db); o.loaded != k.file {
				t.Fatalf("second build: %+v, want loaded from %s", o, k.file)
			}
			if after, err := os.Stat(k.file); err != nil || !os.SameFile(before, after) {
				t.Fatalf("a load rewrote the index file (err %v)", err)
			}

			other := map[string]BackendConfig{"ivf": backends["ivfpq"], "ivfpq": backends["ivf"]}[kind]
			seed, nlist, nprobe := backend, backend, backend
			seed.Seed++
			nlist.Nlist++
			nprobe.Nprobe = 0
			knobs := []BackendConfig{seed, nlist, nprobe}
			if kind == "ivfpq" {
				m := backend
				m.M = 2
				knobs = append(knobs, m)
			}
			type refusal struct {
				name    string
				setup   func(t *testing.T, dir string)
				refused string // in the refusal, "" for a missing file
			}
			cases := []refusal{
				{"cut at 0", cutAt(k, 0), "EOF"},
				{"cut in the header", cutAt(k, 9), "EOF"},
				{"cut midway", cutAt(k, len(want)/2), "EOF"},
				{"cut one short", cutAt(k, len(want)-1), "EOF"},
				{"other version", func(t *testing.T, dir string) {
					b := bytes.Clone(want)
					b[4]++
					writeFile(t, filepath.Join(dir, filepath.Base(k.file)), b)
				}, "version"},
				{"leftover tmp", func(t *testing.T, dir string) {
					writeFile(t, filepath.Join(dir, filepath.Base(k.file)+".tmp"), want[:len(want)/2])
				}, ""},
				{"another database", func(t *testing.T, dir string) {
					build(dir, backend, otherDB(t, dim, n, labels))
				}, "not the database's index"},
				{"the other kind", func(t *testing.T, dir string) { build(dir, other, db) }, "other knobs"},
			}
			for i, s := range knobs {
				cases = append(cases, refusal{fmt.Sprintf("other knobs %d", i), func(t *testing.T, dir string) { build(dir, s, db) }, "other knobs"})
			}
			for _, c := range cases {
				t.Run(c.name, func(t *testing.T) {
					dir := t.TempDir()
					c.setup(t, dir)
					o := build(dir, backend, db)
					switch {
					case !o.trained || o.loaded != "":
						t.Fatalf("%+v: want trained", o)
					case c.refused == "" && o.refused != "":
						t.Fatalf("refused %q, want a plain training", o.refused)
					case !strings.Contains(o.refused, c.refused):
						t.Fatalf("refused %q, want it to say %q", o.refused, c.refused)
					}
					k, _ := keepIndex(keepBase(dir, ""), backend)
					if got, err := os.ReadFile(k.file); err != nil || !bytes.Equal(got, want) {
						t.Fatalf("index file not overwritten with the trained index (err %v)", err)
					}
					if stale := otherIndexFiles(k); len(stale) > 0 {
						t.Fatalf("stale index files left: %v", stale)
					}
					if _, err := os.Stat(k.file + ".tmp"); !os.IsNotExist(err) {
						t.Fatalf("temporary left beside the index file: %v", err)
					}
				})
			}
		})
	}
}

// cutAt truncates keep's file, as a build into the directory wrote it,
// to its first n bytes.
func cutAt(keep indexKeep, n int) func(t *testing.T, dir string) {
	return func(t *testing.T, dir string) {
		t.Helper()
		b, err := os.ReadFile(keep.file)
		if err != nil {
			t.Fatal(err)
		}
		writeFile(t, filepath.Join(dir, filepath.Base(keep.file)), b[:n])
	}
}

func writeFile(t *testing.T, path string, b []byte) {
	t.Helper()
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDeploymentSnapshotKeepsIndex: a restart over what a snapshot
// leaves serves the index the daemon served, drift included. With the
// trained index still serving, the snapshot writes nothing: the file is
// a prefix of the new database, and the load catches it up, counting
// the caught-up entries as appended. A drift retrain is written by the
// next snapshot — or, when entries were appended to it since, the file
// is dropped and the restart trains, as it would without a file.
func TestDeploymentSnapshotKeepsIndex(t *testing.T) {
	for _, backend := range []BackendConfig{{Kind: "ivf", Nlist: 4, Seed: 5}, {Kind: "ivfpq", Nlist: 4, Seed: 5, M: 4}} {
		t.Run(backend.Kind, func(t *testing.T) {
			dir := t.TempDir()
			dbPath := filepath.Join(dir, "linkage.db")
			threshold := 0.3
			dep := Deployment{Backend: backend, WAL: &WALConfig{Dir: filepath.Join(dir, "wal"), Fsync: "never", DriftThreshold: &threshold}}
			keep, _ := keepIndex(keepBase(dep.WAL.Dir, ""), backend)
			extra := otherDB(t, 8, 600, 4) // label 3 is one the trained index never saw
			next := 0
			ingest := func(srv *Server, n int) {
				t.Helper()
				batch := make([]fingerprint.Linkage, n)
				for i := range batch {
					batch[i] = extra.Entry(next + i)
				}
				next += n
				if _, err := srv.Store().IngestBatch(batch); err != nil {
					t.Fatal(err)
				}
			}
			retrain := func(srv *Server, n int) {
				t.Helper()
				before := srv.Service().Searcher()
				ingest(srv, n)
				for deadline := time.Now().Add(10 * time.Second); srv.Service().Searcher() == before; time.Sleep(5 * time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("no drift retrain swapped in")
					}
				}
			}
			// snapshotRestart snapshots srv, closes it and builds again over
			// the snapshot: the new build must serve srv's index when the
			// file is loaded, a fresh training's when it is not.
			snapshotRestart := func(srv *Server, wantLoaded bool) *Server {
				t.Helper()
				if err := srv.Store().Snapshot(dbPath); err != nil {
					t.Fatal(err)
				}
				served := srv.Service().Searcher()
				want, drift := savedBytes(t, served), served.(index.Drifter).Drift()
				srv.Close()
				f, err := os.Open(dbPath)
				if err != nil {
					t.Fatal(err)
				}
				db, err := fingerprint.LoadDB(f)
				f.Close()
				if err != nil {
					t.Fatal(err)
				}
				if !wantLoaded {
					want, drift = savedBytes(t, mustBuild(t, backend, db)), 0
				}
				srv, err = dep.Build(db)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { srv.Close() })
				o := srv.origins[0]
				if loaded := o.loaded == keep.file; loaded != wantLoaded || o.refused != "" {
					t.Fatalf("restart: %+v, want loaded %v", o, wantLoaded)
				}
				sr := srv.Service().Searcher()
				if !bytes.Equal(savedBytes(t, sr), want) {
					t.Fatal("restart serves another index than the reference")
				}
				if got := sr.(index.Drifter).Drift(); got != drift {
					t.Fatalf("restart drift %v, want %v", got, drift)
				}
				return srv
			}

			srv, err := dep.Build(testDB(t, 8, 300, 3))
			if err != nil {
				t.Fatal(err)
			}
			trained, err := os.ReadFile(keep.file)
			if err != nil {
				t.Fatal(err)
			}
			ingest(srv, 20)
			srv = snapshotRestart(srv, true)
			if got, err := os.ReadFile(keep.file); err != nil || !bytes.Equal(got, trained) {
				t.Fatalf("a snapshot rewrote the kept training (err %v)", err)
			}
			if d := srv.Service().Searcher().(index.Drifter).Drift(); d == 0 {
				t.Fatal("the caught-up entries are not counted as drift")
			}

			// 120 more over 320 with 20 appended: drift 0.32, a retrain.
			retrain(srv, 120)
			srv = snapshotRestart(srv, true)
			ingest(srv, 5) // appended to the loaded retraining: the file stays
			srv = snapshotRestart(srv, true)
			retrain(srv, 200)
			ingest(srv, 5)
			srv = snapshotRestart(srv, false)
			if _, err := os.Stat(keep.file); err != nil {
				t.Fatalf("the restart's training was not kept: %v", err)
			}
		})
	}
}

// TestDeploymentShardedKeepsIndexPerReplica: an in-process sharded WAL
// deployment keeps one index file per replica's log directory, and a
// second Build loads every one of them.
func TestDeploymentShardedKeepsIndexPerReplica(t *testing.T) {
	walDir := t.TempDir()
	dep := Deployment{
		Backend:          BackendConfig{Kind: "ivf", Nlist: 2, Seed: 9},
		Shards:           2,
		ReplicasPerShard: 2,
		WAL:              &WALConfig{Dir: walDir, Fsync: "never"},
	}
	for _, want := range []string{"built 4 ivf shard indexes (0 loaded from their log directories)", "built 4 ivf shard indexes (4 loaded from their log directories)"} {
		srv, err := dep.Build(testDB(t, 8, 200, 4))
		if err != nil {
			t.Fatal(err)
		}
		srv.Close()
		if got := srv.IndexOrigin(); got != want {
			t.Fatalf("origin %q, want %q", got, want)
		}
	}
	files, _ := filepath.Glob(filepath.Join(walDir, "shard-*", "replica-*", "index-ivf-*.ctix"))
	if len(files) != 4 {
		t.Fatalf("index files %v, want one per replica", files)
	}
}

// TestDeploymentKeepsIndexBesideDB: a single service without a log keeps
// its training beside the database file it serves (KeptIndexFile), and
// the next Build over that file loads it. Flat trains nothing and an
// in-process sharded build has no file per shard: neither keeps one. A
// place that cannot be written is logged and costs the next Build a
// training, never a Build.
func TestDeploymentKeepsIndexBesideDB(t *testing.T) {
	db := testDB(t, 8, 400, 4)
	backend := BackendConfig{Kind: "ivf", Nlist: 4, Seed: 3}
	dbPath := filepath.Join(t.TempDir(), "shard-000.db")
	kept, ok := KeptIndexFile(dbPath, backend)
	if !ok || filepath.Dir(kept) != filepath.Dir(dbPath) || !strings.HasPrefix(filepath.Base(kept), "shard-000.db.index-ivf-") {
		t.Fatalf("KeptIndexFile = %q, %v", kept, ok)
	}
	var logged bytes.Buffer
	build := func(d Deployment) string {
		t.Helper()
		d.DBFile = dbPath
		d.Observability = &ObservabilityConfig{Logger: slog.New(slog.NewTextHandler(&logged, nil))}
		srv, err := d.Build(db)
		if err != nil {
			t.Fatal(err)
		}
		srv.Close()
		return srv.IndexOrigin()
	}
	for _, want := range []string{"trained ivf index", "loaded ivf index from " + kept} {
		if got := build(Deployment{Backend: backend}); got != want {
			t.Fatalf("origin %q, want %q", got, want)
		}
	}
	if got, err := os.ReadFile(kept); err != nil || !bytes.Equal(got, savedBytes(t, mustBuild(t, backend, db))) {
		t.Fatalf("kept file is not the training's Save bytes (err %v)", err)
	}
	if got := build(Deployment{Backend: backend, VolatileWrites: true}); got != "loaded ivf index from "+kept {
		t.Fatalf("volatile writes: origin %q", got)
	}

	if err := os.Remove(kept); err != nil {
		t.Fatal(err)
	}
	for _, d := range []Deployment{{Backend: BackendConfig{Kind: "flat"}}, {Backend: backend, Shards: 2}} {
		build(d)
		if files, _ := filepath.Glob(dbPath + ".index-*"); len(files) > 0 {
			t.Fatalf("%d shards of %s kept %v", d.Shards, d.Backend.Kind, files)
		}
	}

	if err := os.MkdirAll(filepath.Join(kept+".tmp", "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if got := build(Deployment{Backend: backend}); got != "trained ivf index" {
			t.Fatalf("origin %q with an unwritable place, want a training", got)
		}
	}
	if !strings.Contains(logged.String(), "index: keeping "+kept+": ") {
		t.Fatalf("the failed write was not logged:\n%s", logged.String())
	}
}

// mustBuild is b built over db.
func mustBuild(t *testing.T, b BackendConfig, db *fingerprint.DB) fingerprint.Searcher {
	t.Helper()
	sr, err := b.build(db)
	if err != nil {
		t.Fatal(err)
	}
	return sr
}

// TestDeploymentColocatedDBsKeepTheirOwnIndex: two databases in one
// directory — how caltrain-shard lays shards out — each keep and load
// their own training. A Build of one with other knobs refuses and
// replaces only its own file: the other's is neither refused, rewritten
// nor removed, and still loads.
func TestDeploymentColocatedDBsKeepTheirOwnIndex(t *testing.T) {
	dir := t.TempDir()
	backend, other := BackendConfig{Kind: "ivf", Nlist: 4, Seed: 3}, BackendConfig{Kind: "ivf", Nlist: 2, Seed: 3}
	paths := []string{filepath.Join(dir, "shard-000.db"), filepath.Join(dir, "shard-001.db")}
	dbs := []*fingerprint.DB{testDB(t, 8, 400, 4), otherDB(t, 8, 300, 3)}
	build := func(i int, backend BackendConfig) indexOrigin {
		t.Helper()
		srv, err := Deployment{Backend: backend, DBFile: paths[i]}.Build(dbs[i])
		if err != nil {
			t.Fatal(err)
		}
		srv.Close()
		return srv.origins[0]
	}
	kept := make([]string, 2)
	for i := range paths {
		kept[i], _ = KeptIndexFile(paths[i], backend)
		if o := build(i, backend); !o.trained || o.refused != "" {
			t.Fatalf("db %d first build: %+v, want a plain training", i, o)
		}
	}
	for i := range paths {
		if o := build(i, backend); o.loaded != kept[i] {
			t.Fatalf("db %d restart: %+v, want loaded from %s", i, o, kept[i])
		}
	}
	before, err := os.Stat(kept[1])
	if err != nil {
		t.Fatal(err)
	}
	if o := build(0, other); !strings.HasPrefix(o.refused, kept[0]+" refused (trained with other knobs)") {
		t.Fatalf("db 0 with other knobs: %+v, want its own file refused", o)
	}
	if _, err := os.Stat(kept[0]); !os.IsNotExist(err) {
		t.Fatalf("db 0's file of the first knobs was not replaced: %v", err)
	}
	if after, err := os.Stat(kept[1]); err != nil || !os.SameFile(before, after) {
		t.Fatalf("db 0's restart touched db 1's file (err %v)", err)
	}
	if o := build(1, backend); o.loaded != kept[1] {
		t.Fatalf("db 1 after db 0's restart: %+v, want loaded from %s", o, kept[1])
	}
}

// TestKeptIndexFileNames: the name a training is kept under is part of
// the on-disk contract — a file an operator's daemon kept must still be
// found after an upgrade — so the digest of each knob set is pinned.
func TestKeptIndexFileNames(t *testing.T) {
	for _, c := range []struct {
		backend BackendConfig
		want    string
	}{
		{BackendConfig{Kind: "ivf", Seed: 42}, "shard-000.db.index-ivf-6b0755fc21c1e83a.ctix"},
		{BackendConfig{Kind: "ivfpq", Seed: 42}, "shard-000.db.index-ivfpq-9d846285f8d131e0.ctix"},
		{BackendConfig{Kind: "ivf", Nlist: 4, Nprobe: 2, Iters: 5, Seed: 7}, "shard-000.db.index-ivf-f730a9feab656328.ctix"},
		{BackendConfig{Kind: "ivfpq", Nlist: 4, Nprobe: 2, Seed: 7, M: 8}, "shard-000.db.index-ivfpq-3ec45a6f7c824263.ctix"},
	} {
		if got, ok := KeptIndexFile("shard-000.db", c.backend); !ok || got != c.want {
			t.Errorf("%+v keeps %q (%v), want %q", c.backend, got, ok, c.want)
		}
	}
	for _, b := range []BackendConfig{{}, {Kind: "flat"}, {Kind: "linear"}, {Kind: "annoy"}} {
		if got, ok := KeptIndexFile("shard-000.db", b); ok {
			t.Errorf("%q keeps %q, want nothing: it does not train", b.Kind, got)
		}
	}
}
