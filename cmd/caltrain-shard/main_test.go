package main

import (
	"bytes"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/serve"
	"caltrain/internal/shard"
)

func writeTestDB(t *testing.T, n, labels int) string {
	t.Helper()
	db, err := fingerprint.NewDB(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(21, uint64(n)))
	for i, f := range index.SynthFingerprints(rng, n, 8, 6, 0.2) {
		if err := db.Add(fingerprint.Linkage{F: f, Y: i % labels, S: "p1"}); err != nil {
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

// TestShardSplitEndToEnd splits a database, then verifies the written
// artifacts: the map reloads and owns every shard's labels, the shard
// DBs cover the original exactly, and each shard's training is kept
// where a daemon serving the shard with the same knobs loads it on its
// first start.
func TestShardSplitEndToEnd(t *testing.T) {
	dbPath := writeTestDB(t, 360, 9)
	outDir := filepath.Join(t.TempDir(), "shards")
	var out bytes.Buffer
	err := run([]string{"-db", dbPath, "-out", outDir, "-shards", "3", "-index", "ivf", "-nlist", "4"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "shard map (hash, 3 shards)") {
		t.Fatalf("missing summary; output:\n%s", out.String())
	}

	mf, err := os.Open(filepath.Join(outDir, MapFileName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.LoadMap(mf)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.NumShards() != 3 {
		t.Fatalf("map shards %d", m.NumShards())
	}

	backend := serve.BackendConfig{Kind: "ivf", Nlist: 4, Seed: 42} // -seed defaults to 42
	total := 0
	for sid := 0; sid < 3; sid++ {
		shardPath := filepath.Join(outDir, shardFile(sid))
		f, err := os.Open(shardPath)
		if err != nil {
			t.Fatal(err)
		}
		db, err := fingerprint.LoadDB(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		total += db.Len()
		for _, y := range db.Labels() {
			if m.Shard(y) != sid {
				t.Fatalf("shard %d holds label %d owned by %d", sid, y, m.Shard(y))
			}
		}
		kept, _ := serve.KeptIndexFile(shardPath, backend)
		if _, err := os.Stat(kept); err != nil {
			t.Fatalf("shard %d: no kept training: %v", sid, err)
		}
		srv, err := serve.Deployment{Backend: backend, DBFile: shardPath}.Build(db)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := srv.IndexOrigin(), "loaded ivf index from "+kept; got != want {
			t.Fatalf("shard %d first start: %q, want %q", sid, got, want)
		}
		if s := srv.Service().Searcher(); s.Len() != db.Len() {
			t.Fatalf("shard %d index: %d entries (db %d)", sid, s.Len(), db.Len())
		}
	}
	// The trainings and nothing else: one kept file per shard.
	files, _ := filepath.Glob(filepath.Join(outDir, "*"))
	if len(files) != 3*2+1 {
		t.Fatalf("output files %v, want 3 databases, 3 trainings and the map", files)
	}
	if total != 360 {
		t.Fatalf("shard DBs cover %d of 360 entries", total)
	}
}

// TestShardRangeStrategy balances contiguous label ranges by entries.
func TestShardRangeStrategy(t *testing.T) {
	dbPath := writeTestDB(t, 300, 10)
	outDir := filepath.Join(t.TempDir(), "shards")
	var out bytes.Buffer
	if err := run([]string{"-db", dbPath, "-out", outDir, "-shards", "5", "-strategy", "range"}, &out); err != nil {
		t.Fatal(err)
	}
	mf, err := os.Open(filepath.Join(outDir, MapFileName))
	if err != nil {
		t.Fatal(err)
	}
	m, err := shard.LoadMap(mf)
	mf.Close()
	if err != nil {
		t.Fatal(err)
	}
	if m.Strategy() != shard.StrategyRange {
		t.Fatalf("strategy %v", m.Strategy())
	}
	// Uniform 30 entries per label over 10 labels and 5 shards: each
	// shard owns exactly 2 contiguous labels.
	for y := 0; y < 10; y++ {
		if got, want := m.Shard(y), y/2; got != want {
			t.Fatalf("range map Shard(%d) = %d, want %d", y, got, want)
		}
	}
}

func TestShardRejectsBadFlags(t *testing.T) {
	dbPath := writeTestDB(t, 30, 3)
	for _, args := range [][]string{
		{"-db", dbPath, "-shards", "0"},
		{"-db", dbPath, "-strategy", "modulo"},
		{"-db", dbPath, "-index", "linear"},
		{"-db", dbPath, "-index", "flat"},
		{"-db", dbPath, "-index", "annoy"},
		{"-db", filepath.Join(t.TempDir(), "missing.db")},
	} {
		if err := run(append(args, "-out", t.TempDir()), &bytes.Buffer{}); err == nil {
			t.Fatalf("args %v accepted", args)
		}
	}
}
