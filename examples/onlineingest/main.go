// Online ingest: the durable write path end to end (§IV-C as a living
// database).
//
// The accountability database is not static — every collaborative
// training round mints new instance→model linkages. This walkthrough
// (run it with "go run ./examples/onlineingest") exercises the write
// path the way a deployment would:
//
//  1. a serving daemon over a seed linkage database, write path enabled
//     (WAL on disk, appendable Flat index),
//  2. ingest batches POSTed while queries run against the same index,
//  3. the kill-and-replay demo: the "daemon" dies without flushing
//     anything, a fresh one opens the same WAL directory, and every
//     acknowledged linkage is back,
//  4. snapshot + truncate compaction, after which a restart replays
//     nothing.
//
// In production the same shape runs as processes:
//
//	caltrain-serve -db linkage.db -wal wal/ -fsync always
//	caltrain-router ... -write-quorum 2   # replicated write fan-out
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"net/http/httptest"
	"os"
	"path/filepath"

	"caltrain"
)

func main() {
	dir, err := os.MkdirTemp("", "onlineingest")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	dbPath := filepath.Join(dir, "linkage.db")
	walDir := filepath.Join(dir, "wal")

	// 1. The seed database a training session deposited: 3000
	// fingerprints over 10 labels.
	const dim, labels, entries = 32, 10, 3000
	db := seedDB(dim, labels, entries)
	if err := saveDB(db, dbPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("seed database: %d entries, %d labels\n", db.Len(), labels)

	// Serve it with the write path enabled: one declarative Deployment —
	// an exact Flat index that grows in place, fronted by a WAL. In
	// production this is caltrain-serve -wal; here the same config
	// in-process.
	built, err := caltrain.Deployment{
		Backend: caltrain.BackendConfig{Kind: "flat"},
		WAL:     &caltrain.WALConfig{Dir: walDir},
	}.Build(db)
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(built.Handler())
	client := caltrain.NewQueryClient(srv.URL)
	if meta, err := client.Meta(); err == nil {
		fmt.Printf("serving %s backend, ingest=%v (protocol %s)\n",
			meta.Backend, meta.Capabilities.Ingest, meta.Protocol)
	}

	// 2. Ingest while querying: every batch is fsynced into the WAL
	// before it is acknowledged, and is queryable the moment it is.
	rng := rand.New(rand.NewPCG(7, 7))
	var acked []caltrain.IngestEntry
	for batch := 0; batch < 5; batch++ {
		b := make([]caltrain.IngestEntry, 40)
		for i := range b {
			b[i] = caltrain.IngestEntry{
				Fingerprint: newFingerprint(rng, dim, batch),
				Label:       (batch*40 + i) % labels,
				Source:      fmt.Sprintf("round-%d", batch),
			}
		}
		resp, err := client.Ingest(b)
		if err != nil {
			log.Fatal(err)
		}
		acked = append(acked, b...)
		q, err := client.Query(b[0].Fingerprint, b[0].Label, 1)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("batch %d: accepted %d (daemon now %d entries); fresh entry served by %q\n",
			batch, resp.Accepted, resp.Entries, q.Matches[0].Source)
	}
	st, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("write path: %d accepted, %d WAL bytes\n", st.Ingest.Accepted, st.Ingest.WALBytes)

	// 3. Kill it. No snapshot, no drain — the daemon is gone and the
	// database file on disk still holds only the seed entries.
	srv.Close()
	// (the store is simply abandoned, like a SIGKILLed process)

	reloaded, err := loadDB(dbPath)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nafter the kill, the snapshot on disk has %d entries (the seed)\n", reloaded.Len())

	// A fresh daemon opens the same WAL directory — the identical
	// Deployment over the reloaded snapshot: replay restores exactly the
	// acknowledged linkages into the database AND the index.
	built2, err := caltrain.Deployment{
		Backend: caltrain.BackendConfig{Kind: "flat"},
		WAL:     &caltrain.WALConfig{Dir: walDir},
	}.Build(reloaded)
	if err != nil {
		log.Fatal(err)
	}
	store2 := built2.Store()
	fmt.Printf("restart replayed %d WAL entries → %d total\n", store2.Replayed(), reloaded.Len())
	for _, e := range acked {
		m, err := built2.Service().Searcher().Search(e.Fingerprint, e.Label, 1)
		if err != nil || len(m) == 0 || m[0].Distance > 1e-6 {
			log.Fatalf("acknowledged entry lost after replay: %v %v", m, err)
		}
	}
	fmt.Println("every acknowledged linkage survived the kill ✓")

	// 4. Compaction: persist the database, truncate the WAL. The next
	// restart loads the snapshot and replays nothing.
	if err := store2.Snapshot(dbPath); err != nil {
		log.Fatal(err)
	}
	if err := store2.Close(); err != nil {
		log.Fatal(err)
	}
	final, err := loadDB(dbPath)
	if err != nil {
		log.Fatal(err)
	}
	built3, err := caltrain.Deployment{
		Backend: caltrain.BackendConfig{Kind: "flat"},
		WAL:     &caltrain.WALConfig{Dir: walDir},
	}.Build(final)
	if err != nil {
		log.Fatal(err)
	}
	defer built3.Close()
	fmt.Printf("after snapshot: %d entries on disk, restart replays %d\n", final.Len(), built3.Store().Replayed())
}

func seedDB(dim, labels, n int) *caltrain.LinkageDB {
	db, err := caltrain.NewLinkageDB(dim)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(42, 1))
	for i := 0; i < n; i++ {
		f := make(caltrain.Fingerprint, dim)
		y := i % labels
		for j := range f {
			f[j] = float32(y) + 0.1*rng.Float32()
		}
		if err := db.Add(caltrain.Linkage{F: f, Y: y, S: "seed"}); err != nil {
			log.Fatal(err)
		}
	}
	return db
}

// newFingerprint places ingested entries away from the seed clusters so
// each is its own nearest neighbour in the demo queries.
func newFingerprint(rng *rand.Rand, dim, batch int) []float32 {
	f := make([]float32, dim)
	for j := range f {
		f[j] = -5 - float32(batch) + 0.1*rng.Float32()
	}
	return f
}

func saveDB(db *caltrain.LinkageDB, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadDB(path string) (*caltrain.LinkageDB, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return caltrain.LoadLinkageDB(f)
}
