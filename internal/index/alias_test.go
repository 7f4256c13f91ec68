package index

import (
	"bytes"
	"errors"
	"math/rand/v2"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/ingest"
	"caltrain/internal/kernel"
)

// addedAndLoaded returns the same n linkages twice: as the database
// Add built, and as LoadDB reads it back from its Save bytes. grouped
// writes the labels one after the other, otherwise they interleave.
func addedAndLoaded(t testing.TB, dim, n, classes int, grouped bool, seed uint64) (added, loaded *fingerprint.DB, raw []byte) {
	t.Helper()
	added, err := fingerprint.NewDB(dim)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(seed, 1))
	for i := 0; i < n; i++ {
		y := i % classes
		if grouped {
			y = i * classes / n
		}
		var h [32]byte
		h[0], h[1], h[2] = byte(i), byte(i>>8), byte(i>>16)
		l := fingerprint.Linkage{F: randomFP(rng, dim), Y: y, S: []string{"alice", "bob", "carol"}[i%3], H: h}
		if err := added.Add(l); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := added.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err = fingerprint.LoadDB(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return added, loaded, buf.Bytes()
}

// bucketsOf exposes the float-vector buckets of a Flat or IVF index.
func bucketsOf(t testing.TB, s Searcher) map[int]*bucket {
	t.Helper()
	switch x := s.(type) {
	case *Flat:
		return x.buckets
	case *IVF:
		out := make(map[int]*bucket, len(x.labels))
		for y, c := range x.labels {
			out[y] = c.b
		}
		return out
	}
	t.Fatalf("%s keeps no vector buckets", s.Kind())
	return nil
}

// assertAliased fails unless every row a bucket scans IS the row the
// database keeps for that entry — same address — rather than a copy:
// rows loaded into a class block, stored by Add, or ingested after the
// index was built alike.
func assertAliased(t testing.TB, s Searcher, db *fingerprint.DB, when string) {
	t.Helper()
	for y, b := range bucketsOf(t, s) {
		if b.vecs.Len() != len(b.idx) {
			t.Fatalf("%s %s: label %d scans %d rows for %d entries", s.Kind(), when, y, b.vecs.Len(), len(b.idx))
		}
		for p, i := range b.idx {
			if row, e := b.vecs.At(p), db.Entry(int(i)); e.Y != y || &row[0] != &e.F[0] {
				t.Fatalf("%s %s: label %d position %d does not alias database entry %d (label %d)", s.Kind(), when, y, p, i, e.Y)
			}
		}
	}
}

// databaseOf is the database an index resolves every entry through.
func databaseOf(s Searcher) *fingerprint.DB {
	return s.(interface{ database() *fingerprint.DB }).database()
}

// ownedBytesOf reads the OwnedBytes every backend reports.
func ownedBytesOf(s Searcher) int64 { return s.(interface{ OwnedBytes() int64 }).OwnedBytes() }

// TestIndexAliasesLoadedDB is the one-resident-copy invariant: an index
// built over a LoadDB database scans the database's own rows, appends
// — linkages stored in the database by Append itself — are scanned
// where the database stored them, each costing the index its database
// index and nothing of the linkage, and a retrain over a snapshot
// aliases again.
func TestIndexAliasesLoadedDB(t *testing.T) {
	const dim, classes = 8, 3
	rng := rand.New(rand.NewPCG(4, 4))
	for _, kind := range []string{"flat", "ivf"} {
		_, db, _ := addedAndLoaded(t, dim, 600, classes, false, 5)
		backend := Appender(NewFlat(db))
		if kind == "ivf" {
			ivf, err := TrainIVF(db, IVFOptions{Nlist: 6, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			backend = ivf
		}
		assertAliased(t, backend, db, "after build")
		vectors, owned := vectorBytesOf(backend), ownedBytesOf(backend)
		for i := 0; i < 1000*classes; i++ {
			// Rows the database does not hold yet: Append stores them there.
			if err := backend.Append(db.Len(), fingerprint.Linkage{F: randomFP(rng, dim), Y: i % classes, S: "app"}); err != nil {
				t.Fatal(err)
			}
		}
		assertAliased(t, backend, db, "after 1000 appends per class")
		for y, b := range bucketsOf(t, backend) {
			if len(b.idx) != 200+1000 || db.Len() != 600+1000*classes {
				t.Fatalf("%s label %d: %d entries, database %d", kind, y, len(b.idx), db.Len())
			}
		}
		if grew := vectorBytesOf(backend) - vectors; grew < int64(1000*classes*dim*4) {
			t.Fatalf("%s: VectorBytes grew by %d for %d appended vectors", kind, grew, 1000*classes)
		}
		if grew := ownedBytesOf(backend) - owned; grew > int64(1000*classes*16) {
			t.Fatalf("%s: OwnedBytes grew by %d for %d appended vectors: more than their database indices and lists", kind, grew, 1000*classes)
		}
	}

	// A retrain over a snapshot of a database that has grown by Add reads
	// the rows the database holds, in its blocks and its chunks alike.
	_, db, _ := addedAndLoaded(t, dim, 600, classes, false, 5)
	for i := 0; i < 90; i++ {
		if err := db.Add(fingerprint.Linkage{F: randomFP(rng, dim), Y: i % classes, S: "late"}); err != nil {
			t.Fatal(err)
		}
	}
	snap := db.Snapshot(-1)
	retrained, err := TrainIVF(snap, IVFOptions{Nlist: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	assertAliased(t, retrained, db, "retrained over Snapshot(-1)")
	want, err := TrainIVF(rebuiltByAdd(t, db), IVFOptions{Nlist: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(savedBytes(t, retrained), savedBytes(t, want)) {
		t.Fatal("IVF trained over a class block and chunks saves different bytes than over chunks alone")
	}
}

// TestIndexHoldsNoProvenance: an index built over a database — loaded
// or Add-built — keeps no linkage of its own, only the database it
// resolves its entries through and each one's database index. A linkage
// handed to Append that the database does not hold yet is stored in the
// database, not in the index, and served with its own index, source
// and hash; loaded over a copy of that database, the same index serves
// it the same, and rebased onto the original it reads the original's rows.
func TestIndexHoldsNoProvenance(t *testing.T) {
	const dim, classes = 8, 3
	added, loaded, _ := addedAndLoaded(t, dim, 300, classes, true, 13)
	for _, origin := range []*fingerprint.DB{added, loaded} {
		for _, k := range bindKinds {
			db := origin.Snapshot(-1) // the ghost lands in a database of this backend's own
			x, err := k.build(db)
			if err != nil {
				t.Fatal(err)
			}
			if databaseOf(x) != db || x.Len() != db.Len() {
				t.Fatalf("%s: holds %d entries through %p, want the %d of %p", x.Kind(), x.Len(), databaseOf(x), db.Len(), db)
			}
			owned := ownedBytesOf(x)
			ghost := fingerprint.Linkage{F: make(fingerprint.Fingerprint, dim), Y: 1, S: "ghost", H: [32]byte{0xfe, 0xed}}
			ghost.F[0] = 40 // far from every unit-norm entry: its own nearest neighbour
			ghostIdx := db.Len()
			if err := x.(Appender).Append(ghostIdx, ghost); err != nil {
				t.Fatal(err)
			}
			if e := db.Entry(ghostIdx); db.Len() != ghostIdx+1 || e.S != ghost.S || e.H != ghost.H {
				t.Fatalf("%s: Append did not store the linkage in the database: %d entries, entry %+v", x.Kind(), db.Len(), e)
			}
			if grew := ownedBytesOf(x) - owned; grew > 64 {
				t.Fatalf("%s: one Append grew the index by %d bytes", x.Kind(), grew)
			}
			reloaded, err := Load(bytes.NewReader(savedBytes(t, x)), rebuiltByAdd(t, db))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []Searcher{x, reloaded} {
				got, err := s.Search(ghost.F, 1, 2)
				if err != nil || len(got) != 2 {
					t.Fatalf("%s: %v, %v", s.Kind(), got, err)
				}
				if m := got[0]; m.Index != ghostIdx || m.Source != "ghost" || m.Hash != ghost.H || m.Label != 1 {
					t.Fatalf("%s: the appended linkage is served as %+v", s.Kind(), m)
				}
				if e := db.Entry(got[1].Index); got[1].Source != e.S || got[1].Hash != e.H || e.Y != 1 {
					t.Fatalf("%s: the runner-up %+v is not the database's entry %+v", s.Kind(), got[1], e)
				}
			}
			// Rebased onto the database it holds a copy of, the reloaded
			// index reads that database's rows, not the copy's.
			rebase(t, reloaded, db)
			if databaseOf(reloaded) != db {
				t.Fatalf("%s: rebased onto the original, it reads another database", x.Kind())
			}
			if k.name != "ivfpq" {
				assertAliased(t, reloaded, db, "rebased")
			}
		}
	}
}

// swapCatcher records the backend a drift retrain hot-swaps in and
// signals the swap on done.
type swapCatcher struct {
	mu   sync.Mutex
	s    fingerprint.Searcher
	done chan struct{}
}

func (c *swapCatcher) SetSearcher(s fingerprint.Searcher) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.s == nil {
		close(c.done)
	}
	c.s = s
}

// TestStoreRetrainAliases drives the real drift path: ingest past the
// threshold, let the store retrain over Snapshot(-1) and swap, and the
// swapped-in index must be a view of the live database — rebased off
// the snapshot it was trained over, so that the entries ingested before
// and after the swap resolve where the database stored them — and, for
// IVF, scan the database's own rows.
func TestStoreRetrainAliases(t *testing.T) {
	const dim, classes = 8, 2
	for _, kind := range []string{"ivf", "ivfpq"} {
		_, db, _ := addedAndLoaded(t, dim, 400, classes, true, 9)
		train := func(d *fingerprint.DB) (Appender, error) {
			if kind == "ivfpq" {
				return TrainIVFPQ(d, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 4, Seed: 1}, M: 4})
			}
			return TrainIVF(d, IVFOptions{Nlist: 4, Seed: 1})
		}
		first, err := train(db)
		if err != nil {
			t.Fatal(err)
		}
		swapped := swapCatcher{done: make(chan struct{})}
		store, err := ingest.Open(t.TempDir(), db, first, ingest.Options{
			WAL:            ingest.WALOptions{Sync: ingest.SyncNever},
			DriftThreshold: 0.1,
			Rebuild:        train,
			Swapper:        &swapped,
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(6, 6))
		ingest := func(n int) {
			batch := make([]fingerprint.Linkage, n)
			for i := range batch {
				batch[i] = fingerprint.Linkage{F: randomFP(rng, dim), Y: i % classes, S: "drift"}
			}
			if _, err := store.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		ingest(60)
		select {
		case <-swapped.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: drift past the threshold did not retrain", kind)
		}
		ingest(10) // below the threshold: lands in the swapped-in backend
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if swapped.s.Len() != db.Len() || databaseOf(swapped.s) != db {
			t.Fatalf("%s: swapped backend holds %d of %d entries, through %p, not the live database %p", kind, swapped.s.Len(), db.Len(), databaseOf(swapped.s), db)
		}
		if kind == "ivf" {
			assertAliased(t, swapped.s, db, "after the store's drift retrain")
		}
	}
}

// rebuiltByAdd copies a database entry by entry, so the copy has no
// class blocks and every index over it takes the private-copy path.
func rebuiltByAdd(t testing.TB, db *fingerprint.DB) *fingerprint.DB {
	t.Helper()
	out, err := fingerprint.NewDB(db.Dim())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < db.Len(); i++ {
		if err := out.Add(db.Entry(i)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func savedBytes(t testing.TB, s Searcher) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// vectorBytesOf reads the VectorBytes every backend reports.
func vectorBytesOf(s Searcher) int64 {
	return s.(interface{ VectorBytes() int64 }).VectorBytes()
}

// TestLoadedMatchesAdded: where the vectors live must not show. For a
// label-interleaved and a class-grouped file, under every kernel
// implementation, the LoadDB-built and the Add-built database answer
// DB.Query, Flat, IVF and IVFPQ Search/SearchBatch identically and
// every index saves identical bytes.
func TestLoadedMatchesAdded(t *testing.T) {
	const dim, classes = 16, 3
	for _, grouped := range []bool{false, true} {
		added, loaded, _ := addedAndLoaded(t, dim, 700, classes, grouped, 41)
		rng := rand.New(rand.NewPCG(17, 3))
		fs, labels, ks := batchCase(rng, dim, 24, classes+1)
		for _, im := range kernel.Impls() {
			restore, err := kernel.SetActive(im.Name)
			if err != nil {
				t.Fatal(err)
			}
			build := func(db *fingerprint.DB) []fingerprint.Searcher {
				ivf, err := TrainIVF(db, IVFOptions{Nlist: 8, Nprobe: 3, Seed: 4})
				if err != nil {
					t.Fatal(err)
				}
				pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 8, Nprobe: 3, Seed: 4}, M: 4})
				if err != nil {
					t.Fatal(err)
				}
				return []fingerprint.Searcher{db, NewFlat(db), ivf, pq}
			}
			want, got := build(added), build(loaded)
			for bi := range want {
				name := want[bi].Kind() + " under " + im.Name
				for i := range fs {
					w, werr := want[bi].Search(fs[i], labels[i], ks[i])
					g, gerr := got[bi].Search(fs[i], labels[i], ks[i])
					if (werr == nil) != (gerr == nil) || !reflect.DeepEqual(g, w) {
						t.Fatalf("%s grouped=%v query %d: %v %v, want %v %v", name, grouped, i, g, gerr, w, werr)
					}
				}
				wb, ok := want[bi].(fingerprint.BatchSearcher)
				if !ok {
					continue // the linear scan has no batch path and no Save
				}
				wres, _ := wb.SearchBatch(fs, labels, ks)
				gres, _ := got[bi].(fingerprint.BatchSearcher).SearchBatch(fs, labels, ks)
				if !reflect.DeepEqual(gres, wres) {
					t.Fatalf("%s grouped=%v: SearchBatch differs between loaded and added", name, grouped)
				}
				if !bytes.Equal(savedBytes(t, got[bi]), savedBytes(t, want[bi])) {
					t.Fatalf("%s grouped=%v: Save bytes differ between loaded and added", name, grouped)
				}
			}
			restore()
		}
	}
}

// TestAliasedIndexRace runs everything that touches the shared storage
// at once — searches over the database's rows that resolve every match's
// provenance through the database, DB.Add growing the database's
// columns across chunk boundaries, appends of those entries, and
// snapshots built into fresh indexes; for IVFPQ, searches whose exact
// stage reads rows through the database. Run under -race.
func TestAliasedIndexRace(t *testing.T) {
	const dim, classes = 8, 3
	_, db, _ := addedAndLoaded(t, dim, 450, classes, false, 23)
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 6, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 6, Seed: 2}, M: 4})
	if err != nil {
		t.Fatal(err)
	}
	backends := []Appender{NewFlat(db), ivf, pq}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(g), 12))
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, b := range backends {
					if _, err := b.Search(randomFP(rng, dim), g, 5); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := db.Snapshot(-1)
			fresh := NewFlat(snap)
			if fresh.Len() != snap.Len() {
				t.Errorf("index over snapshot holds %d of %d", fresh.Len(), snap.Len())
				return
			}
		}
	}()
	rng := rand.New(rand.NewPCG(99, 12))
	for i := 0; i < 600; i++ { // the database's chunks hold 256 entries
		l := fingerprint.Linkage{F: randomFP(rng, dim), Y: i % (classes + 1), S: "w"}
		idx := db.Len()
		if err := db.Add(l); err != nil {
			t.Fatal(err)
		}
		for _, b := range backends {
			if err := b.Append(idx); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	for _, b := range backends {
		if b.Len() != db.Len() || databaseOf(b) != db {
			t.Fatalf("%s: len %d, want %d", b.Kind(), b.Len(), db.Len())
		}
		if b != Appender(pq) {
			assertAliased(t, b, db, "after the race")
		}
	}
}

// liveHeap returns the bytes live after a collection, and every byte
// allocated so far.
func liveHeap() (live, total uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.TotalAlloc
}

// The resident budget of a serving shard at dim 64, where the raw
// vectors are 256 B/entry, as factors over them plus a fixed allowance.
// The database keeps a linkage once: its row, 40 B of provenance (hash,
// label, source id) and a 4-byte class index entry, 300 B or 1.17×; an
// index adds a database index per entry and IVF a list position, 8 B.
// Either budget is a few bytes per entry above that: a second copy of
// an entry's provenance anywhere (48 B and up) cannot fit, let alone of
// its vector.
const (
	heapAllowance = 1 << 20
	dbBudget      = 1.18
	indexedBudget = 1.22
)

// budgetKinds trains each backend the way the resident budgets measure
// it, at M 16 for IVFPQ.
var budgetKinds = []struct {
	name  string
	train func(*fingerprint.DB) (Appender, error)
}{
	{"flat", func(db *fingerprint.DB) (Appender, error) { return NewFlat(db), nil }},
	{"ivf", func(db *fingerprint.DB) (Appender, error) { return TrainIVF(db, IVFOptions{Seed: 1}) }},
	{"ivfpq", func(db *fingerprint.DB) (Appender, error) {
		return TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Seed: 1}, M: 16})
	}},
}

// TestLoadedIndexHeapBudget holds a loaded database, alone and under
// each index — trained over it, or read by Load from the file that
// training saves — to the resident budget, and loading to allocating at
// most 1.2 × the file. IVFPQ's codes, M bytes an entry, are its own and
// come on top.
func TestLoadedIndexHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 50 000 × 64 database")
	}
	const dim, n, classes, m = 64, 50_000, 8, 16
	_, first, raw := addedAndLoaded(t, dim, n, classes, true, 7)
	rawVectors := float64(n * dim * 4)
	saved := make(map[string][]byte, len(budgetKinds))
	for _, k := range budgetKinds {
		s, err := k.train(first)
		if err != nil {
			t.Fatal(err)
		}
		saved[k.name] = savedBytes(t, s)
	}
	// first is dead from here on: of it, only the saved files are part of
	// the baseline.

	live0, total0 := liveHeap()
	db, err := fingerprint.LoadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, total1 := liveHeap()
	if got, limit := float64(total1-total0), 1.2*float64(len(raw)); got > limit {
		t.Errorf("LoadDB allocated %.1f MB for a %.1f MB file (limit 1.2×)", got/1e6, float64(len(raw))/1e6)
	}
	type row struct {
		name   string
		budget float64
		build  func() (Searcher, error)
	}
	rows := []row{{"database alone", dbBudget * rawVectors, func() (Searcher, error) { return db, nil }}}
	for _, k := range budgetKinds {
		budget := indexedBudget * rawVectors
		if k.name == "ivfpq" {
			budget += n * m
		}
		rows = append(rows, row{k.name, budget, func() (Searcher, error) { return k.train(db) }},
			row{k.name + " via Load", budget, func() (Searcher, error) { return Load(bytes.NewReader(saved[k.name]), db) }})
	}
	for _, row := range rows {
		s, err := row.build()
		if err != nil {
			t.Fatal(err)
		}
		live1, _ := liveHeap()
		got, limit := float64(live1-live0), row.budget+heapAllowance
		t.Logf("%s: %.2f MB live over %.1f MB of vectors (%.3f×, limit %.2f MB)", row.name, got/1e6, rawVectors/1e6, got/rawVectors, limit/1e6)
		if got > limit {
			t.Errorf("%s: %.2f MB live, budget %.2f MB", row.name, got/1e6, limit/1e6)
		}
		runtime.KeepAlive(s)
	}
	runtime.KeepAlive(db)
	runtime.KeepAlive(raw) // part of the baseline: it must not be collected in between
	runtime.KeepAlive(saved)
}

// TestStoreRetrainPinsNothing: a drift retrain trains over a Snapshot,
// and the swapped-in index is rebased onto the live database. Once the
// live database has grown to three times that snapshot, everything
// still reachable must be current: the database within its budget over
// the entries it holds NOW, plus what the index reports owning (codes
// and database indices). Column arrays a growing database had
// reallocated, kept alive by the snapshot, would not fit: they are 44 B
// for every entry of the snapshot.
func TestStoreRetrainPinsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 90 000 × 64 linkages")
	}
	const dim, n, classes = 64, 40_000, 4
	_, _, raw := addedAndLoaded(t, dim, n, classes, true, 11)
	live0, _ := liveHeap()
	db, err := fingerprint.LoadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	opts := IVFPQOptions{IVFOptions: IVFOptions{Seed: 1}, M: 16}
	first, err := TrainIVFPQ(db, opts)
	if err != nil {
		t.Fatal(err)
	}
	trained := 0 // entries the one retrain saw; written before the swap is signalled
	swapped := swapCatcher{done: make(chan struct{})}
	store, err := ingest.Open(t.TempDir(), db, first, ingest.Options{
		WAL:            ingest.WALOptions{Sync: ingest.SyncNever},
		DriftThreshold: 0.1,
		Rebuild: func(snap *fingerprint.DB) (fingerprint.Appender, error) {
			if trained > 0 {
				return nil, errors.New("one retrain is what this test measures")
			}
			trained = snap.Len()
			return TrainIVFPQ(snap, opts)
		},
		Swapper: &swapped,
	})
	if err != nil {
		t.Fatal(err)
	}
	first = nil // the store's to drop at the swap
	rng := rand.New(rand.NewPCG(8, 8))
	ingest := func(count int) {
		for count > 0 {
			batch := make([]fingerprint.Linkage, min(count, 500))
			for i := range batch {
				batch[i] = fingerprint.Linkage{F: randomFP(rng, dim), Y: i % classes, S: "drift", H: [32]byte{byte(i)}}
			}
			if _, err := store.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
			count -= len(batch)
		}
	}
	ingest(n/10 + 500)
	select {
	case <-swapped.done:
	case <-time.After(60 * time.Second):
		t.Fatal("drift past the threshold did not retrain")
	}
	ingest(2 * trained)
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	store = nil
	if db.Len() < 3*trained || swapped.s.Len() != db.Len() {
		t.Fatalf("database holds %d entries, index %d, after a retrain over %d", db.Len(), swapped.s.Len(), trained)
	}

	live1, _ := liveHeap()
	rawVectors := float64(db.Len() * dim * 4)
	owned := float64(swapped.s.(*IVFPQ).OwnedBytes())
	got, limit := float64(live1-live0), dbBudget*rawVectors+owned+heapAllowance
	t.Logf("%d entries, %d of them under the retrained index's snapshot: %.2f MB live, %.2f MB of it the index's own (limit %.2f MB)",
		db.Len(), trained, got/1e6, owned/1e6, limit/1e6)
	if got > limit {
		t.Errorf("%.2f MB live after the database outgrew the retrained index, budget %.2f MB", got/1e6, limit/1e6)
	}
	runtime.KeepAlive(db)
	runtime.KeepAlive(raw)
}

// TestAppendOwnsNothing: a linkage ingested through the write path into
// a loaded database is resident once, in the database. Over a bench-shard
// shape (4 labels × 25 000 × 64) and 16 000 volatile-store ingests, the
// database's rows grow by 4·dim bytes a linkage and the whole database
// by at most 330 B — the row, 40 B of provenance, its class slot and the
// chunks' unfilled tails — while what each index owns grows by its
// per-entry bookkeeping alone: a database index (and IVF a list
// position, IVFPQ M code bytes) with the slack of growing the arrays
// that hold them. A second copy of an appended row (256 B) or of its
// provenance (48 B) cannot fit any bound.
func TestAppendOwnsNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("ingests 16 000 linkages into each of three 100 000 × 64 shards")
	}
	const dim, n, classes, appends, dbBound = 64, 100_000, 4, 16_000, 330
	_, _, raw := addedAndLoaded(t, dim, n, classes, true, 17)
	for _, k := range []struct {
		name  string
		bound int64 // owned bytes a linkage
	}{{"flat", 16}, {"ivf", 24}, {"ivfpq", 48}} {
		db, err := fingerprint.LoadDB(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var x Appender
		for _, b := range budgetKinds {
			if b.name == k.name {
				if x, err = b.train(db); err != nil {
					t.Fatal(err)
				}
			}
		}
		rows0, prov0, class0 := db.ResidentBytes()
		owned0 := ownedBytesOf(x)
		st, err := ingest.Open("", db, x, ingest.Options{DriftThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(18, 18))
		for i := 0; i < appends; i += 500 {
			batch := make([]fingerprint.Linkage, 500)
			for j := range batch {
				batch[j] = fingerprint.Linkage{F: randomFP(rng, dim), Y: j % classes, S: "ingest", H: [32]byte{byte(j)}}
			}
			if _, err := st.IngestBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		rows1, prov1, class1 := db.ResidentBytes()
		owned := ownedBytesOf(x) - owned0
		rows, all := rows1-rows0, rows1+prov1+class1-rows0-prov0-class0
		t.Logf("%s: per ingested linkage the index owns %.1f B more, the database %.1f B (rows %.1f B)",
			k.name, float64(owned)/appends, float64(all)/appends, float64(rows)/appends)
		if x.Len() != n+appends || db.Len() != n+appends {
			t.Fatalf("%s: index holds %d, database %d, want %d", k.name, x.Len(), db.Len(), n+appends)
		}
		if owned > k.bound*appends {
			t.Errorf("%s: the index grew by %d B over %d ingests, bound %d B each", k.name, owned, appends, k.bound)
		}
		if slack := int64(classes * chunkBytes); rows < 4*dim*appends || rows > 4*dim*appends+slack {
			t.Errorf("%s: the database's rows grew by %d B over %d ingests, want %d + at most %d of unfilled chunks", k.name, rows, appends, 4*dim*appends, slack)
		}
		if all > dbBound*appends {
			t.Errorf("%s: the database grew by %d B over %d ingests, bound %d B each", k.name, all, appends, dbBound)
		}
		if k.name != "ivfpq" {
			assertAliased(t, x, db, "after the ingests")
		}
	}
}

// chunkBytes is a full chunk of dim-64 rows: the most a label's rows
// hold unfilled.
const chunkBytes = 256 * 64 * 4
