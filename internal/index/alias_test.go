package index

import (
	"bytes"
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

// assertAliased fails unless every bucket's base IS the database's
// class block — same first element, same length — rather than a copy.
func assertAliased(t testing.TB, s Searcher, db *fingerprint.DB, when string) {
	t.Helper()
	for y, b := range bucketsOf(t, s) {
		block := db.ClassBlock(y)
		if len(block) == 0 {
			continue // a label born from Add/Append has nothing to alias
		}
		first := db.Entry(db.ClassIndex(y)[0]).F
		if len(b.vecs.base) != len(block) || &b.vecs.base[0] != &first[0] {
			t.Fatalf("%s %s: label %d base (%d floats) does not alias the database block (%d floats)",
				s.Kind(), when, y, len(b.vecs.base), len(block))
		}
	}
}

// TestIndexAliasesLoadedDB is the one-resident-copy invariant: an index
// built over a LoadDB database scans the database's own rows, appends
// grow a separate tail without bringing the copy back, and a retrain
// over a snapshot — direct, or through the ingest store's drift
// hot-swap — aliases again.
func TestIndexAliasesLoadedDB(t *testing.T) {
	const dim, classes = 8, 3
	_, db, _ := addedAndLoaded(t, dim, 600, classes, false, 5)
	ivf, err := TrainIVF(db, IVFOptions{Nlist: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(4, 4))
	for _, backend := range []Appender{NewFlat(db), ivf} {
		assertAliased(t, backend, db, "after build")
		before := vectorBytesOf(backend)
		for i := 0; i < 1000*classes; i++ {
			// Rows the database never sees: Append must absorb them anyway.
			if err := backend.Append(db.Len()+i, fingerprint.Linkage{F: randomFP(rng, dim), Y: i % classes, S: "app"}); err != nil {
				t.Fatal(err)
			}
		}
		assertAliased(t, backend, db, "after 1000 appends per class")
		for y, b := range bucketsOf(t, backend) {
			if len(b.vecs.tail) != 1000*dim || b.n != 200+1000 {
				t.Fatalf("%s label %d: tail of %d floats, n %d", backend.Kind(), y, len(b.vecs.tail), b.n)
			}
		}
		if grew := vectorBytesOf(backend) - before; grew < int64(1000*classes*dim*4) {
			t.Fatalf("%s: VectorBytes grew by %d for %d appended vectors", backend.Kind(), grew, 1000*classes)
		}
	}

	// Entries stored by Add sit outside the blocks; a retrain over the
	// snapshot aliases the loaded prefix and copies only those.
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
	for y, b := range bucketsOf(t, retrained) {
		if len(b.vecs.tail) != 30*dim {
			t.Fatalf("retrained label %d: tail of %d floats, want the 30 Add-built rows", y, len(b.vecs.tail))
		}
	}
	want, err := TrainIVF(rebuiltByAdd(t, db), IVFOptions{Nlist: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(savedBytes(t, retrained), savedBytes(t, want)) {
		t.Fatal("IVF trained over block+tail saves different bytes than over one private copy")
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

// assertCarriedAlias fails unless every linkage an IVFPQ list carries is
// the database's stored entry of that index: same provenance, and F the
// database's own row rather than a second copy of it. resident, when
// non-negative, is how many entries the lists must NOT carry.
func assertCarriedAlias(t testing.TB, x *IVFPQ, db *fingerprint.DB, resident int, when string) {
	t.Helper()
	carried := 0
	for _, c := range x.labels {
		for _, l := range c.lists {
			r := l.n() - len(l.own)
			for i, o := range l.own {
				e := db.Entry(int(l.idx[r+i]))
				if o.S != e.S || o.H != e.H || &o.F[0] != &e.F[0] {
					t.Fatalf("ivfpq %s: entry %d is carried as a copy, not as the database's row", when, l.idx[r+i])
				}
			}
			carried += len(l.own)
		}
	}
	if resident >= 0 && x.Len()-carried != resident {
		t.Fatalf("ivfpq %s: %d of %d entries resolve through the database, want %d", when, x.Len()-carried, x.Len(), resident)
	}
}

// TestStoreRetrainAliases drives the real drift path: ingest past the
// threshold, let the store retrain over Snapshot(-1) and swap, and the
// swapped-in IVF must still scan the loaded database's rows. The
// swapped-in IVFPQ resolves every entry through the snapshot, and the
// ones ingested before and after the swap — which no snapshot of its own
// can see — through the stored entry the store hands Append: no appended
// vector is held twice.
func TestStoreRetrainAliases(t *testing.T) {
	const dim, classes = 8, 2
	for _, kind := range []string{"ivf", "ivfpq"} {
		_, db, _ := addedAndLoaded(t, dim, 400, classes, true, 9)
		train := func(d *fingerprint.DB) (fingerprint.Searcher, error) {
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
		if pq, ok := first.(*IVFPQ); ok {
			assertCarriedAlias(t, pq, db, 400, "before the retrain")
		}
		select {
		case <-swapped.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: drift past the threshold did not retrain", kind)
		}
		ingest(10) // below the threshold: lands in the swapped-in backend
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
		if swapped.s.Len() != db.Len() {
			t.Fatalf("%s: swapped backend holds %d of %d entries", kind, swapped.s.Len(), db.Len())
		}
		if pq, ok := swapped.s.(*IVFPQ); ok {
			assertCarriedAlias(t, pq, db, -1, "after the store's drift retrain")
			continue
		}
		assertAliased(t, swapped.s, db, "after the store's drift retrain")
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

// TestAliasedIndexRace runs everything that touches the shared rows at
// once — searches over the aliased base, appends to the tails, DB.Add,
// and snapshots retrained into fresh indexes; for IVFPQ, searches whose
// exact stage reads rows through the database and through linkages the
// concurrent appends are adding. Run under -race.
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
	for i := 0; i < 300; i++ {
		l := fingerprint.Linkage{F: randomFP(rng, dim), Y: i % (classes + 1), S: "w"}
		idx := db.Len()
		if err := db.Add(l); err != nil {
			t.Fatal(err)
		}
		for _, b := range backends {
			if err := b.Append(idx, db.Entry(idx)); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	for _, b := range backends {
		if b.Len() != db.Len() {
			t.Fatalf("%s: len %d, want %d", b.Kind(), b.Len(), db.Len())
		}
		if b == Appender(pq) {
			assertCarriedAlias(t, pq, db, 450, "after the race")
			continue
		}
		assertAliased(t, b, db, "after the race")
	}
}

// TestLoadedIndexHeapBudget is the memory budget of a serving shard,
// held in tier-1: a loaded database plus its index may keep at most
// 1.35 × the raw vector bytes live, plus a fixed allowance, and loading
// may allocate at most 1.2 × the file. At dim 64 the raw vectors are
// 256 B/entry; the provenance the database and the index each keep
// (label, source, hash, indices: ~140 B/entry) is what the 0.35 and the
// allowance cover. A second copy of the vectors — the parent's
// per-entry loader plus bucket copy held 2× — cannot fit.
func TestLoadedIndexHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 50 000 × 64 database")
	}
	const dim, n, classes = 64, 50_000, 8
	const allowance = 4 << 20
	_, _, raw := addedAndLoaded(t, dim, n, classes, true, 7)
	rawVectors := float64(n * dim * 4)

	heap := func() (live, total uint64) {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc, ms.TotalAlloc
	}
	live0, total0 := heap()
	db, err := fingerprint.LoadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, total1 := heap()
	if got, limit := float64(total1-total0), 1.2*float64(len(raw)); got > limit {
		t.Errorf("LoadDB allocated %.1f MB for a %.1f MB file (limit 1.2×)", got/1e6, float64(len(raw))/1e6)
	}
	for _, build := range []func() (Searcher, error){
		func() (Searcher, error) { return NewFlat(db), nil },
		func() (Searcher, error) { return TrainIVF(db, IVFOptions{Seed: 1}) },
	} {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		live1, _ := heap()
		got, limit := float64(live1-live0), 1.35*rawVectors+allowance
		t.Logf("%s: %.1f MB live over %.1f MB of vectors (%.2f×, limit %.1f MB)", s.Kind(), got/1e6, rawVectors/1e6, got/rawVectors, limit/1e6)
		if got > limit {
			t.Errorf("%s: database + index keep %.1f MB live, budget %.1f MB", s.Kind(), got/1e6, limit/1e6)
		}
		runtime.KeepAlive(s)
	}
	runtime.KeepAlive(db)
	runtime.KeepAlive(raw) // part of the baseline: it must not be collected in between
}
