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

// runsOf exposes every run of entries of an index: a bucket per label
// for Flat and IVF, every inverted list for IVFPQ.
func runsOf(t testing.TB, s Searcher) []*entries {
	t.Helper()
	var out []*entries
	if pq, ok := s.(*IVFPQ); ok {
		for _, c := range pq.labels {
			for _, l := range c.lists {
				out = append(out, &l.entries)
			}
		}
		return out
	}
	for _, b := range bucketsOf(t, s) {
		out = append(out, &b.entries)
	}
	return out
}

// TestIndexHoldsProvenanceOnlyForAppends: an index built over a
// database — loaded or Add-built — keeps no linkage of its own for any
// entry it was built over, only the database it resolves them through;
// a linkage that arrives through Append and that no database holds is
// kept, and served with its own index, source and hash, before and after
// a Save/Load round trip.
func TestIndexHoldsProvenanceOnlyForAppends(t *testing.T) {
	const dim, classes = 8, 3
	added, loaded, _ := addedAndLoaded(t, dim, 300, classes, true, 13)
	for _, db := range []*fingerprint.DB{added, loaded} {
		ivf, err := TrainIVF(db, IVFOptions{Nlist: 4, Nprobe: 4, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		pq, err := TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 4, Nprobe: 4, Seed: 2}, M: 4})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []Appender{NewFlat(db), ivf, pq} {
			held := 0
			for _, e := range runsOf(t, x) {
				if len(e.src)+len(e.hash)+len(e.f) != 0 || e.db != db {
					t.Fatalf("%s: a built run of %d entries keeps provenance of its own for %d (database %p, want %p)", x.Kind(), len(e.idx), len(e.src), e.db, db)
				}
				held += len(e.idx)
			}
			if held != db.Len() {
				t.Fatalf("%s: runs cover %d of %d entries", x.Kind(), held, db.Len())
			}

			ghost := fingerprint.Linkage{F: make(fingerprint.Fingerprint, dim), Y: 1, S: "ghost", H: [32]byte{0xfe, 0xed}}
			ghost.F[0] = 40 // far from every unit-norm entry: its own nearest neighbour
			ghostIdx := db.Len() + 7
			if err := x.Append(ghostIdx, ghost); err != nil {
				t.Fatal(err)
			}
			kept := 0
			for _, e := range runsOf(t, x) {
				kept += len(e.idx) - e.kept()
			}
			if kept != 1 {
				t.Fatalf("%s: provenance kept for %d entries after one Append", x.Kind(), kept)
			}
			reloaded, err := Load(bytes.NewReader(savedBytes(t, x)))
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

// assertCarriedAlias fails unless every linkage an IVFPQ list carries is
// the database's stored entry of that index: same provenance, and F the
// database's own row rather than a second copy of it. resident, when
// non-negative, is how many entries the lists must NOT carry.
func assertCarriedAlias(t testing.TB, x *IVFPQ, db *fingerprint.DB, resident int, when string) {
	t.Helper()
	carried := 0
	for _, c := range x.labels {
		for _, l := range c.lists {
			r := l.kept()
			for i, f := range l.f {
				e := db.Entry(int(l.idx[r+i]))
				if l.src[i] != e.S || l.hash[i] != e.H || &f[0] != &e.F[0] {
					t.Fatalf("ivfpq %s: entry %d is carried as a copy, not as the database's row", when, l.idx[r+i])
				}
			}
			carried += len(l.f)
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

// TestAliasedIndexRace runs everything that touches the shared storage
// at once — searches over the aliased base that resolve every match's
// provenance through the database, appends to the tails, DB.Add growing
// the database's columns across chunk boundaries, and snapshots retrained
// into fresh indexes; for IVFPQ, searches whose exact stage reads rows
// through the database and through linkages the concurrent appends are
// adding. Run under -race.
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

// TestLoadedIndexHeapBudget holds a loaded database, alone and under
// each index, to the resident budget, and loading to allocating at most
// 1.2 × the file. IVFPQ's codes, M bytes an entry, are its own and come
// on top.
func TestLoadedIndexHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a 50 000 × 64 database")
	}
	const dim, n, classes, m = 64, 50_000, 8, 16
	_, _, raw := addedAndLoaded(t, dim, n, classes, true, 7)
	rawVectors := float64(n * dim * 4)

	live0, total0 := liveHeap()
	db, err := fingerprint.LoadDB(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, total1 := liveHeap()
	if got, limit := float64(total1-total0), 1.2*float64(len(raw)); got > limit {
		t.Errorf("LoadDB allocated %.1f MB for a %.1f MB file (limit 1.2×)", got/1e6, float64(len(raw))/1e6)
	}
	for _, row := range []struct {
		name   string
		budget float64
		build  func() (Searcher, error)
	}{
		{"database alone", dbBudget * rawVectors, func() (Searcher, error) { return db, nil }},
		{"flat", indexedBudget * rawVectors, func() (Searcher, error) { return NewFlat(db), nil }},
		{"ivf", indexedBudget * rawVectors, func() (Searcher, error) { return TrainIVF(db, IVFOptions{Seed: 1}) }},
		{"ivfpq", indexedBudget*rawVectors + n*m, func() (Searcher, error) {
			return TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Seed: 1}, M: m})
		}},
	} {
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
}

// TestStoreRetrainPinsNothing: a drift retrain trains over a Snapshot and
// the swapped-in index keeps it, to resolve the entries it was built
// over. Once the live database has grown to three times that snapshot,
// everything still reachable must be current: the database within its
// budget over the entries it holds NOW, plus what the index reports
// owning (codes, and the linkage of every entry appended since — the
// price of a tail, not of a stale copy). Column arrays a growing database
// had reallocated, kept alive by the snapshot, would not fit: they are
// 44 B for every entry of the snapshot.
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
		Rebuild: func(snap *fingerprint.DB) (fingerprint.Searcher, error) {
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
