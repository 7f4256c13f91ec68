package index

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"caltrain/internal/fingerprint"
)

// TestLoadIndexAllocBudget: Load allocates what the index it returns
// owns — codes, centroids, lists, a database index per entry — and at
// most 1 MiB besides, for every backend. An entry read into a buffer of
// its own, or a row copied where the database holds it, would not fit:
// at 20 000 × 64 the rows alone are 5 MiB.
func TestLoadIndexAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	_, db, _ := addedAndLoaded(t, 64, 20_000, 4, true, 19)
	for _, k := range budgetKinds {
		s, err := k.train(db)
		if err != nil {
			t.Fatal(err)
		}
		raw := savedBytes(t, s)
		_, before := liveHeap()
		loaded, err := Load(bytes.NewReader(raw), db)
		_, after := liveHeap()
		if err != nil {
			t.Fatal(err)
		}
		owned := loaded.(interface{ OwnedBytes() int64 }).OwnedBytes()
		got, limit := after-before, uint64(owned)+1<<20
		t.Logf("%s: Load allocated %.2f MB, the index owns %.2f MB", k.name, float64(got)/1e6, float64(owned)/1e6)
		if got > limit {
			t.Errorf("%s: Load allocated %d bytes, budget %d (owned %d + 1 MiB)", k.name, got, limit, owned)
		}
	}
}

// BenchmarkLoadIndex reads each backend's saved file over its database
// (20 000 × 64 in 4 labels; 2 000 under -short), reporting allocations
// and time per entry; its file case reads a bench shard's kept ivf file
// (100 000 × 64 in 4 labels; 2 000 under -short) from disk, reporting
// time per entry and read calls per MiB.
func BenchmarkLoadIndex(b *testing.B) {
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	_, db, _ := addedAndLoaded(b, 64, n, 4, true, 19)
	for _, k := range budgetKinds {
		b.Run(k.name, func(b *testing.B) {
			s, err := k.train(db)
			if err != nil {
				b.Fatal(err)
			}
			raw := savedBytes(b, s)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Load(bytes.NewReader(raw), db); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			entries := float64(b.N) * float64(n)
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/entries, "allocs/entry")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/entries, "ns/entry")
		})
	}
	b.Run("file/ivf", func(b *testing.B) {
		db, s := shardIVF(b)
		path := filepath.Join(b.TempDir(), "shard.ctix")
		if err := os.WriteFile(path, savedBytes(b, s), 0o644); err != nil {
			b.Fatal(err)
		}
		var reads, size int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			r := &counter{r: f}
			_, err = Load(r, db)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			reads, size = reads+int64(r.calls), size+r.bytes
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(db.Len()), "ns/entry")
		b.ReportMetric(float64(reads)/(float64(size)/(1<<20)), "reads/MiB")
	})
}

// BenchmarkSaveIndex writes a bench shard's ivf index (100 000 × 64 in 4
// labels; 2 000 under -short) to a file, without the fsync a kept file
// takes, reporting time per entry and write calls per MiB.
func BenchmarkSaveIndex(b *testing.B) {
	db, s := shardIVF(b)
	path := filepath.Join(b.TempDir(), "shard.ctix")
	var writes, size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f, err := os.Create(path)
		if err != nil {
			b.Fatal(err)
		}
		w := &counter{w: f}
		err = Save(w, s)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			b.Fatal(err)
		}
		writes, size = writes+int64(w.calls), size+w.bytes
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(db.Len()), "ns/entry")
	b.ReportMetric(float64(writes)/(float64(size)/(1<<20)), "writes/MiB")
}

// shardIVF is a bench shard and the ivf index a WAL daemon keeps of it:
// 100 000 × 64 in 4 labels, 2 000 under -short.
func shardIVF(b *testing.B) (*fingerprint.DB, Searcher) {
	n := 100_000
	if testing.Short() {
		n = 2_000
	}
	_, db, _ := addedAndLoaded(b, 64, n, 4, true, 23)
	s, err := TrainIVF(db, IVFOptions{Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return db, s
}

// counter counts the Read or Write calls made through it, and the
// bytes they move.
type counter struct {
	r     io.Reader
	w     io.Writer
	calls int
	bytes int64
}

func (c *counter) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.calls, c.bytes = c.calls+1, c.bytes+int64(n)
	return n, err
}

func (c *counter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.calls, c.bytes = c.calls+1, c.bytes+int64(n)
	return n, err
}

// TestIndexFileCalls: a file holds trained state only — per label a
// count, per entry at most a 4-byte class position and an IVFPQ code,
// per list its length and centroid, the codebooks, and 64 bytes of header
// and binding besides — and Save writes and Load reads it through one
// buffer of ixBufSize bytes, each word in place, so a file costs one call
// per buffer's worth of it and a few besides — not one per 4 KiB, let
// alone one per field. Unlike a timing, the counts repeat exactly from
// run to run.
func TestIndexFileCalls(t *testing.T) {
	const dim, slack = 64, 3
	_, db, _ := addedAndLoaded(t, dim, 20_000, 4, true, 19)
	for _, k := range budgetKinds {
		s, err := k.train(db)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w := &counter{w: &buf}
		if err := Save(w, s); err != nil {
			t.Fatal(err)
		}
		size, bound := buf.Len(), 64+trainedBound(s)
		limit := (size+ixBufSize-1)/ixBufSize + slack
		r := &counter{r: bytes.NewReader(buf.Bytes())}
		if _, err := Load(r, db); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d bytes (bound %d), %d Write and %d Read calls (limit %d)", k.name, size, bound, w.calls, r.calls, limit)
		if size > bound {
			t.Errorf("%s: a %d-entry index saves %d bytes, bound %d", k.name, s.Len(), size, bound)
		}
		if w.calls > limit || r.calls > limit {
			t.Errorf("%s: a %d-byte file took %d Write and %d Read calls, limit %d", k.name, size, w.calls, r.calls, limit)
		}
	}
}

// trainedBound is the bytes of trained state a file of s may hold past
// its header and binding: a label and a count per label; a position per
// entry, and per list a length and a centroid; IVFPQ's knobs, codebooks
// and codes.
func trainedBound(s Searcher) int {
	dim, n := s.Dim(), s.Len()
	switch x := s.(type) {
	case *Flat:
		return 8 * len(x.buckets)
	case *IVF:
		size := 4 + 4*n
		for _, c := range x.labels {
			size += 8 + 4 + c.nlist*(4+4*dim)
		}
		return size
	case *IVFPQ:
		size := 8 + (4+x.m)*n
		for _, c := range x.labels {
			size += 8 + 4 + c.nlist*(4+4*dim) + 4*len(c.book.centroids)
		}
		return size
	}
	panic("no trained state")
}

// TestLoadRefusesMisplacedEntries: a file's labels must hold the
// database's first entries, each label its share of them, and a label's
// inverted lists must place each of its entries once. A file saved from
// an index missing a label between them is bound to the first entries
// it counts, but its labels hold more of them than the database's do:
// it is refused (ErrForeignIndex) rather than caught up with entries it
// already holds. Lists holding one entry twice and another not at all
// are refused as corrupt.
func TestLoadRefusesMisplacedEntries(t *testing.T) {
	db := populatedDB(t, 8, 90, 3, 11)
	gap := NewFlat(db)
	delete(gap.buckets, 0)
	gap.total -= db.Len() / 3
	if _, err := Load(bytes.NewReader(savedBytes(t, gap)), db); !errors.Is(err, ErrForeignIndex) {
		t.Errorf("a missing label: Load = %v, want ErrForeignIndex", err)
	}
	for _, k := range bindKinds[1:] {
		s, err := k.build(db)
		if err != nil {
			t.Fatal(err)
		}
		switch x := s.(type) {
		case *IVF:
			l := x.labels[1].lists
			l[1][0] = l[0][0]
		case *IVFPQ:
			l := x.labels[1].lists
			l[1].idx[0] = l[0].idx[0]
		}
		if _, err := Load(bytes.NewReader(savedBytes(t, s)), db); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: an entry in two lists: Load = %v, want ErrCorrupt", k.name, err)
		}
	}
}
