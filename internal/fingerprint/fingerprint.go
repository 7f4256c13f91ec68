// Package fingerprint implements CalTrain's model-accountability substrate
// (§IV-C): one-way fingerprints for training instances, the 4-tuple
// linkage structure Ω = [F, Y, S, H], the linkage database, and the
// nearest-neighbour query service model users call when they hit a
// misprediction.
//
// A fingerprint F is the L2-normalized feature embedding read from the
// penultimate layer (the layer before softmax) of the trained model. Y is
// the class label, S the contributing participant, and H the SHA-256
// content digest used to verify data a participant later turns in.
// Queries measure L2 distance between the mispredicted input's fingerprint
// and all training fingerprints with the same label, returning the closest
// instances and their provenance.
package fingerprint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"maps"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"unsafe"

	"caltrain/internal/f32le"
	"caltrain/internal/kernel"
	"caltrain/internal/nn"
	"caltrain/internal/tensor"
)

// Errors returned by the database.
var (
	ErrDimMismatch = errors.New("fingerprint: dimension mismatch")
	ErrBadLabel    = errors.New("fingerprint: label out of range")
	ErrBadSource   = errors.New("fingerprint: source identifier too long")
	ErrBadHash     = errors.New("fingerprint: content hash must be 64 hex chars")
)

// Sentinel errors shared by every serialized-format loader in the
// serving tier (linkage databases, index files, shard maps, WAL
// segments). Loaders wrap them with %w and location context, so daemons
// and tests branch with errors.Is instead of matching message text.
var (
	// ErrVersionMismatch marks a file written by an incompatible format
	// version: the bytes are intact but this binary cannot interpret them.
	ErrVersionMismatch = errors.New("unsupported format version")
	// ErrCorrupt marks a file whose bytes fail structural validation:
	// wrong magic, truncation, implausible headers, or inconsistent
	// internal structure.
	ErrCorrupt = errors.New("corrupt data")
)

// maxSourceLen bounds Linkage.S so the length always fits the uint16
// framing of DB.Save and index serialization.
const maxSourceLen = 65535

// Searcher is the pluggable nearest-neighbour backend behind the
// accountability query service. DB itself is the exact linear-scan
// reference implementation; internal/index provides the production
// backends (Flat, IVF, IVFPQ).
type Searcher interface {
	// Search returns the k nearest same-label training instances to f by
	// L2 fingerprint distance, ascending.
	Search(f Fingerprint, label, k int) ([]Match, error)
	// Len returns the number of indexed linkages.
	Len() int
	// Dim returns the fingerprint dimensionality.
	Dim() int
	// Kind names the backend ("linear", "flat", "ivf", "ivfpq") for stats.
	Kind() string
}

// BatchSearcher is the optional batched extension of Searcher: backends
// that can amortize one blocked sweep of their storage across a whole
// query batch (every internal/index backend does, via
// internal/kernel.DistanceBatch: Flat over a label's vectors, IVF and
// IVFPQ over its centroid table). Service.RunBatch passes entire
// batches down this path when the serving backend implements it.
type BatchSearcher interface {
	Searcher
	// SearchBatch answers query i = (fs[i], labels[i], ks[i]) for every
	// i, returning parallel result and error slices of len(fs). Each
	// query succeeds or fails independently — errs[i] non-nil means
	// results[i] is nil — and every successful result is identical to
	// what Search(fs[i], labels[i], ks[i]) would return.
	SearchBatch(fs []Fingerprint, labels []int, ks []int) ([][]Match, []error)
}

// Fingerprint is one L2-normalized penultimate-layer embedding.
type Fingerprint []float32

// L2Distance returns the Euclidean distance between two fingerprints.
// It computes through internal/kernel, so the result agrees bit-for-bit
// with every index backend's Match.Distance on any hardware.
func (f Fingerprint) L2Distance(g Fingerprint) (float64, error) {
	if len(f) != len(g) {
		return 0, fmt.Errorf("%w: %d vs %d", ErrDimMismatch, len(f), len(g))
	}
	return math.Sqrt(kernel.SqDist(f, g)), nil
}

// Linkage is the recorded 4-tuple Ω = [F, Y, S, H] for one training
// instance.
type Linkage struct {
	F Fingerprint
	Y int
	S string
	H [32]byte
}

// Match is one query result: a training instance's provenance plus its
// fingerprint distance to the queried misprediction.
type Match struct {
	// Index is the instance's position in the database.
	Index int
	// Source is the contributing participant (S).
	Source string
	// Label is the instance's training label (Y).
	Label int
	// Hash is the content digest (H) to verify turned-in data against.
	Hash [32]byte
	// Distance is the L2 fingerprint distance.
	Distance float64
}

// DB is the linkage-structure database deposited after training for
// post-hoc queries (§IV-C). Entries are indexed per class label because
// queries always restrict to Y = Ytest.
//
// A linkage is stored once, as one position across append-only columns
// (see column): its label, its hash, its source as an id into a table
// holding each participant's name once, and its row of dim floats, kept
// class-major — a label's rows are a column of their own. Entry puts
// the four back together by value. No column ever moves what it has
// stored, which is what lets Snapshot share the storage instead of
// copying it, and an index backend serve a label's rows as the database
// holds them (ClassRows) instead of keeping any of its own.
//
// DB is safe for concurrent use: the serving path reads (Query, Entry,
// Len, Save) while ingest appends (Add).
type DB struct {
	dim int
	mu  sync.RWMutex

	label column[int32]    // Y; its length is the database's
	hash  column[[32]byte] // H
	src   column[uint32]   // S, as an index into sources
	// F of the first loaded entries is in arena, the rows LoadDB laid out
	// class-major, at the entry's own position or at rowAt's when the
	// file interleaved its labels. Every later entry's row is in its
	// class's rows, at the position slot holds for it (see row). loaded is
	// below the arena's row count only in a Snapshot cut inside it.
	arena  []float32
	loaded int
	rowAt  []int32
	slot   column[int32]

	sources []string          // each distinct source once, by id
	srcID   map[string]uint32 // sources inverted; a snapshot builds its own on its first Add
	byClass map[int]*class
	// borrowed marks a Snapshot, whose last chunks may hold entries its
	// origin stored later: its first Add takes its own copy of them.
	borrowed bool
}

// class is one label's entries in insertion order: their database
// indices, and their rows. The rows' base is the run of the arena LoadDB
// laid out for the label, their chunks what Add stored.
type class struct {
	members column[int32]
	rows    column[float32]
}

// NewDB creates a database for fingerprints of the given dimensionality.
func NewDB(dim int) (*DB, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("fingerprint: dimension must be positive, got %d", dim)
	}
	return &DB{
		dim:     dim,
		label:   newColumn[int32](1),
		hash:    newColumn[[32]byte](1),
		src:     newColumn[uint32](1),
		slot:    newColumn[int32](1),
		byClass: make(map[int]*class),
	}, nil
}

// Dim returns the fingerprint dimensionality.
func (db *DB) Dim() int { return db.dim }

// Kind names the backend for service stats. DB is the exact linear scan.
func (db *DB) Kind() string { return "linear" }

// Len returns the number of stored linkages.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.label.n
}

// Entry returns the linkage at index i. The returned fingerprint shares
// storage with the database; it is immutable after Add, and its capacity
// equals its length, so appending to it cannot reach a neighbouring row.
func (db *DB) Entry(i int) Linkage {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.entry(i)
}

// entry is Entry for callers that hold the lock.
func (db *DB) entry(i int) Linkage {
	return Linkage{F: db.row(i), Y: int(db.label.get(i)), S: db.sources[db.src.get(i)], H: db.hash.get(i)}
}

// appendRecord appends entry i's record as Save frames it after the
// label — srclen u16 | src | hash[32] | dim × f32. Callers hold the lock.
func (db *DB) appendRecord(b []byte, i int) []byte {
	src := db.sources[db.src.get(i)]
	b = binary.LittleEndian.AppendUint16(b, uint16(len(src)))
	b = append(b, src...)
	b = append(b, db.hash.At(i)[0][:]...)
	return f32le.Append(b, db.row(i))
}

// castagnoli is the CRC-32C table Digest computes with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Digest is the CRC-32C of the database's first n entries, n at most
// Len: their label, hash and source-id columns, the source table those
// ids reach, then label by label, ascending, the label's rows among
// them. It reads a Snapshot, so it takes no lock past the snapshot's,
// and the columns' runs as they are stored, never entry by entry. An
// index file binds itself to the entries it indexes with it.
func (db *DB) Digest(n int) uint32 {
	s := db.Snapshot(n)
	var scratch []byte // a big-endian host's encoding of one run
	crc := digestRuns(0, &s.label, func(ys []int32) []byte { return f32le.Words(ys, &scratch) })
	crc = digestRuns(crc, &s.hash, func(h [][32]byte) []byte { return unsafe.Slice(&h[0][0], 32*len(h)) })
	used := 0 // the ids the entries reach: an id is handed out as its source first appears
	crc = digestRuns(crc, &s.src, func(ids []uint32) []byte {
		for _, id := range ids {
			used = max(used, int(id)+1)
		}
		return f32le.Words(ids, &scratch)
	})
	var rec []byte
	for _, src := range s.sources[:used] {
		rec = append(binary.LittleEndian.AppendUint16(rec[:0], uint16(len(src))), src...)
		crc = crc32.Update(crc, castagnoli, rec)
	}
	for _, y := range slices.Sorted(maps.Keys(s.byClass)) {
		crc = digestRuns(crc, &s.byClass[y].rows, func(rows []float32) []byte { return f32le.Words(rows, &scratch) })
	}
	return crc
}

// digestRun is the most elements Digest hands the CRC at once: what a
// big-endian host encodes into its scratch at a time.
const digestRun = 1 << 13

// digestRuns adds c's entries to crc, a run of at most digestRun
// elements at a time, each as enc encodes it.
func digestRuns[T any](crc uint32, c *column[T], enc func([]T) []byte) uint32 {
	for i := 0; i < c.n; {
		run, k := c.Span(i, min(c.n, i+max(1, digestRun/c.w)))
		crc = crc32.Update(crc, castagnoli, enc(run))
		i += k
	}
	return crc
}

// Row returns Entry(i).F alone: what an index's exact re-rank reads.
func (db *DB) Row(i int) Fingerprint {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.row(i)
}

// row returns entry i's fingerprint, capacity-clipped.
func (db *DB) row(i int) Fingerprint {
	if i >= db.loaded {
		return db.byClass[int(db.label.get(i))].rows.At(int(db.slot.get(i - db.loaded)))
	}
	if db.rowAt != nil {
		i = int(db.rowAt[i])
	}
	return db.arena[i*db.dim : (i+1)*db.dim : (i+1)*db.dim]
}

// Labels returns the distinct class labels present, ascending.
func (db *DB) Labels() []int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]int, 0, len(db.byClass))
	for y := range db.byClass {
		out = append(out, y)
	}
	sort.Ints(out)
	return out
}

// ClassIndex returns a copy of the database indices holding label y, in
// insertion order.
func (db *DB) ClassIndex(y int) []int {
	idx := db.ClassIndexInto(nil, y)
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = int(i)
	}
	return out
}

// ClassIndexInto is ClassIndex as int32, what an index keeps per entry,
// written into dst's storage when it has room and into a new exact-size
// slice when it has not: an index builder's identities without
// ClassIndex's copy.
func (db *DB) ClassIndexInto(dst []int32, y int) []int32 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	var members column[int32]
	if c := db.byClass[y]; c != nil {
		members = c.members
	}
	if cap(dst) < members.n {
		dst = make([]int32, members.n)
	}
	dst = dst[:members.n]
	for k := range dst {
		dst[k] = members.get(k)
	}
	return dst
}

// ClassRows returns the fingerprints of ClassIndex(y), in that order, as
// the database stores them: the class block LoadDB laid out, then the
// chunks Add fills, which never move. Rows read them in place, without the lock, however
// the database grows: index backends serve a label's rows through it
// instead of copying them. Callers must not write to them.
func (db *DB) ClassRows(y int) Rows {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if c := db.byClass[y]; c != nil {
		return c.rows.Prefix(c.rows.n)
	}
	return newColumn[float32](db.dim)
}

// Snapshot returns a new database holding exactly the first n entries
// (all of them if n < 0 or n > Len). Nothing is copied: the columns
// never move a stored entry, so the snapshot shares their storage, and
// carries the class blocks clipped to its prefix. An Add on the origin
// lands beyond what the snapshot reads; an Add on the snapshot first
// takes its own copy of the chunks it would write into. The ingest path
// trains replacement indexes against a snapshot so a concurrent writer
// cannot smear entries into the build.
func (db *DB) Snapshot(n int) *DB {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if n < 0 || n > db.label.n {
		n = db.label.n
	}
	loaded := min(n, db.loaded)
	out := &DB{
		dim:      db.dim,
		label:    db.label.Prefix(n),
		hash:     db.hash.Prefix(n),
		src:      db.src.Prefix(n),
		arena:    db.arena, // the whole arena: rowAt points anywhere in it
		loaded:   loaded,
		slot:     db.slot.Prefix(n - loaded),
		sources:  db.sources[:len(db.sources):len(db.sources)],
		byClass:  make(map[int]*class, len(db.byClass)),
		borrowed: true,
	}
	if db.rowAt != nil {
		out.rowAt = db.rowAt[:loaded]
	}
	for y, c := range db.byClass {
		k := sort.Search(c.members.n, func(k int) bool { return int(c.members.get(k)) >= n })
		if k > 0 {
			out.byClass[y] = &class{members: c.members.Prefix(k), rows: c.rows.Prefix(k)}
		}
	}
	return out
}

// ValidateLinkages vets linkages for a database of dimension dim: the
// fingerprint length, a label every format can store (a non-negative
// int32), and a source the uint16 framing can carry. DB.Add, the write
// paths' all-or-nothing batch check and the router's ingest pre-check
// all run it, so a linkage one accepts none of the others refuses.
func ValidateLinkages(dim int, ls ...Linkage) error {
	for i, l := range ls {
		if len(l.F) != dim {
			return fmt.Errorf("%w: entry %d has %d dims, database %d", ErrDimMismatch, i, len(l.F), dim)
		}
		if l.Y < 0 || l.Y > math.MaxInt32 {
			return fmt.Errorf("%w: entry %d label %d", ErrBadLabel, i, l.Y)
		}
		if len(l.S) > maxSourceLen {
			return fmt.Errorf("%w: entry %d source %d bytes", ErrBadSource, i, len(l.S))
		}
	}
	return nil
}

// Add stores one linkage. The fingerprint is copied.
func (db *DB) Add(l Linkage) error {
	if err := ValidateLinkages(db.dim, l); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.borrowed {
		db.label.unshare()
		db.hash.unshare()
		db.src.unshare()
		db.slot.unshare()
		for _, c := range db.byClass {
			c.members.unshare()
			c.rows.unshare()
		}
		db.borrowed = false
	}
	c := db.byClass[l.Y]
	if c == nil {
		c = &class{members: newColumn[int32](1), rows: newColumn[float32](db.dim)}
		db.byClass[l.Y] = c
	}
	db.slot.append(int32(c.members.n))
	c.members.append(int32(db.label.n))
	c.rows.append(l.F...)
	db.label.append(int32(l.Y))
	db.hash.append(l.H)
	db.src.append(db.intern(l.S))
	return nil
}

// intern returns the id of source s, adding it to the table when it is
// new. Callers hold the write lock.
func (db *DB) intern(s string) uint32 {
	if db.srcID == nil { // new, or a snapshot: it shares the table, not the map
		db.srcID = make(map[string]uint32, len(db.sources))
		for id, known := range db.sources {
			db.srcID[known] = uint32(id)
		}
	}
	id, ok := db.srcID[s]
	if !ok {
		id = uint32(len(db.sources))
		s = strings.Clone(s) // kept for good: not a view into a request body
		db.sources = append(db.sources, s)
		db.srcID[s] = id
	}
	return id
}

// ResidentBytes reports what the database keeps resident per part, from
// its column lengths: the float rows, the provenance beside them (label,
// hash and source id per entry, and the source table), and the class
// index (the per-label entry lists, the class slot of every entry Add
// stored, and the row map of an interleaved file).
func (db *DB) ResidentBytes() (rows, provenance, classIndex int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	provenance = db.label.bytes(4) + db.hash.bytes(32) + db.src.bytes(4)
	for _, s := range db.sources {
		provenance += 16 + int64(len(s))
	}
	classIndex = 4*int64(len(db.rowAt)) + db.slot.bytes(4)
	for _, c := range db.byClass {
		rows += c.rows.bytes(4)
		classIndex += c.members.bytes(4)
	}
	return rows, provenance, classIndex
}

// scored is one class member's distance to a query: what the linear
// scan keeps per candidate until the k winners are known.
type scored struct {
	d   float64
	idx int32
}

func (a scored) before(b scored) bool { return a.d < b.d || a.d == b.d && a.idx < b.idx }

// scoredPool recycles the per-query scratch slice of candidates —
// proportional to class size, it is the linear scan's dominant
// allocation.
var scoredPool = sync.Pool{New: func() any { return new([]scored) }}

// nearest moves the k entries of s that come first — by distance, ties
// by index — to the front, in that order, and returns them. It is a
// bounded max-heap over s[:k]: one comparison rejects most of the rest.
func nearest(s []scored, k int) []scored {
	if k < len(s) {
		h := s[:k]
		down := func(i int) {
			for {
				l, r, w := 2*i+1, 2*i+2, i
				if l < k && h[w].before(h[l]) {
					w = l
				}
				if r < k && h[w].before(h[r]) {
					w = r
				}
				if w == i {
					return
				}
				h[i], h[w] = h[w], h[i]
				i = w
			}
		}
		for i := k/2 - 1; i >= 0; i-- {
			down(i)
		}
		for _, c := range s[k:] {
			if c.before(h[0]) {
				h[0] = c
				down(0)
			}
		}
		s = h
	}
	slices.SortFunc(s, func(a, b scored) int {
		if a.before(b) {
			return -1
		}
		return 1 // indices are distinct: no two candidates compare equal
	})
	return s
}

// Query returns the k nearest same-label training instances to f by L2
// fingerprint distance, ascending. Fewer than k are returned if the class
// has fewer instances.
func (db *DB) Query(f Fingerprint, label, k int) ([]Match, error) {
	if len(f) != db.dim {
		return nil, fmt.Errorf("%w: query has %d dims, db %d", ErrDimMismatch, len(f), db.dim)
	}
	if k <= 0 {
		return nil, fmt.Errorf("fingerprint: k must be positive, got %d", k)
	}
	scratch := scoredPool.Get().(*[]scored)
	defer scoredPool.Put(scratch)
	db.mu.RLock()
	defer db.mu.RUnlock()
	c := db.byClass[label]
	if c == nil {
		return []Match{}, nil
	}
	n := c.members.n
	*scratch = slices.Grow((*scratch)[:0], n)[:n]
	cands := *scratch
	fill := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			// Dimensions were validated at Add time; the kernel keeps
			// this exact scan bit-compatible with the index backends.
			cands[i] = scored{d: math.Sqrt(kernel.SqDist(f, c.rows.At(i))), idx: c.members.get(i)}
		}
	}
	// Large classes scan in parallel; the query service's latency is
	// dominated by this loop (see BenchmarkQueryScaling).
	const parallelThreshold = 8192
	if n >= parallelThreshold {
		workers := runtime.GOMAXPROCS(0)
		chunk := (n + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo := w * chunk
			hi := min(lo+chunk, n)
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				fill(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	} else {
		fill(0, n)
	}
	// Source and hash are read for the winners only.
	best := nearest(cands, k)
	out := make([]Match, len(best))
	for i, c := range best {
		out[i] = Match{Index: int(c.idx), Label: label, Distance: c.d}
	}
	db.provenance(out)
	return out, nil
}

// Provenance fills in each match's Source and Hash: those of the entry
// at its Index. An index backend materialises its matches through it.
func (db *DB) Provenance(ms []Match) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	db.provenance(ms)
}

// provenance is Provenance for callers that hold the lock.
func (db *DB) provenance(ms []Match) {
	for i := range ms {
		ms[i].Source, ms[i].Hash = db.sources[db.src.get(ms[i].Index)], db.hash.get(ms[i].Index)
	}
}

// Search implements Searcher over the exact linear scan.
func (db *DB) Search(f Fingerprint, label, k int) ([]Match, error) {
	return db.Query(f, label, k)
}

// SourcesOf tallies how many of the given matches come from each
// participant — the "identify responsible data contributors" step.
func SourcesOf(matches []Match) map[string]int {
	out := make(map[string]int)
	for _, m := range matches {
		out[m.Source]++
	}
	return out
}

// --- Extraction -----------------------------------------------------------

// Extract runs a batch through the network and returns each row's
// normalized penultimate-layer embedding. The fingerprinting stage runs
// this with the entire trained network enclosed in the fingerprinting
// enclave (§IV-C: "we enclose the entire trained neural network into a
// fingerprinting enclave").
func Extract(net *nn.Network, ctx *nn.Context, batch *tensor.Tensor) ([]Fingerprint, error) {
	pi := net.PenultimateIndex()
	if pi < 0 {
		return nil, fmt.Errorf("fingerprint: network has no softmax layer to anchor the penultimate embedding")
	}
	inferCtx := *ctx
	inferCtx.Training = false
	net.ForwardRange(&inferCtx, 0, pi+1, batch)
	out := net.Layer(pi).Output()
	n := out.Dim(0)
	dim := out.Dim(1)
	fps := make([]Fingerprint, n)
	for b := 0; b < n; b++ {
		f := make(Fingerprint, dim)
		copy(f, out.Data()[b*dim:(b+1)*dim])
		normalize(f)
		fps[b] = f
	}
	return fps, nil
}

func normalize(f Fingerprint) {
	var s float64
	for _, v := range f {
		s += float64(v) * float64(v)
	}
	if s == 0 {
		return
	}
	inv := float32(1 / math.Sqrt(s))
	for i := range f {
		f[i] *= inv
	}
}

// --- Persistence ----------------------------------------------------------

const dbMagic = "CTFP"

// ioBufSize is the buffer Save and LoadDB put between the record codec
// and the file: large enough that a 100k-entry database costs a few
// hundred write(2)/read(2) calls instead of one or two per entry.
const ioBufSize = 1 << 18

// maxPlausibleElems bounds the float32 count of the arena LoadDB
// allocates from a header (16 GB), like internal/index's loader.
const maxPlausibleElems = 4_000_000_000

// Save serializes the database: "CTFP" | dim u32 | n u32, then per entry
// label i32 | srclen u16 | src | hash[32] | dim × f32, little-endian.
func (db *DB) Save(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	bw := bufio.NewWriterSize(w, ioBufSize)
	rec := append(make([]byte, 0, 6+32+4*db.dim+64), dbMagic...)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(db.dim))
	rec = binary.LittleEndian.AppendUint32(rec, uint32(db.label.n))
	if _, err := bw.Write(rec); err != nil {
		return fmt.Errorf("fingerprint: save: %w", err)
	}
	for i := 0; i < db.label.n; i++ {
		rec = db.appendRecord(binary.LittleEndian.AppendUint32(rec[:0], uint32(db.label.get(i))), i)
		if _, err := bw.Write(rec); err != nil {
			return fmt.Errorf("fingerprint: save: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("fingerprint: save: %w", err)
	}
	return nil
}

// SavedSize reports how many bytes Save writes: the Content-Length a
// snapshot stream declares, so its reader can size the columns up front.
func (db *DB) SavedSize() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	size := int64(len(dbMagic)+8) + int64(db.label.n)*int64(6+32+4*db.dim)
	for i := 0; i < db.label.n; i++ {
		size += int64(len(db.sources[db.src.get(i)]))
	}
	return size
}

// LoadDB deserializes a database written by Save into exact-size
// columns (one array each for labels, hashes, source ids and the class
// index, every source name once), the rows into ONE arena of exactly
// n·dim floats laid out class-major: the rows of a label are contiguous,
// in database order, whatever order the file interleaves labels in
// (labels are placed by first appearance, so a class-grouped file — what
// Save writes for a database built label by label, and what
// caltrain-shard emits — needs no row moved, and no row map kept).
// Entry(i).F is a capacity-clipped sub-slice of the arena, and the
// label's whole run of rows is the base of ClassRows(y). Database indices
// are the file's record order.
//
// Each record is read once, in place in the reader's buffer (sized
// after the header to hold the longest record the dimension allows),
// and its floats are copied into the arena as bytes (see f32le).
//
// Malformed input yields ErrCorrupt (a cut stream also keeps
// io.ErrUnexpectedEOF in the chain) or ErrBadLabel, never a panic. The
// header is believed only after n·dim passes the plausibility bound.
// When r can say how many bytes it still holds (see BytesLeft), its
// claim must also fit them, and the columns are allocated at their size
// up front; otherwise they start at one buffer's worth of records and
// at most double as records arrive, so a lying header costs memory in
// proportion to the bytes the stream really carries.
func LoadDB(r io.Reader) (*DB, error) {
	hdr := make([]byte, 12)
	if _, err := io.ReadFull(r, hdr[:4]); err != nil {
		return nil, truncated("magic", err)
	}
	if string(hdr[:4]) != dbMagic {
		return nil, fmt.Errorf("fingerprint: load: bad magic %q: %w", hdr[:4], ErrCorrupt)
	}
	if _, err := io.ReadFull(r, hdr[4:]); err != nil {
		return nil, truncated("header", err)
	}
	dim := int(binary.LittleEndian.Uint32(hdr[4:]))
	n := int(binary.LittleEndian.Uint32(hdr[8:]))
	if dim <= 0 || dim > 1_000_000 {
		return nil, fmt.Errorf("fingerprint: load: implausible dimension %d: %w", dim, ErrCorrupt)
	}
	if n > 100_000_000 || int64(n)*int64(dim) > maxPlausibleElems {
		return nil, fmt.Errorf("fingerprint: load: implausible entry count %d (dim %d): %w", n, dim, ErrCorrupt)
	}
	room := min(n, 1+ioBufSize/(6+32+4*dim)) // entries the columns hold
	if left, ok := BytesLeft(r); ok {
		if need := int64(n) * int64(6+32+4*dim); need > left {
			return nil, fmt.Errorf("fingerprint: load: header claims %d entries (at least %d bytes) but %d remain: %w: %w",
				n, need, left, io.ErrUnexpectedEOF, ErrCorrupt)
		}
		room = n
	}
	br := bufio.NewReaderSize(r, max(ioBufSize, 6+math.MaxUint16+32+4*dim))

	db, err := NewDB(dim)
	if err != nil {
		return nil, err
	}
	arena := make([]float32, room*dim)
	labels, hashes, srcs := make([]int32, room), make([][32]byte, room), make([]uint32, room)
	db.srcID = make(map[string]uint32) // interned: one string per participant

	// Labels in first-appearance order with their entry counts. grouped
	// stays true while no label resumes after another one interrupted
	// it, i.e. while file order already is class-major.
	var order []int
	counts := make(map[int]int)
	grouped, prevY := true, -1
	for i := range n {
		if i == room {
			room = min(n, 2*room)
			arena, labels, hashes, srcs = regrow(arena, room*dim), regrow(labels, room), regrow(hashes, room), regrow(srcs, room)
		}
		head, err := br.Peek(6)
		if err != nil {
			return nil, truncated(fmt.Sprintf("entry %d", i), err)
		}
		y := int(int32(binary.LittleEndian.Uint32(head)))
		if y < 0 {
			return nil, fmt.Errorf("fingerprint: load entry %d: %w: %d", i, ErrBadLabel, y)
		}
		slen := int(binary.LittleEndian.Uint16(head[4:]))
		size := 6 + slen + 32 + 4*dim
		rec, err := br.Peek(size)
		if err != nil {
			return nil, truncated(fmt.Sprintf("entry %d", i), err)
		}
		src := rec[6 : 6+slen]
		id, ok := db.srcID[string(src)] // no allocation on a hit
		if !ok {
			id = db.intern(string(src))
		}
		labels[i], srcs[i] = int32(y), id
		copy(hashes[i][:], rec[6+slen:])
		f32le.Decode(arena[i*dim:(i+1)*dim], rec[6+slen+32:])
		_, _ = br.Discard(size) // cannot fail: Peek buffered these bytes
		if y != prevY {
			if _, seen := counts[y]; seen {
				grouped = false
			} else {
				order = append(order, y)
			}
			prevY = y
		}
		counts[y]++
	}
	db.label, db.hash, db.src = loadedColumn(1, labels), loadedColumn(1, hashes), loadedColumn(1, srcs)
	db.arena, db.loaded = arena, n

	// next[y] is the class-major row the label's next entry belongs in.
	next := make(map[int]int, len(order))
	members := make([]int32, n) // database index by class-major row: every class's entry list, back to back
	start := 0
	for _, y := range order {
		end := start + counts[y]
		next[y] = start
		db.byClass[y] = &class{members: loadedColumn(1, members[start:end:end]), rows: loadedColumn(dim, arena[start*dim:end*dim:end*dim])}
		start = end
	}
	if grouped { // a record's row is where the file put it
		for i := range members {
			members[i] = int32(i)
		}
		return db, nil
	}
	db.rowAt = make([]int32, n)
	for i, y := range labels {
		row := next[int(y)]
		next[int(y)]++
		db.rowAt[i] = int32(row)
		members[row] = int32(i)
	}
	permuteRows(arena, dim, slices.Clone(db.rowAt))
	return db, nil
}

// regrow returns s's elements at the front of a new array of length n:
// a column of a stream that could not be sized, grown as its records
// arrive.
func regrow[T any](s []T, n int) []T {
	out := make([]T, n)
	copy(out, s)
	return out
}

// truncated wraps a read failure inside a record as corruption. A
// stream that ends between two records reads as io.EOF; the header
// promised more, so that is an unexpected end too.
func truncated(where string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("fingerprint: load %s: %w: %w", where, err, ErrCorrupt)
}

// BytesLeft reports at most how many bytes r can still yield: what lies
// between a seeker's position and its end (the position is left where
// it was), or a LimitedReader's N (a response body cut at its
// Content-Length). ok is false for a reader that cannot say: a stream,
// or a pipe behind an *os.File. The format loaders hold the counts a
// header claims to it before allocating for them.
func BytesLeft(r io.Reader) (left int64, ok bool) {
	if l, ok := r.(*io.LimitedReader); ok {
		return l.N, true
	}
	s, ok := r.(io.Seeker)
	if !ok {
		return 0, false
	}
	cur, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, false
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, false
	}
	if _, err := s.Seek(cur, io.SeekStart); err != nil {
		return 0, false
	}
	return end - cur, true
}

// permuteRows moves, in place, the dim-length row at each position i of
// arena to position dest[i], following the permutation's cycles with
// one row of scratch: every swap puts one row in its final place.
// dest is consumed.
func permuteRows(arena []float32, dim int, dest []int32) {
	tmp := make([]float32, dim)
	for i := range dest {
		for int(dest[i]) != i {
			j := int(dest[i])
			ri, rj := arena[i*dim:(i+1)*dim], arena[j*dim:(j+1)*dim]
			copy(tmp, rj)
			copy(rj, ri)
			copy(ri, tmp)
			dest[i], dest[j] = dest[j], int32(j)
		}
	}
}
