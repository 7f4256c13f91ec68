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
	"errors"
	"fmt"
	"hash/crc32"
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

// Appender is the write extension of a Searcher backend: it makes
// entries of its database searchable without a rebuild. Append makes
// the index hold the database's first dbIndex+1 entries: entry dbIndex,
// and any before it the index does not hold yet, in database order, so
// Match.Index values stay consistent between the index and DB.Query.
// A linkage the database does not hold yet may be handed in as l:
// Append stores it in the database first, at dbIndex, which must then
// be the database's Len. Rebase makes db the index's database; the one
// it was built or loaded over must be a prefix of db — a Snapshot of
// it, say — so that every entry it holds is db's at the same index.
// Implementations serialize both against Search internally. Every
// internal/index backend is one, and the write path takes one.
type Appender interface {
	Searcher
	Append(dbIndex int, l ...Linkage) error
	Rebase(db *DB)
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
	// F of the first loaded entries is in arena, the file's class-major
	// rows LoadDB views, at the entry's own position or at rowAt's when
	// the file's labels do not ascend in database order. Every later
	// entry's row is in its class's rows, at the position slot holds for
	// it (see row). loaded is below the arena's row count only in a
	// Snapshot cut inside it.
	arena  []float32
	loaded int
	rowAt  []int32
	slot   column[int32]
	// stamp is the digest word of the file LoadDB read, and stamped that
	// file's entry count: Digest(stamped) is stamp. Otherwise, a Snapshot
	// included, both are zero, as Digest(0) of any database is.
	stamp   uint32
	stamped int

	// sources holds each distinct source once, by id, an id handed out
	// as its source is first used: every source is some entry's, so the
	// table is the first ids' names, in order (see Snapshot).
	sources []string
	srcID   map[string]uint32 // sources inverted; a snapshot builds its own on its first Add
	byClass map[int]*class
	// borrowed marks a Snapshot, whose last chunks may hold entries its
	// origin stored later: its first Add takes its own copy of them.
	borrowed bool
}

// class is one label's entries in insertion order: their database
// indices, and their rows. The rows' base is the label's run of the
// arena LoadDB views, their chunks what Add stored.
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

// castagnoli is the CRC-32C table Digest computes with.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Digest is the CRC-32C of the database's first n entries: their
// label, hash and source-id columns, the source table those
// ids reach, then label by label, ascending, the label's rows among
// them — what a CTFP file holds of them (see dbLayout), in another
// order. On a database LoadDB read, Digest of its file's entries is
// the digest word the file carries, and reads no column; otherwise it
// reads a Snapshot, so it takes no lock past the snapshot's, and the
// columns' runs as they are stored, never entry by entry. An index file
// binds itself to the entries it indexes with it. An n outside
// [0, Len] names entries the database does not hold, and panics, as a
// slice index past its length does.
func (db *DB) Digest(n int) uint32 {
	if n == db.stamped {
		return db.stamp
	}
	if total := db.Len(); n < 0 || n > total {
		panic(fmt.Sprintf("fingerprint: Digest(%d) of a database of %d entries", n, total))
	}
	return db.Snapshot(n).digest()
}

// digest is Digest(Len()), computed. Callers hold the lock or own db.
func (db *DB) digest() uint32 {
	var crc uint32
	emit := func(b []byte) { crc = crc32.Update(crc, castagnoli, b) }
	var scratch []byte // a big-endian host's encoding of one run
	runs(&db.label, func(ys []int32) []byte { return f32le.Words(ys, &scratch) }, emit)
	runs(&db.hash, hashBytes, emit)
	runs(&db.src, func(ids []uint32) []byte { return f32le.Words(ids, &scratch) }, emit)
	emit(appendTable(nil, db.sources))
	db.classRuns(&scratch, emit)
	return crc
}

// classRuns hands emit the rows of every class, label by label,
// ascending, each class in database order: Digest's rows and a CTFP
// file's row column. Callers hold the lock or own db.
func (db *DB) classRuns(scratch *[]byte, emit func([]byte)) {
	for _, y := range slices.Sorted(maps.Keys(db.byClass)) {
		runs(&db.byClass[y].rows, func(rows []float32) []byte { return f32le.Words(rows, scratch) }, emit)
	}
}

// hashBytes is a run of content digests as their bytes.
func hashBytes(h [][32]byte) []byte { return unsafe.Slice(&h[0][0], 32*len(h)) }

// digestRun is the most elements runs hands on at once: what a
// big-endian host encodes into its scratch at a time.
const digestRun = 1 << 13

// runs hands emit c's entries, a run of at most digestRun elements at a
// time, each as enc encodes it.
func runs[T any](c *column[T], enc func([]T) []byte, emit func([]byte)) {
	for i := 0; i < c.n; {
		run, k := c.Span(i, min(c.n, i+max(1, digestRun/c.w)))
		emit(enc(run))
		i += k
	}
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
// the database stores them: the class block LoadDB views, then the
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
// carries the class blocks clipped to its prefix, and the source table
// clipped to the sources the prefix uses, so that an Add on it hands
// out the next id. An Add on the origin lands beyond what the snapshot
// reads; an Add on the snapshot first takes its own copy of the chunks
// it would write into. The ingest path
// trains replacement indexes against a snapshot so a concurrent writer
// cannot smear entries into the build.
func (db *DB) Snapshot(n int) *DB {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if n < 0 || n > db.label.n {
		n = db.label.n
	}
	used := len(db.sources) // the sources the prefix reaches: ids are handed out in order
	if n < db.label.n {
		used = 0
		for i := 0; i < n; {
			ids, k := db.src.Span(i, n)
			for _, id := range ids {
				used = max(used, int(id)+1)
			}
			i += k
		}
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
		sources:  db.sources[:used:used],
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
