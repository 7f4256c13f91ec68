package index

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"

	"caltrain/internal/fingerprint"
)

// Load failure sentinels, shared with the other format loaders (see
// internal/fingerprint). Branch with errors.Is; the wrapped message
// carries the location detail.
var (
	// ErrVersionMismatch marks an index file written by an incompatible
	// format version.
	ErrVersionMismatch = fingerprint.ErrVersionMismatch
	// ErrCorrupt marks an index file that fails structural validation.
	ErrCorrupt = fingerprint.ErrCorrupt
)

// Binary index format, little-endian, mirroring LinkageDB.Save's framing:
//
//	"CTIX" | version u8 | kind u8 | dim u32 | nlabels u32
//	per label (ascending): label i32 | n u32 | n × entry
//	entry: idx u32 | srclen u16 | src | hash[32] | dim × f32
//	IVF only: nprobe u32, then per label: nlist u32 |
//	          nlist×dim × f32 centroids | nlist × (len u32 | len × pos u32)
//
// IVFPQ copies no float vectors, so after the same header its body
// replaces the per-label entry section entirely:
//
//	nprobe u32 | m u32
//	per label (ascending): label i32 | nlist u32 |
//	  nlist×dim × f32 centroids | m×256×(dim/m) × f32 codebook |
//	  nlist × (len u32 | len × (idx u32 | srclen u16 | src | hash[32] | m code bytes))
const (
	ixMagic   = "CTIX"
	ixVersion = 1
	kindFlat  = 0
	kindIVF   = 1
	kindIVFPQ = 2
)

const (
	maxPlausible    = 100_000_000
	maxPlausibleDim = 1_000_000
	// maxPlausibleElems bounds any one allocation's float32 count (16GB)
	// so hostile headers error instead of panicking the loader.
	maxPlausibleElems = 4_000_000_000
)

// Save serializes a Flat or IVF index so it persists and reloads
// alongside LinkageDB.Save.
func Save(w io.Writer, s Searcher) error {
	bw := bufio.NewWriter(w)
	var kind byte
	var buckets map[int]*bucket
	var ivf *IVF
	switch x := s.(type) {
	case *Flat:
		// Hold the read lock for the whole dump so a concurrent Append
		// cannot tear the snapshot mid-bucket.
		x.mu.RLock()
		defer x.mu.RUnlock()
		kind, buckets = kindFlat, x.buckets
	case *IVF:
		x.mu.RLock()
		defer x.mu.RUnlock()
		kind, ivf = kindIVF, x
		buckets = make(map[int]*bucket, len(x.labels))
		for y, c := range x.labels {
			buckets[y] = c.b
		}
	case *IVFPQ:
		x.mu.RLock()
		defer x.mu.RUnlock()
		return saveIVFPQ(bw, x)
	default:
		return fmt.Errorf("index: save: unsupported backend %q", s.Kind())
	}
	dim := s.Dim()
	if _, err := bw.WriteString(ixMagic); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	bw.WriteByte(ixVersion)
	bw.WriteByte(kind)
	labels := make([]int, 0, len(buckets))
	for y := range buckets {
		labels = append(labels, y)
	}
	sort.Ints(labels)
	var u32 [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		bw.Write(u32[:])
	}
	put(uint32(dim))
	put(uint32(len(labels)))
	var rec []byte
	for _, y := range labels {
		b := buckets[y]
		put(uint32(int32(y)))
		put(uint32(b.n))
		for i := 0; i < b.n; i++ {
			var err error
			if rec, err = appendIdentity(rec[:0], &b.entries, i); err != nil {
				return err
			}
			bw.Write(rec)
			for _, v := range b.vecs.at(i) {
				put(math.Float32bits(v))
			}
		}
	}
	if ivf != nil {
		put(uint32(ivf.Nprobe()))
		for _, y := range labels {
			c := ivf.labels[y]
			put(uint32(c.nlist))
			for _, v := range c.centroids {
				put(math.Float32bits(v))
			}
			for _, list := range c.lists {
				put(uint32(len(list)))
				for _, pos := range list {
					put(uint32(pos))
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// appendIdentity appends what every saved entry starts with — idx u32 |
// srclen u16 | src | hash[32] — for position pos of e, resolved through
// the database or from the run itself (entries.provenance), so a file
// does not show where a linkage was resident. rec is the caller's
// reused buffer: the hash is copied into it, never handed to the writer,
// which would move every one to the heap.
func appendIdentity(rec []byte, e *entries, pos int) ([]byte, error) {
	src, hash := e.provenance(pos)
	if len(src) > 65535 {
		return nil, fmt.Errorf("index: save: source %q… exceeds 65535 bytes", src[:32])
	}
	rec = binary.LittleEndian.AppendUint32(rec, uint32(e.idx[pos]))
	rec = binary.LittleEndian.AppendUint16(rec, uint16(len(src)))
	rec = append(rec, src...)
	return append(rec, hash[:]...), nil
}

// saveIVFPQ writes the kindIVFPQ stream: header, search knobs, then per
// label the coarse centroids, PQ codebook, and code-carrying inverted
// lists. The caller holds the index read lock.
func saveIVFPQ(bw *bufio.Writer, x *IVFPQ) error {
	if _, err := bw.WriteString(ixMagic); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	bw.WriteByte(ixVersion)
	bw.WriteByte(kindIVFPQ)
	var u32 [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(u32[:], v)
		bw.Write(u32[:])
	}
	put(uint32(x.dim))
	put(uint32(len(x.labels)))
	put(uint32(x.Nprobe()))
	put(uint32(x.m))
	labels := make([]int, 0, len(x.labels))
	for y := range x.labels {
		labels = append(labels, y)
	}
	sort.Ints(labels)
	var rec []byte
	for _, y := range labels {
		c := x.labels[y]
		put(uint32(int32(y)))
		put(uint32(c.nlist))
		for _, v := range c.centroids {
			put(math.Float32bits(v))
		}
		for i := range c.book.centroids {
			put(math.Float32bits(c.book.centroids[c.book.slot(i)]))
		}
		for _, l := range c.lists {
			put(uint32(l.n()))
			for i := 0; i < l.n(); i++ {
				var err error
				if rec, err = appendIdentity(rec[:0], &l.entries, i); err != nil {
					return err
				}
				bw.Write(rec)
				bw.Write(l.codes[i*x.m : (i+1)*x.m])
			}
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("index: save: %w", err)
	}
	return nil
}

// Load deserializes an index written by Save, returning a *Flat, *IVF,
// or *IVFPQ.
//
// Malformed input yields ErrCorrupt or ErrVersionMismatch, never a
// panic. When r can say how long it is (a file, a bytes.Reader), every
// count the stream claims is held to the bytes it would need before
// anything is allocated for it, so a short hostile file costs memory in
// proportion to its own size, not to what its header says.
func Load(r io.Reader) (Searcher, error) {
	left := int64(math.MaxInt64)
	if s, ok := r.(io.Seeker); ok {
		if n, ok := fingerprint.BytesLeft(s); ok {
			left = n
		}
	}
	// holds reports whether the stream is long enough for count records
	// of at least each bytes.
	holds := func(count, each int) bool { return int64(count)*int64(each) <= left }
	br := bufio.NewReader(r)
	head := make([]byte, 4+1+1+4+4)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("index: load: %w: %w", err, ErrCorrupt)
	}
	if string(head[:4]) != ixMagic {
		return nil, fmt.Errorf("index: load: bad magic %q: %w", head[:4], ErrCorrupt)
	}
	if head[4] != ixVersion {
		return nil, fmt.Errorf("index: load: unsupported version %d: %w", head[4], ErrVersionMismatch)
	}
	kind := head[5]
	dim := int(binary.LittleEndian.Uint32(head[6:]))
	nlabels := int(binary.LittleEndian.Uint32(head[10:]))
	if dim <= 0 || dim > maxPlausibleDim || nlabels < 0 || nlabels > maxPlausible || !holds(nlabels, 8) {
		return nil, fmt.Errorf("index: load: implausible header (dim %d, labels %d): %w", dim, nlabels, ErrCorrupt)
	}
	var u32b [4]byte
	get := func() (uint32, error) {
		if _, err := io.ReadFull(br, u32b[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(u32b[:]), nil
	}
	if kind == kindIVFPQ {
		return loadIVFPQ(br, dim, nlabels, get, holds)
	}
	labels := make([]int, nlabels)
	buckets := make(map[int]*bucket, nlabels)
	total := 0
	for li := 0; li < nlabels; li++ {
		yv, err := get()
		if err != nil {
			return nil, fmt.Errorf("index: load label %d: %w: %w", li, err, ErrCorrupt)
		}
		y := int(int32(yv))
		nv, err := get()
		if err != nil {
			return nil, fmt.Errorf("index: load label %d: %w: %w", li, err, ErrCorrupt)
		}
		n := int(nv)
		// Bound the product too: make([]float32, n*dim) on hostile
		// headers must error, not panic or exhaust memory.
		if n > maxPlausible || n*dim > maxPlausibleElems || !holds(n, 4+2+32+4*dim) {
			return nil, fmt.Errorf("index: load: implausible entry count %d (dim %d): %w", n, dim, ErrCorrupt)
		}
		vecs := make([]float32, n*dim)
		b := &bucket{
			entries: entries{idx: make([]int32, n), src: make([]string, n), hash: make([][32]byte, n)},
			n:       n,
			vecs:    rows{dim: dim, nb: n, base: vecs},
		}
		for i := 0; i < n; i++ {
			iv, err := get()
			if err != nil {
				return nil, fmt.Errorf("index: load entry %d/%d: %w: %w", li, i, err, ErrCorrupt)
			}
			b.idx[i] = int32(iv)
			var u16 [2]byte
			if _, err := io.ReadFull(br, u16[:]); err != nil {
				return nil, fmt.Errorf("index: load entry %d/%d: %w: %w", li, i, err, ErrCorrupt)
			}
			rest := make([]byte, int(binary.LittleEndian.Uint16(u16[:]))+32+4*dim)
			if _, err := io.ReadFull(br, rest); err != nil {
				return nil, fmt.Errorf("index: load entry %d/%d: %w: %w", li, i, err, ErrCorrupt)
			}
			slen := len(rest) - 32 - 4*dim
			b.src[i] = string(rest[:slen])
			copy(b.hash[i][:], rest[slen:slen+32])
			fb := rest[slen+32:]
			for j := 0; j < dim; j++ {
				vecs[i*dim+j] = math.Float32frombits(binary.LittleEndian.Uint32(fb[j*4:]))
			}
		}
		if _, dup := buckets[y]; dup {
			return nil, fmt.Errorf("index: load: duplicate label %d: %w", y, ErrCorrupt)
		}
		labels[li] = y
		buckets[y] = b
		total += n
	}
	switch kind {
	case kindFlat:
		return &Flat{dim: dim, total: total, buckets: buckets}, nil
	case kindIVF:
		x := &IVF{labels: make(map[int]*ivfClass, nlabels)}
		x.dim, x.total = dim, total
		np, err := get()
		if err != nil {
			return nil, fmt.Errorf("index: load nprobe: %w: %w", err, ErrCorrupt)
		}
		if np == 0 || np > maxPlausible {
			return nil, fmt.Errorf("index: load: implausible nprobe %d: %w", np, ErrCorrupt)
		}
		x.nprobe.Store(int32(np))
		for _, y := range labels {
			b := buckets[y]
			nl, err := get()
			if err != nil {
				return nil, fmt.Errorf("index: load label %d lists: %w: %w", y, err, ErrCorrupt)
			}
			nlist := int(nl)
			if nlist <= 0 || nlist > maxPlausible || nlist*dim > maxPlausibleElems || !holds(nlist, 4*dim+4) {
				return nil, fmt.Errorf("index: load: implausible nlist %d (dim %d): %w", nlist, dim, ErrCorrupt)
			}
			c := &ivfClass{b: b, nlist: nlist, centroids: make([]float32, nlist*dim), lists: make([][]int32, nlist)}
			for j := range c.centroids {
				v, err := get()
				if err != nil {
					return nil, fmt.Errorf("index: load centroids %d: %w: %w", y, err, ErrCorrupt)
				}
				c.centroids[j] = math.Float32frombits(v)
			}
			// The inverted lists must partition the class: every bucket
			// position in exactly one list, or searches would silently
			// drop (or double-count) entries.
			seen := make([]bool, b.n)
			covered := 0
			for ci := 0; ci < nlist; ci++ {
				ln, err := get()
				if err != nil {
					return nil, fmt.Errorf("index: load list %d/%d: %w: %w", y, ci, err, ErrCorrupt)
				}
				if int(ln) > b.n {
					return nil, fmt.Errorf("index: load: list %d/%d longer than class (%d > %d): %w", y, ci, ln, b.n, ErrCorrupt)
				}
				list := make([]int32, ln)
				for p := range list {
					pv, err := get()
					if err != nil {
						return nil, fmt.Errorf("index: load list %d/%d: %w: %w", y, ci, err, ErrCorrupt)
					}
					if int(pv) >= b.n {
						return nil, fmt.Errorf("index: load: list position %d out of range: %w", pv, ErrCorrupt)
					}
					if seen[pv] {
						return nil, fmt.Errorf("index: load: position %d in two lists of label %d: %w", pv, y, ErrCorrupt)
					}
					seen[pv] = true
					covered++
					list[p] = int32(pv)
				}
				c.lists[ci] = list
			}
			if covered != b.n {
				return nil, fmt.Errorf("index: load: lists of label %d cover %d of %d entries: %w", y, covered, b.n, ErrCorrupt)
			}
			x.labels[y] = c
		}
		return x, nil
	default:
		return nil, fmt.Errorf("index: load: unknown kind %d: %w", kind, ErrCorrupt)
	}
}

// loadIVFPQ deserializes the kindIVFPQ body. Hostile headers must error
// (never panic or balloon): every count is bounds-checked before its
// allocation, mirroring the flat/IVF loader.
func loadIVFPQ(br *bufio.Reader, dim, nlabels int, get func() (uint32, error), holds func(count, each int) bool) (*IVFPQ, error) {
	np, err := get()
	if err != nil {
		return nil, fmt.Errorf("index: load nprobe: %w: %w", err, ErrCorrupt)
	}
	if np == 0 || np > maxPlausible {
		return nil, fmt.Errorf("index: load: implausible nprobe %d: %w", np, ErrCorrupt)
	}
	mv, err := get()
	if err != nil {
		return nil, fmt.Errorf("index: load m: %w: %w", err, ErrCorrupt)
	}
	m := int(mv)
	if m < 1 || m > dim || dim%m != 0 {
		return nil, fmt.Errorf("index: load: IVFPQ m=%d does not divide dim %d: %w", m, dim, ErrCorrupt)
	}
	dsub := dim / m
	x := &IVFPQ{m: m, labels: make(map[int]*ivfpqClass, nlabels)}
	x.dim = dim
	x.nprobe.Store(int32(np))
	for li := 0; li < nlabels; li++ {
		yv, err := get()
		if err != nil {
			return nil, fmt.Errorf("index: load label %d: %w: %w", li, err, ErrCorrupt)
		}
		y := int(int32(yv))
		if _, dup := x.labels[y]; dup {
			return nil, fmt.Errorf("index: load: duplicate label %d: %w", y, ErrCorrupt)
		}
		nl, err := get()
		if err != nil {
			return nil, fmt.Errorf("index: load label %d lists: %w: %w", y, err, ErrCorrupt)
		}
		nlist := int(nl)
		// Besides its lists a label carries the codebook: m·256·dsub floats.
		if nlist <= 0 || nlist > maxPlausible || nlist*dim > maxPlausibleElems || !holds(nlist, 4*dim+4) || !holds(dim, 4*pqKs) {
			return nil, fmt.Errorf("index: load: implausible nlist %d (dim %d): %w", nlist, dim, ErrCorrupt)
		}
		c := &ivfpqClass{
			x:         x,
			nlist:     nlist,
			centroids: make([]float32, nlist*dim),
			book:      newCodebook(m, dsub),
			lists:     make([]*pqList, nlist),
		}
		for j := range c.centroids {
			v, err := get()
			if err != nil {
				return nil, fmt.Errorf("index: load centroids %d: %w: %w", y, err, ErrCorrupt)
			}
			c.centroids[j] = math.Float32frombits(v)
		}
		for j := range c.book.centroids {
			v, err := get()
			if err != nil {
				return nil, fmt.Errorf("index: load codebook %d: %w: %w", y, err, ErrCorrupt)
			}
			c.book.centroids[c.book.slot(j)] = math.Float32frombits(v)
		}
		for ci := 0; ci < nlist; ci++ {
			ln, err := get()
			if err != nil {
				return nil, fmt.Errorf("index: load list %d/%d: %w: %w", y, ci, err, ErrCorrupt)
			}
			n := int(ln)
			if n > maxPlausible || n*m > maxPlausibleElems || !holds(n, 4+2+32+m) {
				return nil, fmt.Errorf("index: load: implausible list length %d (m %d): %w", n, m, ErrCorrupt)
			}
			l := &pqList{codes: make([]byte, n*m), entries: entries{
				idx: make([]int32, n), src: make([]string, n), hash: make([][32]byte, n), f: make([]fingerprint.Fingerprint, n)}}
			for i := 0; i < n; i++ {
				iv, err := get()
				if err != nil {
					return nil, fmt.Errorf("index: load entry %d/%d/%d: %w: %w", y, ci, i, err, ErrCorrupt)
				}
				l.idx[i] = int32(iv)
				var u16 [2]byte
				if _, err := io.ReadFull(br, u16[:]); err != nil {
					return nil, fmt.Errorf("index: load entry %d/%d/%d: %w: %w", y, ci, i, err, ErrCorrupt)
				}
				rest := make([]byte, int(binary.LittleEndian.Uint16(u16[:]))+32+m)
				if _, err := io.ReadFull(br, rest); err != nil {
					return nil, fmt.Errorf("index: load entry %d/%d/%d: %w: %w", y, ci, i, err, ErrCorrupt)
				}
				slen := len(rest) - 32 - m
				l.src[i] = string(rest[:slen])
				copy(l.hash[i][:], rest[slen:slen+32])
				copy(l.codes[i*m:(i+1)*m], rest[slen+32:])
			}
			c.lists[ci] = l
			c.n += n
		}
		x.labels[y] = c
		x.total += c.n
	}
	return x, nil
}
