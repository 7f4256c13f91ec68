package index

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sync"

	"caltrain/internal/fingerprint"
	"caltrain/internal/kernel"
)

// IVFOptions tunes IVF training and search.
type IVFOptions struct {
	// Nlist is the number of inverted lists (k-means centroids) per class
	// label. 0 picks ≈√n per label, clamped to [1, 1024].
	Nlist int
	// Nprobe is how many lists a query scans, the recall-vs-latency knob.
	// 0 picks max(2, Nlist/32), which measures ≥ 0.99 recall@10 on
	// clustered embedding workloads (see TestIVFRecall) while scanning a
	// few percent of a class. Adjustable after build with SetNprobe.
	Nprobe int
	// Iters is the number of Lloyd iterations. 0 means 6.
	Iters int
	// SampleCap bounds the per-label training sample. 0 means 128·Nlist.
	SampleCap int
	// Seed drives centroid initialization; training is deterministic for
	// a fixed seed and database.
	Seed uint64
}

func (o IVFOptions) withDefaults(n int) IVFOptions {
	if o.Nlist <= 0 {
		o.Nlist = int(math.Sqrt(float64(n)))
	}
	o.Nlist = max(1, min(o.Nlist, 1024, n))
	if o.Nprobe <= 0 {
		o.Nprobe = max(2, o.Nlist/32)
	}
	o.Nprobe = min(o.Nprobe, o.Nlist)
	if o.Iters <= 0 {
		o.Iters = 6
	}
	if o.SampleCap <= 0 {
		o.SampleCap = 128 * o.Nlist
	}
	return o
}

// ivfClass is one label's coarse quantizer plus inverted lists over the
// label's bucket.
type ivfClass struct {
	exact
	coarse
	b     *bucket
	lists [][]int32 // bucket positions per list
}

// coarse is one label's coarse quantizer, resident in two layouts:
// row-major centroids, which the coarse ranking of a search
// (scratch.scan) and the CTIX format read, and their dimension-major
// copy planes, which nearest reads.
type coarse struct {
	nlist     int
	centroids []float32 // nlist×dim
	planes    []float32 // the same, dim planes of nlist floats
}

// newCoarse returns the quantizer of the nlist row-major centroids. One
// centroid reads the same in either layout, so a one-list quantizer (a
// class born from one append, say) keeps one array.
func newCoarse(centroids []float32, nlist, dim int) coarse {
	planes := centroids
	if nlist > 1 {
		planes = make([]float32, len(centroids))
		transpose(planes, centroids, nlist, dim)
	}
	return coarse{nlist: nlist, centroids: centroids, planes: planes}
}

func (c *coarse) quantizer() (int, []float32) { return c.nlist, c.centroids }

// nearest returns the list whose centroid is nearest f, by the kernel's
// argmin (strict <, lowest index wins): a batch of one.
func (c *coarse) nearest(f []float32) int {
	var out [1]int32
	kernel.ArgminPlanarBatch(f, c.planes, len(f), c.nlist, out[:])
	return int(out[0])
}

// bytes is the quantizer's resident storage, by capacity: a one-list
// quantizer's one array once.
func (c *coarse) bytes() int64 {
	n := 4 * int64(cap(c.centroids))
	if c.nlist > 1 {
		n += 4 * int64(cap(c.planes))
	}
	return n
}

// IVF is the approximate backend: each class label is partitioned by a
// k-means coarse quantizer into nlist inverted lists, and a query scans
// only the nprobe lists whose centroids are closest to it. Typical
// configurations scan 1–10% of a class per query.
//
// IVF implements Appender: new vectors join their label's nearest
// inverted list without retraining the coarse quantizer. Appended
// entries are found whenever their list is probed, so recall decays
// only as appends pull the data distribution away from the trained
// centroids; Drift reports the appended fraction so the ingest path can
// retrain and hot-swap once it crosses a threshold. Append and Search
// are serialized under an internal RWMutex.
type IVF struct {
	coarseStage
	labels map[int]*ivfClass
}

// TrainIVF builds an IVF index from a snapshot of the linkage database.
// Training runs per label: sample, k-means (kmeans++-free random init +
// Lloyd refinement), then one full assignment pass. It allocates what
// the index keeps and one workspace (kmeans).
func TrainIVF(db *fingerprint.DB, opts IVFOptions) (*IVF, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("index: cannot train IVF on an empty database")
	}
	x := &IVF{labels: make(map[int]*ivfClass)}
	x.dim = db.Dim()
	nprobe := 0
	var km kmeans
	for _, y := range db.Labels() {
		b := buildBucket(db, y, nil)
		o := opts.withDefaults(b.n)
		c := &ivfClass{b: b, coarse: trainCoarse(b, o, &km)}
		c.lists = invertedLists(km.assign, c.nlist, make([]int32, b.n))
		x.labels[y] = c
		x.total += b.n
		// The coarsest label's nprobe default governs the index; labels
		// with fewer lists are clamped at search time.
		nprobe = max(nprobe, o.Nprobe)
	}
	x.nprobe.Store(int32(nprobe))
	return x, nil
}

// kmeans is the one workspace of a training call: every buffer the
// set-up needs besides what the trained index keeps, sized by the
// largest label and handed from label to label, from subquantizer to
// subquantizer and from pass to pass. A pass's buffers are garbage by
// the next, and fresh ones would land on pages no collection has freed
// yet, adding to the set-up's peak resident memory. Per entry of the
// largest label it holds four int32 (IVF) or seven (IVFPQ), plus IVFPQ's
// one subquantizer's sample and the rows of the label the database
// holds no class block of; see TestTrainAllocBudget.
type kmeans struct {
	perm   []int32   // a seeded permutation of a label's points: its sample
	slot   []int32   // storageOrder's row → position map, zeroed per use
	near   []int32   // a Lloyd round's cluster of each point
	sums   []float64 // a Lloyd round's per-cluster sums
	counts []int     // a Lloyd round's per-cluster sizes
	assign []int32   // the full assignment pass's list of each bucket position

	// IVFPQ's alone: the bucket of the label in training (buildBucket),
	// its positions list by list (the coarse lists' arena), and the
	// sample one subquantizer trains on with its identity and table.
	idx    []int32
	own    []float32
	order  []int32
	sample []float32
	all    []int32
	cents  []float32
	// tiles are the encoding pass's, one per concurrent worker.
	mu    sync.Mutex
	tiles []*encodeTile
}

// permute returns rng.Perm(n)'s draws — it is this Shuffle of the
// identity — in int32, in the workspace.
func (km *kmeans) permute(n int, rng *rand.Rand) []int32 {
	perm := iota32(km.perm, n)
	rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	km.perm = perm
	return perm
}

// iota32 returns 0, 1, …, n-1 in s's storage when it has room.
func iota32(s []int32, n int) []int32 {
	s = resize(s, n)
	for i := range s {
		s[i] = int32(i)
	}
	return s
}

// trainCoarse trains one label's coarse quantizer and leaves the list of
// every bucket position in km.assign. A label of no more points than
// lists is degenerate: every point its own list, the centroids the
// points.
func trainCoarse(b *bucket, o IVFOptions, km *kmeans) coarse {
	dim, nlist := b.vecs.dim, o.Nlist
	if nlist >= b.n {
		km.assign = iota32(km.assign, b.n)
		return newCoarse(append(append(make([]float32, 0, b.n*dim), b.vecs.base...), b.vecs.tail...), b.n, dim)
	}

	// Training sample: a seeded permutation prefix.
	rng := rand.New(rand.NewPCG(o.Seed, uint64(b.n)<<16|uint64(nlist)))
	sample := km.permute(b.n, rng)[:min(b.n, o.SampleCap)]

	// Random distinct init from the sample; lloyd leaves the trained
	// centroids in both layouts.
	c := newCoarse(make([]float32, nlist*dim), nlist, dim)
	for i := 0; i < nlist; i++ {
		p := int(sample[i%len(sample)])
		copy(c.centroids[i*dim:(i+1)*dim], b.vecs.at(p))
	}
	km.lloyd(&b.vecs, sample, c.centroids, c.planes, nlist, o.Iters, rng)

	// Full assignment pass over every point in the label.
	km.assign = resize(km.assign, b.n)
	planes := c.planes
	assignNearest(&b.vecs, nil, nil, km.assign, func(qs []float32, out []int32) {
		kernel.ArgminPlanarBatch(qs, planes, dim, nlist, out)
	})
	return c
}

// invertedLists groups the positions 0..len(assign)-1 by their list,
// ascending within each, into arena (len(assign) long): count,
// prefix-sum, then fill the arena through sub-slices whose capacity is
// their final length. A list therefore never grows while it is built,
// and an Append to it later reallocates that list instead of writing
// into its neighbour's rows. The arena read in list order is every
// position, list by list.
func invertedLists(assign []int32, nlist int, arena []int32) [][]int32 {
	end := make([]int, nlist) // end[ci] = arena offset one past list ci
	for _, ci := range assign {
		end[ci]++
	}
	for ci := 1; ci < nlist; ci++ {
		end[ci] += end[ci-1]
	}
	lists := make([][]int32, nlist)
	lo := 0
	for ci, hi := range end {
		lists[ci] = arena[lo:lo:hi]
		lo = hi
	}
	for p, ci := range assign {
		lists[ci] = append(lists[ci], int32(p))
	}
	return lists
}

// lloyd refines the k dim-length centroids in place with iters rounds of
// Lloyd's algorithm over the listed rows of vecs: assign every point to
// its nearest centroid (the kernel's argmin: strict <, lowest index
// wins), accumulate per-cluster sums in float64 in point order, then
// replace each centroid by its cluster mean — or, for a cluster left
// empty, re-seed it from a random listed point so it doesn't waste a
// probe forever. It is the one k-means loop under both trainers (the
// coarse quantizer and every PQ subquantizer); rng is drawn once per
// empty cluster, in ascending cluster order, which trained bytes depend
// on, and the sums take the points in sample order whichever core
// assigned them. cents stays row-major, which is what the update step
// writes; each assignment pass reads table, the caller's k·dim floats
// that cents is transposed into once per round — the planar layout
// kernel.ArgminPlanarBatch reads at every width — and table ends holding
// the trained centroids transposed: the resident planar copy of a coarse
// quantizer or a PQ codebook.
func (km *kmeans) lloyd(vecs *rows, points []int32, cents, table []float32, k, iters int, rng *rand.Rand) {
	dim := vecs.dim
	km.near, km.sums, km.counts = resize(km.near, len(points)), resize(km.sums, k*dim), resize(km.counts, k)
	near, sums, counts := km.near, km.sums, km.counts
	listed, order := points, km.storageOrder(points, vecs.nb+len(vecs.tail)/dim)
	if order == nil {
		listed = nil
	}
	argmin := func(qs []float32, out []int32) { kernel.ArgminPlanarBatch(qs, table, dim, k, out) }
	for it := 0; it < iters; it++ {
		transpose(table, cents, k, dim)
		assignNearest(vecs, listed, order, near, argmin)
		clear(sums)
		clear(counts)
		for i, p := range points {
			ci := int(near[i])
			counts[ci]++
			kernel.Accumulate(sums[ci*dim:(ci+1)*dim], vecs.at(int(p)))
		}
		for ci := 0; ci < k; ci++ {
			cen := cents[ci*dim : (ci+1)*dim]
			if counts[ci] == 0 {
				p := int(points[rng.IntN(len(points))])
				copy(cen, vecs.at(p))
				continue
			}
			inv := 1 / float64(counts[ci])
			for j, sj := range sums[ci*dim : (ci+1)*dim] {
				cen[j] = float32(sj * inv)
			}
		}
	}
	transpose(table, cents, k, dim)
}

// assignNearest writes into out[i] the centroid nearest row points[i] of
// vecs — row i when points is nil, which means every row. Large point
// sets fan out across cores, and each worker hands its chunk to argmin
// in batches (argmin(qs, o) fills o[j] for the j-th row of qs). Every
// row is one run of contiguous storage, passed as it lies; listed rows
// are visited in storage order (points[order[0]], points[order[1]], …,
// ascending) so that they stream from memory, and gathered assignTile
// at a time into a pooled scratch.
func assignNearest(vecs *rows, points, order, out []int32, argmin func(qs []float32, out []int32)) {
	dim := vecs.dim
	parallelChunks(len(out), func(lo, hi int) {
		if points == nil {
			for i := lo; i < hi; {
				run, n := vecs.span(i, hi)
				argmin(run, out[i:i+n])
				i += n
			}
			return
		}
		s := scratchPool.Get().(*scratch)
		defer scratchPool.Put(s)
		s.qs, s.probed = resize(s.qs, assignTile*dim), resize(s.probed, assignTile)
		for k0 := lo; k0 < hi; k0 += assignTile {
			tile := order[k0:min(k0+assignTile, hi)]
			for k, i := range tile {
				copy(s.qs[k*dim:], vecs.at(int(points[i])))
			}
			argmin(s.qs[:len(tile)*dim], s.probed[:len(tile)])
			for k, i := range tile {
				out[i] = s.probed[k]
			}
		}
	})
}

// storageOrder returns the positions of points — distinct rows below n
// — sorted by the row each names: the order assignNearest visits them
// in; nil when points already lists every row in order (trainPQ's
// sample), which assignNearest then reads as every row. One pass over
// the rows: the workspace's slot[p] is 1 + the position naming row p,
// and the answer is compacted into slot's own prefix (the write index
// never passes the read index).
func (km *kmeans) storageOrder(points []int32, n int) []int32 {
	if len(points) == n && slices.IsSorted(points) {
		return nil
	}
	km.slot = resize(km.slot, n)
	slot := km.slot
	clear(slot)
	for i, p := range points {
		slot[p] = int32(i) + 1
	}
	order := slot[:0]
	for _, s := range slot {
		if s != 0 {
			order = append(order, s-1)
		}
	}
	return order
}

// assignTile is how many rows assignNearest gathers, and the IVFPQ
// encoding pass packs, per batched argmin call: whole screening tiles of
// the kernel, 8 KiB at dim 64. A planar call sums its table's norms once
// for all its tiles, so eight tiles per call measured ~6 % faster IVF
// training than four.
const assignTile = 8 * kernel.ArgminTile

// Kind implements Searcher.
func (x *IVF) Kind() string { return "ivf" }

// Append implements Appender: the vector joins its label's nearest
// inverted list (by centroid distance) without retraining the
// quantizer. A label the index has never seen starts as a degenerate
// one-list class seeded by the vector itself.
func (x *IVF) Append(dbIndex int, l fingerprint.Linkage) error {
	if len(l.F) != x.dim {
		return fmt.Errorf("%w: appended fingerprint has %d dims, index %d", fingerprint.ErrDimMismatch, len(l.F), x.dim)
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	c := x.labels[l.Y]
	if c == nil {
		b := &bucket{vecs: rows{dim: x.dim}}
		pos := b.appendEntry(int32(dbIndex), l)
		x.labels[l.Y] = &ivfClass{coarse: newCoarse(append([]float32(nil), l.F...), 1, x.dim), b: b, lists: [][]int32{{pos}}}
	} else {
		pos := c.b.appendEntry(int32(dbIndex), l)
		best := c.nearest(l.F)
		c.lists[best] = append(c.lists[best], pos)
	}
	x.total++
	x.appended++
	return nil
}

// VectorBytes reports the bytes of search geometry the index scans: the
// full float32 vectors (its own or the database's, as in
// Flat.VectorBytes), per-entry database indices, centroid tables, and
// inverted-list positions.
func (x *IVF) VectorBytes() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var total int64
	for _, c := range x.labels {
		total += c.b.vecs.bytes()
		total += 4 * int64(len(c.b.idx))
		total += 4 * int64(len(c.centroids))
		for _, list := range c.lists {
			total += 4 * int64(len(list))
		}
	}
	return total
}

// OwnedBytes reports what the index keeps resident beyond the database
// it was built over: Flat.OwnedBytes plus the centroid tables, in both
// layouts, and the inverted lists.
func (x *IVF) OwnedBytes() int64 {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var total int64
	for _, c := range x.labels {
		total += c.b.ownedBytes() + c.coarse.bytes()
		for _, list := range c.lists {
			total += 4 * int64(cap(list))
		}
	}
	return total
}

// class implements backend.
func (x *IVF) class(label int) (class, int) {
	if c, ok := x.labels[label]; ok {
		return c, x.Nprobe()
	}
	return nil, 0
}

// Search returns approximately the k nearest same-label entries: it scans
// the nprobe inverted lists whose centroids are closest to f. Results are
// exact within the probed lists (same ordering contract as DB.Query).
func (x *IVF) Search(f fingerprint.Fingerprint, label, k int) ([]fingerprint.Match, error) {
	return search(x, &x.mu, f, label, k)
}

// SearchBatch implements fingerprint.BatchSearcher. The coarse stage is
// batched: all queries sharing a label rank that label's centroid table
// in one blocked kernel sweep (the table stays cache-resident across the
// group) before each query scans its own probed lists. Results are
// identical to per-query Search calls.
func (x *IVF) SearchBatch(fs []fingerprint.Fingerprint, labels []int, ks []int) ([][]fingerprint.Match, []error) {
	return searchBatch(x, &x.mu, fs, labels, ks)
}

func (c *ivfClass) listLen(li int32) int { return len(c.lists[li]) }

// scanList gathers the listed bucket rows' exact distances.
func (c *ivfClass) scanList(w *scratch, q []float32, heaps []topK, li int32, lo, hi int) {
	list := c.lists[li]
	for off := lo; off < hi; off += scanBlock {
		at := list[off:min(off+scanBlock, hi)]
		c.b.vecs.gather(q, at, w.buf[:len(at)])
		heaps[0].offer(w.buf[:len(at)], 0, at, &c.b.entries)
	}
}
