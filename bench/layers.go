package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/ingest"
	"caltrain/internal/kernel"
	"caltrain/internal/obs"
	"caltrain/internal/shard"
)

const (
	layerReps    = 7  // repetitions behind every median
	layerQueries = 32 // distinct queries one repetition cycles through
	// The PQ trainer is ~10× slower per entry than anything else here, so
	// the ivfpq rows run on a class of the size the mixed workload serves.
	pqClassSize = 2500
)

// layerPass times the public functions of each module in this process:
// one goroutine on one processor (the index backends fan large scans out
// over GOMAXPROCS, which would make a layer cheaper than the kernel calls
// inside it), fixed iteration counts, the median of layerReps
// repetitions. It runs on one class of its own, generated from the seed
// in the shape of one label of the full database, whatever the workload.
// Every measurement is wrapped in a harness-owned span so the pass leaves
// a trace of its own.
type layerPass struct {
	r   *report
	ctx context.Context
}

func (lp *layerPass) set(name string, v float64, unit string) { lp.r.set(name, v, unit) }

// time measures f under a span named after the metric it feeds.
func (lp *layerPass) time(name string, perCall int, f func()) float64 {
	_, sp := obs.StartSpan(lp.ctx, name)
	defer sp.End()
	return timeReps(layerReps, perCall, f)
}

// allocsPer reports the heap allocations and bytes of one call of f,
// averaged over n calls.
func allocsPer(n int, f func()) (allocs, bytes float64) {
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n), float64(b.TotalAlloc-a.TotalAlloc) / float64(n)
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

// classDB copies the first n linkages of one label into a database of
// their own, relabelled.
func classDB(env *runEnv, label, n, as int) *fingerprint.DB {
	db, err := fingerprint.NewDB(env.shape.dim)
	must(err)
	for _, i := range env.byLabel[label][:min(n, len(env.byLabel[label]))] {
		l := env.db.Entry(i)
		l.Y = as
		must(db.Add(l))
	}
	return db
}

func serve(h http.Handler, path string, body []byte) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		panic(fmt.Sprintf("layer pass: POST %s answered %d: %s", path, rec.Code, rec.Body))
	}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	must(err)
	return b
}

// runLayerPass fills r with every layer-pass metric. A failure inside a
// layer is a bug in the benchmark or an API break, reported as an error.
func runLayerPass(rc runConfig, r *report) (snap *obs.TraceSnapshot, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("layer pass: %v", p)
		}
	}()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	scratch := filepath.Join(rc.dir, "layers")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	shape := rc.shape
	shape.labels = 1
	env, err := newRunEnv(rc.seed, shape)
	if err != nil {
		return nil, err
	}
	tr := obs.NewTrace("layers")
	ctx, root := obs.StartSpan(obs.WithTrace(context.Background(), tr), "layer_pass")
	lp := &layerPass{r: r, ctx: ctx}
	class := classDB(env, 0, env.shape.perLabel, 0)
	small := classDB(env, 0, pqClassSize, 0)
	n := class.Len()
	g := env.generator("layers", 0)
	queries := make([]fingerprint.Fingerprint, layerQueries)
	for i := range queries {
		queries[i] = g.fresh(0)
	}

	lp.kernel(class, queries[0], g.rng)
	searchUS, ivf := lp.index(class, small, queries, g)
	svc, handlerUS := lp.service(ivf, class, queries, searchUS["ivf"])
	lp.ingest(scratch, class, g)
	lp.router(svc, small, queries, handlerUS)
	lp.set("index.flat.topk_overhead_us", searchUS["flat"]-r.Metrics["kernel.rows_ns_per_vec"].Value*float64(n)/1e3, "us")
	root.End()
	return tr.Snapshot(http.StatusOK), nil
}

func (lp *layerPass) kernel(class *fingerprint.DB, q fingerprint.Fingerprint, rng *rand.Rand) {
	n, dim := class.Len(), class.Dim()
	vecs := make([]float32, 0, n*dim)
	for i := 0; i < n; i++ {
		vecs = append(vecs, class.Entry(i).F...)
	}
	out := make([]float64, n)
	// Rows are scanned the way the index backends scan them, a block at a
	// time into a buffer that stays in cache: index.flat.topk_overhead_us
	// subtracts this from a flat search over the same rows.
	const block = 256
	rows := func() float64 {
		return lp.time("kernel.rows", 4, func() {
			for i := 0; i < 4; i++ {
				for r := 0; r < n; r += block {
					m := min(block, n-r)
					kernel.DistanceRows(q, vecs[r*dim:(r+m)*dim], dim, out[:m])
				}
			}
		}) / float64(n) * 1e9
	}
	const m = 16
	table := make([]float32, m*kernel.ADCKs)
	for i := range table {
		table[i] = rng.Float32()
	}
	codes := make([]byte, n*m)
	for i := range codes {
		codes[i] = byte(rng.UintN(kernel.ADCKs))
	}
	adc := func() float64 {
		return lp.time("kernel.adc", 4, func() {
			for i := 0; i < 4; i++ {
				kernel.ADCScan(table, codes, m, out)
			}
		}) / float64(n) * 1e9
	}
	rowsNS, adcNS := rows(), adc()
	lp.set("kernel.rows_ns_per_vec", rowsNS, "ns")
	lp.set("kernel.adc_ns_per_code", adcNS, "ns")

	qs := make([]float32, 0, batchSize*dim)
	for i := 0; i < batchSize; i++ {
		qs = append(qs, q...)
	}
	batchOut := make([]float64, batchSize*n)
	lp.set("kernel.batch_ns_per_pair", lp.time("kernel.batch", 1, func() {
		kernel.DistanceBatch(qs, vecs, dim, batchOut)
	})/float64(batchSize*n)*1e9, "ns")

	pos := make([]int32, min(2048, n))
	for i := range pos {
		pos[i] = int32(rng.IntN(n))
	}
	lp.set("kernel.gather_ns_per_vec", lp.time("kernel.gather", 16, func() {
		for i := 0; i < 16; i++ {
			kernel.DistanceGather(q, vecs, dim, pos, out[:len(pos)])
		}
	})/float64(len(pos))*1e9, "ns")

	restore, err := kernel.SetActive("generic")
	must(err)
	genericRows, genericADC := rows(), adc()
	restore()
	lp.set("kernel.rows_speedup_vs_generic", genericRows/rowsNS, "ratio")
	lp.set("kernel.adc_speedup_vs_generic", genericADC/adcNS, "ratio")
}

// index measures the three backends and returns each one's search_us and
// the trained IVF index.
func (lp *layerPass) index(class, small *fingerprint.DB, queries []fingerprint.Fingerprint, g *generator) (map[string]float64, *index.IVF) {
	t0 := time.Now()
	ivf, err := index.TrainIVF(class, index.IVFOptions{Seed: 42})
	must(err)
	lp.set("index.ivf.train_s", time.Since(t0).Seconds(), "s")
	t0 = time.Now()
	pq, err := index.TrainIVFPQ(small, index.IVFPQOptions{IVFOptions: index.IVFOptions{Seed: 42}})
	must(err)
	lp.set("index.ivfpq.train_s", time.Since(t0).Seconds(), "s")

	searchUS := map[string]float64{}
	for _, b := range []struct {
		s interface {
			index.Appender
			fingerprint.BatchSearcher
			VectorBytes() int64
		}
		db *fingerprint.DB
	}{{index.NewFlat(class), class}, {ivf, class}, {pq, small}} {
		name := "index." + b.s.Kind() + "."
		search := func() float64 {
			return lp.time(name+"search", len(queries), func() {
				for _, q := range queries {
					_, err := b.s.Search(q, 0, queryK)
					must(err)
				}
			}) * 1e6
		}
		us := search()
		searchUS[b.s.Kind()] = us
		lp.set(name+"search_us", us, "us")
		restore, err := kernel.SetActive("generic")
		must(err)
		lp.set(name+"speedup_vs_generic", search()/us, "ratio")
		restore()

		labels, ks := make([]int, batchSize), make([]int, batchSize)
		for i := range ks {
			ks[i] = queryK
		}
		lp.set(name+"batch16_us", lp.time(name+"batch16", 1, func() {
			_, errs := b.s.SearchBatch(queries[:batchSize], labels, ks)
			for _, err := range errs {
				must(err)
			}
		})*1e6, "us")
		i := 0
		allocs, _ := allocsPer(len(queries), func() {
			_, _ = b.s.Search(queries[i%len(queries)], 0, queryK)
			i++
		})
		lp.set(name+"allocs_per_search", allocs, "count")
		lp.set(name+"bytes_per_entry", float64(b.s.VectorBytes())/float64(b.s.Len()), "B")

		const appends = 64
		next := b.db.Len()
		lp.set(name+"append_us_per_entry", lp.time(name+"append", appends, func() {
			for i := 0; i < appends; i++ {
				must(b.s.Append(next, fingerprint.Linkage{F: g.fresh(0), Y: 0, S: "layer-pass"}))
				next++
			}
		})*1e6, "us")
	}
	return searchUS, ivf
}

// service measures the wire codec and the query service over the IVF
// index, and returns the service with its handler time.
func (lp *layerPass) service(ivf *index.IVF, class *fingerprint.DB, queries []fingerprint.Fingerprint, ivfSearchUS float64) (*fingerprint.Service, float64) {
	svc := fingerprint.NewSearcherService(ivf)
	reqs := make([]fingerprint.QueryRequest, len(queries))
	bodies := make([][]byte, len(queries))
	for i, q := range queries {
		reqs[i] = fingerprint.QueryRequest{Fingerprint: q, Label: 0, K: queryK}
		bodies[i] = mustJSON(reqs[i])
	}
	const codecCalls = 100
	codec := func(name string, f func()) {
		lp.set("fingerprint.codec."+name+"_us", lp.time("fingerprint.codec."+name, codecCalls, func() {
			for i := 0; i < codecCalls; i++ {
				f()
			}
		})*1e6, "us")
	}
	codec("query_decode", func() {
		var q fingerprint.QueryRequest
		must(json.Unmarshal(bodies[0], &q))
	})
	batchBody := mustJSON(fingerprint.BatchRequest{Queries: reqs[:batchSize]})
	codec("batch16_decode", func() {
		var b fingerprint.BatchRequest
		must(json.Unmarshal(batchBody, &b))
	})
	resp := svc.RunBatch(reqs[:1]).Results[0].QueryResponse
	codec("response_encode", func() { mustJSON(resp) })
	ingestBody := mustJSON(fingerprint.IngestRequest{Entries: lp.entries(class, batchSize)})
	codec("ingest16_decode", func() {
		var in fingerprint.IngestRequest
		must(json.Unmarshal(ingestBody, &in))
		_, err := fingerprint.DecodeIngestEntries(in.Entries)
		must(err)
	})

	lp.set("fingerprint.service.run_batch1_overhead_us", lp.time("fingerprint.service.run_batch1", len(reqs), func() {
		for i := range reqs {
			if res := svc.RunBatch(reqs[i : i+1]).Results[0]; res.Error != "" {
				panic(res.Error)
			}
		}
	})*1e6-ivfSearchUS, "us")
	h := svc.Handler()
	handlerUS := lp.time("fingerprint.service.handler_query", len(bodies), func() {
		for _, b := range bodies {
			serve(h, "/v1/query", b)
		}
	}) * 1e6
	lp.set("fingerprint.service.handler_query_us", handlerUS, "us")
	i := 0
	allocs, bytes := allocsPer(len(bodies), func() {
		serve(h, "/v1/query", bodies[i%len(bodies)])
		i++
	})
	lp.set("fingerprint.service.allocs_per_query", allocs, "count")
	lp.set("fingerprint.service.alloc_bytes_per_query", bytes, "B")

	srv := httptest.NewServer(h)
	defer srv.Close()
	client := fingerprint.NewClient(srv.URL, srv.Client())
	lp.set("fingerprint.client.loopback_hop_us", lp.time("fingerprint.client.loopback", len(reqs), func() {
		for _, q := range reqs {
			_, err := client.QueryCtx(lp.ctx, q.Fingerprint, q.Label, q.K)
			must(err)
		}
	})*1e6-handlerUS, "us")
	return svc, handlerUS
}

// entries copies the first n linkages of the class as ingest entries.
func (lp *layerPass) entries(class *fingerprint.DB, n int) []fingerprint.IngestEntry {
	out := make([]fingerprint.IngestEntry, n)
	for i := range out {
		l := class.Entry(i)
		out[i] = fingerprint.IngestEntry{Fingerprint: l.F, Label: l.Y, Source: l.S, Hash: fmt.Sprintf("%x", l.H)}
	}
	return out
}

func (lp *layerPass) ingest(scratch string, class *fingerprint.DB, g *generator) {
	dim := class.Dim()
	batch := func() []fingerprint.Linkage {
		ls := make([]fingerprint.Linkage, batchSize)
		for i := range ls {
			ls[i] = fingerprint.Linkage{F: g.fresh(0), Y: 0, S: sourceName(i), H: randHash(g.rng)}
		}
		return ls
	}
	const appends = 8
	var seq uint64
	appendUS := func(name string, sync ingest.SyncPolicy) (float64, *ingest.WAL) {
		w, err := ingest.OpenWAL(filepath.Join(scratch, "wal-"+name), dim, ingest.WALOptions{Sync: sync})
		must(err)
		ls := batch()
		return lp.time("ingest.wal.append16_"+name, appends, func() {
			for i := 0; i < appends; i++ {
				must(w.Append(seq, ls))
				seq += batchSize
			}
		}) * 1e6, w
	}
	neverUS, never := appendUS("never", ingest.SyncNever)
	alwaysUS, always := appendUS("always", ingest.SyncAlways)
	must(always.Close())
	lp.set("ingest.wal.append16_never_us", neverUS, "us")
	lp.set("ingest.wal.append16_always_us", alwaysUS, "us")
	lp.set("ingest.wal.fsync_us", alwaysUS-neverUS, "us")

	// Grow the unsynced log to a few thousand records, then time reading
	// them back the way a restarted daemon does.
	ls := batch()
	for i := 0; i < 256; i++ {
		must(never.Append(seq, ls))
		seq += batchSize
	}
	logged := (layerReps+1)*appends*batchSize + 256*batchSize
	lp.set("ingest.wal.bytes_per_entry", float64(never.Bytes())/float64(logged), "B")
	must(never.Close())
	lp.set("ingest.wal.replay_entries_per_s", float64(logged)/lp.time("ingest.wal.replay", 1, func() {
		w, err := ingest.OpenWAL(filepath.Join(scratch, "wal-never"), dim, ingest.WALOptions{Sync: ingest.SyncNever})
		must(err)
		replayed := 0
		must(w.Replay(func(uint64, fingerprint.Linkage) error { replayed++; return nil }))
		must(w.Close())
		if replayed != logged {
			panic(fmt.Sprintf("replayed %d of %d logged linkages", replayed, logged))
		}
	}), "1/s")

	db := class.Snapshot(-1)
	store, err := ingest.Open(filepath.Join(scratch, "wal-store"), db, index.NewFlat(db),
		ingest.Options{WAL: ingest.WALOptions{Sync: ingest.SyncNever}, DriftThreshold: -1})
	must(err)
	defer store.Close()
	lp.set("ingest.store.batch16_us", lp.time("ingest.store.batch16", appends, func() {
		for i := 0; i < appends; i++ {
			_, err := store.IngestBatch(ls)
			must(err)
		}
	})*1e6, "us")
	allocs, _ := allocsPer(appends, func() {
		_, err := store.IngestBatch(ls)
		must(err)
	})
	lp.set("ingest.store.allocs_per_batch16", allocs, "count")
}

// router measures the scatter-gather front over two in-process replicas:
// shard 0 is the service the service layer was measured on, so the
// difference between the two handler times is the router's own cost.
func (lp *layerPass) router(svc0 *fingerprint.Service, small *fingerprint.DB, queries []fingerprint.Fingerprint, handlerUS float64) {
	other, err := fingerprint.NewDB(small.Dim())
	must(err)
	for i := 0; i < small.Len(); i++ {
		l := small.Entry(i)
		l.Y = 1
		must(other.Add(l))
	}
	ivf1, err := index.TrainIVF(other, index.IVFOptions{Seed: 42})
	must(err)
	svc1 := fingerprint.NewSearcherService(ivf1)
	m, err := shard.NewRangeMap([]int64{0, 1}) // label 0 → shard 0, label 1 → shard 1
	must(err)
	replicas := [][]shard.Replica{{shard.NewLocalReplica("shard-0", svc0)}, {shard.NewLocalReplica("shard-1", svc1)}}
	rt, err := shard.NewRouter(m, replicas)
	must(err)
	h := rt.Handler()
	bodies := make([][]byte, len(queries))
	mixed := make([]fingerprint.QueryRequest, batchSize)
	var halves [2][]fingerprint.QueryRequest
	for i, q := range queries {
		bodies[i] = mustJSON(fingerprint.QueryRequest{Fingerprint: q, Label: 0, K: queryK})
		if i < batchSize {
			mixed[i] = fingerprint.QueryRequest{Fingerprint: q, Label: i % 2, K: queryK}
			halves[i%2] = append(halves[i%2], mixed[i])
		}
	}
	localUS := lp.time("shard.router.local_query", len(bodies), func() {
		for _, b := range bodies {
			serve(h, "/v1/query", b)
		}
	}) * 1e6
	lp.set("shard.router.local_query_us", localUS, "us")
	lp.set("shard.router.overhead_us", localUS-handlerUS, "us")
	i := 0
	allocs, _ := allocsPer(len(bodies), func() {
		serve(h, "/v1/query", bodies[i%len(bodies)])
		i++
	})
	lp.set("shard.router.allocs_per_query", allocs, "count")

	batchUS := func(name string, h http.Handler, reqs []fingerprint.QueryRequest) float64 {
		body := mustJSON(fingerprint.BatchRequest{Queries: reqs})
		return lp.time(name, 4, func() {
			for i := 0; i < 4; i++ {
				serve(h, "/v1/query/batch", body)
			}
		}) * 1e6
	}
	lp.set("shard.router.batch16_split_us", batchUS("shard.router.batch16", h, mixed)-
		batchUS("fingerprint.service.batch8", svc0.Handler(), halves[0])-
		batchUS("fingerprint.service.batch8", svc1.Handler(), halves[1]), "us")

	cached, err := shard.NewRouter(m, replicas, shard.WithRouterResponseCache(len(bodies)))
	must(err)
	ch := cached.Handler()
	lp.set("shard.cache.hit_us", lp.time("shard.cache.hit", len(bodies), func() {
		for _, b := range bodies {
			serve(ch, "/v1/query", b)
		}
	})*1e6, "us")
}
