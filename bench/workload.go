package main

import (
	"context"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
	"runtime"
	"sync"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
)

const (
	queryK    = 9
	batchSize = 16
	// The mixed workload's reads come from a fixed pool so that the
	// router's response cache can hit; the pool is half the cache, and
	// Zipf-skewed, so hits, capacity-independent misses (first sight and
	// write invalidations) and no evictions are what it measures.
	poolSize    = 2000
	cacheSize   = 4096
	zipfS       = 1.1
	writeShare  = 0.10
	mixedIngest = 4
	// A workload that writes first ingests this many batches of its own
	// size, and recall is probed on that state: the share of appended
	// linkages is then the same on every run, however fast the run is.
	preludeBatches = 500
)

// numClients closed-loop clients drive every phase: one per processor, so
// that the harness never times its own queueing.
var numClients = runtime.NumCPU()

// workload is one traffic mix and the deployment it runs against.
type workload struct {
	Name string
	Why  string
	// perLabel and probes override fullShape's (0 keeps them).
	perLabel, probes int
	cfg              deployConfig
	// ingestBatch is the size of the workload's ingest requests; 0 for a
	// read-only workload.
	ingestBatch int
	// recallFloor is the lowest acceptable recall_at_9, stated for the
	// database plus the prelude's linkages (see README, Correctness).
	recallFloor float64
	// next builds a client's next request.
	next func(g *generator) op
}

var workloads = []workload{
	{
		Name: "single_ivf",
		Why:  "one fresh query per request on ivf: two HTTP hops, JSON and routing dominate, search is a small share",
		cfg:  deployConfig{backend: "ivf"}, recallFloor: 0.95,
		next: func(g *generator) op { return g.query(g.rng.IntN(g.env.shape.labels)) },
	},
	{
		Name: "batch_flat",
		Why:  "16 same-label queries per request on flat: the batched distance kernel dominates, the codec is amortised",
		cfg:  deployConfig{backend: "flat"}, recallFloor: 1,
		next: func(g *generator) op {
			g.seq++
			return g.batch(g.seq % g.env.shape.labels)
		},
	},
	{
		Name: "ingest_durable",
		Why:  "16-linkage ingest batches over both shards with fsync per batch: WAL framing, fsync and fan-out dominate, no reads",
		cfg:  deployConfig{backend: "ivf", wal: true}, ingestBatch: batchSize, recallFloor: 0.95,
		next: func(g *generator) op { return g.ingest(batchSize) },
	},
	{
		Name: "mixed_cached_ivfpq",
		Why:  "90% Zipf-repeated queries through the router cache + 10% small ingests on ivfpq: hits, invalidation and ADC misses",
		// The PQ trainer needs ~40 s for two 100k-entry shards on two
		// cores, which no run in a 3420 s series can afford three times;
		// a tenth of the entries trains in ~4 s and leaves the ADC table
		// build, which does not depend on the class size, dominant.
		perLabel: 2500,
		// The quantized backend misses one neighbour in nine where the exact
		// ones miss one in a thousand: its mean needs ten times the probes
		// to repeat as well from seed to seed, and its scans are ten times
		// cheaper.
		probes: 2000,
		cfg:    deployConfig{backend: "ivfpq", wal: true, cache: cacheSize}, ingestBatch: mixedIngest, recallFloor: 0.85,
		next: func(g *generator) op {
			if g.rng.Float64() < writeShare {
				return g.ingest(mixedIngest)
			}
			return op{kind: opQuery, query: g.env.pool[g.zipf.Uint64()]}
		},
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

type opKind int

const (
	opQuery opKind = iota
	opBatch
	opIngest
)

// op is one request, built before its clock starts.
type op struct {
	kind    opKind
	query   fingerprint.QueryRequest
	batch   []fingerprint.QueryRequest
	entries []fingerprint.IngestEntry
}

// runEnv is what one run's generators and checks share: the base
// database (also the mirror the recall check grows), its shape, and the
// mixed workload's query pool.
type runEnv struct {
	seed    uint64
	shape   dataShape
	db      *fingerprint.DB
	byLabel [][]int
	pool    []fingerprint.QueryRequest
}

func newRunEnv(seed uint64, shape dataShape) (*runEnv, error) {
	db, err := genDB(seed, shape)
	if err != nil {
		return nil, err
	}
	env := &runEnv{seed: seed, shape: shape, db: db, byLabel: make([][]int, shape.labels)}
	for y := range env.byLabel {
		env.byLabel[y] = db.ClassIndex(y)
	}
	g := env.generator("pool", 0)
	env.pool = make([]fingerprint.QueryRequest, poolSize)
	for i := range env.pool {
		env.pool[i] = g.query(g.rng.IntN(shape.labels)).query
	}
	return env, nil
}

// generator is one client's seeded request stream.
type generator struct {
	env  *runEnv
	rng  *rand.Rand
	zipf *rand.Zipf
	seq  int
}

// generator derives an independent stream from the run seed, a purpose
// (phase or check name) and the client number.
func (e *runEnv) generator(purpose string, client int) *generator {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", purpose, client)
	rng := rand.New(rand.NewPCG(e.seed, h.Sum64()))
	return &generator{env: e, rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, poolSize-1), seq: client}
}

// fresh draws a fingerprint next to a random stored entry of the label:
// a new member of that entry's linkage group.
func (g *generator) fresh(label int) fingerprint.Fingerprint {
	idxs := g.env.byLabel[label]
	return perturb(g.rng, g.env.db.Entry(idxs[g.rng.IntN(len(idxs))]).F, g.env.shape.jitter)
}

func (g *generator) query(label int) op {
	return op{kind: opQuery, query: fingerprint.QueryRequest{Fingerprint: g.fresh(label), Label: label, K: queryK}}
}

func (g *generator) batch(label int) op {
	reqs := make([]fingerprint.QueryRequest, batchSize)
	for i := range reqs {
		reqs[i] = g.query(label).query
	}
	return op{kind: opBatch, batch: reqs}
}

// ingest builds n new linkages with labels drawn uniformly, so that a
// batch spans both shards.
func (g *generator) ingest(n int) op {
	entries := make([]fingerprint.IngestEntry, n)
	for i := range entries {
		label := g.rng.IntN(g.env.shape.labels)
		h := randHash(g.rng)
		entries[i] = fingerprint.IngestEntry{Fingerprint: g.fresh(label), Label: label,
			Source: sourceName(g.rng.IntN(g.env.shape.sources)), Hash: hex.EncodeToString(h[:])}
	}
	return op{kind: opIngest, entries: entries}
}

// do sends the request and returns how many items the reply delivered in
// full. Anything short of a complete, error-free reply is a failure: a
// non-2xx status, a per-result error, an unreachable or failed shard.
func (o op) do(ctx context.Context, c *fingerprint.Client) (int, error) {
	switch o.kind {
	case opQuery:
		resp, err := c.QueryCtx(ctx, o.query.Fingerprint, o.query.Label, o.query.K)
		if err != nil {
			return 0, err
		}
		if len(resp.Matches) != o.query.K {
			return 0, fmt.Errorf("query: %d matches, want %d", len(resp.Matches), o.query.K)
		}
		return 1, nil
	case opBatch:
		resp, err := c.QueryBatchCtx(ctx, o.batch)
		if err != nil {
			return 0, err
		}
		if len(resp.UnreachableShards) > 0 || len(resp.Results) != len(o.batch) {
			return 0, fmt.Errorf("batch: %d results of %d, unreachable %v", len(resp.Results), len(o.batch), resp.UnreachableShards)
		}
		for i, r := range resp.Results {
			if r.Error != "" || r.QueryResponse == nil || len(r.Matches) != o.batch[i].K {
				return 0, fmt.Errorf("batch result %d: %q", i, r.Error)
			}
		}
		return len(o.batch), nil
	default:
		resp, err := c.IngestCtx(ctx, o.entries)
		if err != nil {
			return 0, err
		}
		if resp.Accepted != len(o.entries) || resp.Failed != 0 || len(resp.FailedShards) > 0 {
			return 0, fmt.Errorf("ingest: accepted %d of %d, failed shards %v %v", resp.Accepted, len(o.entries), resp.FailedShards, resp.ShardErrors)
		}
		return len(o.entries), nil
	}
}

// phase is what the closed-loop clients observed over one stretch of
// load.
type phase struct {
	length   time.Duration
	samples  []sample
	acked    []fingerprint.IngestEntry // every linkage the deployment acknowledged
	singles  int                       // single queries sent, failed ones included
	firstErr error
	// traces holds the harness-owned half of every traced request.
	traces []*obs.TraceSnapshot
}

// runPhase drives the deployment closed-loop for the given time: each of
// the clients sends its next request when the previous reply has arrived,
// because the real callers — an investigator's tool, a model front-end,
// the training pipeline's fingerprinting stage — each wait for theirs.
// With traced set, every request runs under a harness-owned span whose
// context the client propagates, so the daemons keep their spans under
// the harness's trace ID.
func runPhase(ctx context.Context, env *runEnv, w workload, base, purpose string, length time.Duration, traced bool) phase {
	transport := &http.Transport{MaxIdleConnsPerHost: numClients}
	defer transport.CloseIdleConnections()
	httpc := &http.Client{Transport: transport}
	parts := make([]phase, numClients)
	conns := make([]*fingerprint.Client, numClients)
	for c := range conns {
		conns[c] = fingerprint.NewClient(base, httpc)
		if _, err := conns[c].MetaCtx(ctx); err != nil { // settle /v1 negotiation off the clock
			return phase{length: length, firstErr: err}
		}
	}
	var wg sync.WaitGroup
	begin := time.Now()
	for c, client := range conns {
		gen := env.generator(purpose, c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := &parts[c]
			for time.Since(begin) < length && ctx.Err() == nil {
				o := w.next(gen)
				rctx := ctx
				var tr *obs.Trace
				var sp *obs.Span
				if traced {
					tr = obs.NewTrace(obs.NewRequestID())
					tr.SetSampled(true)
					rctx, sp = obs.StartSpan(obs.WithTrace(ctx, tr), "client_request")
				}
				t0 := time.Now()
				items, err := o.do(rctx, client)
				lat := time.Since(t0)
				if traced {
					sp.End()
					p.traces = append(p.traces, tr.Snapshot(http.StatusOK))
				}
				if o.kind == opQuery {
					p.singles++
				}
				if err != nil && p.firstErr == nil {
					p.firstErr = err
				}
				if err == nil && o.kind == opIngest {
					p.acked = append(p.acked, o.entries...)
				}
				p.samples = append(p.samples, sample{done: time.Since(begin), latency: lat, items: items, failed: err != nil})
			}
		}()
	}
	wg.Wait()
	out := phase{length: length}
	for _, p := range parts {
		out.samples = append(out.samples, p.samples...)
		out.acked = append(out.acked, p.acked...)
		out.traces = append(out.traces, p.traces...)
		out.singles += p.singles
		if out.firstErr == nil {
			out.firstErr = p.firstErr
		}
	}
	return out
}

// runPrelude sends the workload's first preludeBatches ingest requests
// from one client, off the clock, and returns what was acknowledged.
func runPrelude(ctx context.Context, env *runEnv, w workload, base string) phase {
	var p phase
	client := fingerprint.NewClient(base, nil)
	gen := env.generator("prelude", 0)
	for i := 0; i < preludeBatches && ctx.Err() == nil; i++ {
		o := gen.ingest(w.ingestBatch)
		items, err := o.do(ctx, client)
		if err != nil {
			if p.firstErr == nil {
				p.firstErr = err
			}
		} else {
			p.acked = append(p.acked, o.entries...)
		}
		p.samples = append(p.samples, sample{items: items, failed: err != nil})
	}
	return p
}

func (p phase) attempted() int { return len(p.samples) }

// latenciesMS lists every request's latency in ms, in completion order
// per client.
func (p phase) latenciesMS() []float64 {
	ms := make([]float64, len(p.samples))
	for i, s := range p.samples {
		ms[i] = float64(s.latency) / float64(time.Millisecond)
	}
	return ms
}

func (p phase) failed() int {
	n := 0
	for _, s := range p.samples {
		if s.failed {
			n++
		}
	}
	return n
}

func (p phase) items() int {
	n := 0
	for _, s := range p.samples {
		n += s.items
	}
	return n
}
