// Sharded accountability serving: the distributed query tier end to
// end (§IV-C at scale).
//
// One linkage database outgrows one caltrain-serve process at VGG-Face
// scale (§VI: 2.6M entries). This walkthrough (run it with
// "go run ./examples/shardedserving") builds the full deployment in
// miniature, exactly the shape caltrain-shard + caltrain-serve +
// caltrain-router produce in production:
//
//  1. a linkage database of clustered fingerprints over many labels,
//  2. a hash shard map splitting its labels across 3 shards,
//  3. one query daemon per shard on a loopback listener,
//  4. a scatter-gather router fanning batches across them,
//  5. observability across the tree: the router's Prometheus
//     /v1/metrics scrape and one X-Request-Id grepped through the
//     router's and the owning shard's request logs, and
//  6. the moment that justifies the architecture: one shard dies and a
//     batch still answers, partial, naming the dead shard.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"log/slog"
	"math/rand/v2"
	"net"
	"strings"
	"sync"
	"time"

	"caltrain"
)

// logBuf is a tiny synchronized sink for the request logs, so the
// walkthrough can grep them like an operator greps log files.
type logBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *logBuf) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *logBuf) grep(substr string) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []string
	for _, line := range strings.Split(l.b.String(), "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return out
}

func main() {
	// 1. The linkage database a training session deposits: here 6000
	// synthetic fingerprints over 30 class labels.
	const dim, labels, entries = 32, 30, 6000
	db, err := caltrain.NewLinkageDB(dim)
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(42, 1))
	sources := []string{"alice", "bob", "carol"}
	for i := 0; i < entries; i++ {
		f := make(caltrain.Fingerprint, dim)
		y := i % labels
		for j := range f {
			f[j] = float32(y) + 0.1*rng.Float32() // crude per-class clustering
		}
		if err := db.Add(caltrain.Linkage{F: f, Y: y, S: sources[i%len(sources)]}); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("linkage database: %d entries, %d labels, dim %d\n", db.Len(), labels, dim)

	// 2. Split it. In production: caltrain-shard -db linkage.db -shards 3.
	shardMap, err := caltrain.NewHashShardMap(3)
	if err != nil {
		log.Fatal(err)
	}
	parts, err := caltrain.SplitDB(db, shardMap)
	if err != nil {
		log.Fatal(err)
	}

	// 3. One query daemon per shard, each a one-line declarative
	// Deployment over its part (exact Flat backend, the default). In
	// production these are caltrain-serve processes on separate hosts;
	// a different backend here is one field (Backend:
	// caltrain.BackendConfig{Kind: "ivf"}), not new wiring.
	ctx := context.Background()
	shardLogs := &logBuf{}
	shardCtx := make([]context.CancelFunc, len(parts))
	replicas := make([][]caltrain.ShardReplica, len(parts))
	for i, part := range parts {
		built, err := caltrain.Deployment{
			Backend: caltrain.BackendConfig{Kind: "flat"},
			// Request logging on: every shard daemon writes one
			// structured line per request, request ID included — in
			// production this is caltrain-serve -request-log on stderr.
			Observability: &caltrain.ObservabilityConfig{
				RequestLog: true,
				Logger:     slog.New(slog.NewTextHandler(shardLogs, nil)),
			},
		}.Build(part)
		if err != nil {
			log.Fatal(err)
		}
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		sctx, cancel := context.WithCancel(ctx)
		shardCtx[i] = cancel
		go func() { _ = built.Serve(sctx, l, time.Second) }()
		fmt.Printf("shard %d: %d entries on %s\n", i, part.Len(), l.Addr())
		replicas[i] = []caltrain.ShardReplica{
			caltrain.NewHTTPShardReplica("http://"+l.Addr().String(), nil),
		}
	}

	// 4. The scatter-gather router, serving the single-daemon protocol.
	// In production: caltrain-router -map shardmap.ctsm -shard 0=... .
	routerLog := &logBuf{}
	router, err := caltrain.NewShardRouter(shardMap, replicas,
		caltrain.WithShardTimeout(2*time.Second),
		caltrain.WithReplicaCooldown(100*time.Millisecond),
		caltrain.WithRouterObservability(caltrain.ObservabilityOptions{
			Component:  "router",
			RequestLog: true,
			Logger:     slog.New(slog.NewTextHandler(routerLog, nil)),
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	rctx, stopRouter := context.WithCancel(ctx)
	defer stopRouter()
	go func() { _ = router.Serve(rctx, rl, time.Second) }()
	fmt.Printf("router: %d shards behind %s\n\n", router.NumShards(), rl.Addr())

	// A model user investigates mispredictions: one batch, many labels —
	// the unchanged single-daemon client, pointed at the router. The
	// client discovers the topology on /v1/meta before querying.
	client := caltrain.NewQueryClient("http://" + rl.Addr().String())
	waitHealthy(client)
	if meta, err := client.Meta(); err == nil {
		fmt.Printf("endpoint: backend=%s sharded=%v (protocol %s)\n",
			meta.Backend, meta.Capabilities.Sharded, meta.Protocol)
	}
	batch := make([]caltrain.QueryRequest, 6)
	for i := range batch {
		batch[i] = caltrain.QueryRequest{Fingerprint: db.Entry(i).F, Label: i % labels, K: 3}
	}
	resp, err := client.QueryBatch(batch)
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range resp.Results {
		fmt.Printf("query %d (label %2d): top source %s at distance %.4f\n",
			i, batch[i].Label, res.Matches[0].Source, res.Matches[0].Distance)
	}

	// Aggregated observability: /stats sums shard entries and rolls up
	// their latency histograms beside the router's own (network-scale
	// buckets).
	st, err := client.Stats()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrouter /stats: index=%s entries=%d queries=%d\n", st.Index, st.Entries, st.Queries)

	// 5a. The Prometheus scrape: GET /v1/metrics on the router serves
	// its counters, per-shard entry gauges, and the merged shard latency
	// histogram in text exposition format — curl /v1/metrics in
	// production, here through the client.
	exposition, err := client.Metrics()
	if err != nil {
		log.Fatal(err)
	}
	if err := caltrain.LintMetrics(strings.NewReader(exposition)); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrouter /v1/metrics (topology families):")
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "caltrain_router_shards") ||
			strings.HasPrefix(line, "caltrain_shard_entries") {
			fmt.Println("  " + line)
		}
	}

	// 5b. Tracing: tag one query with a request ID (the client forwards
	// it as X-Request-Id; the router forwards it to the owning shard) and
	// grep it across both tiers' request logs — in production:
	// curl -H 'X-Request-Id: debug-42' … ; grep debug-42 *.log
	traced := caltrain.ContextWithRequestID(ctx, "debug-42")
	if _, err := client.QueryBatchCtx(traced, batch[:2]); err != nil {
		log.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // let the daemons flush their log lines
	fmt.Println("\ngrep request_id=debug-42 across tiers:")
	for _, line := range routerLog.grep("request_id=debug-42") {
		fmt.Println("  router: " + line)
	}
	for _, line := range shardLogs.grep("request_id=debug-42") {
		fmt.Println("  shard:  " + line)
	}

	// 6. Chaos: kill shard 1's daemon. Batches degrade to partial
	// results that name the dead shard — investigations on the surviving
	// labels continue.
	shardCtx[1]()
	time.Sleep(150 * time.Millisecond)
	fmt.Println("\nshard 1 killed; same batch again:")
	resp, err = client.QueryBatch(batch)
	if err != nil {
		log.Fatal(err)
	}
	for i, res := range resp.Results {
		if res.Error != "" {
			fmt.Printf("query %d (label %2d): ERROR %.60s…\n", i, batch[i].Label, res.Error)
			continue
		}
		fmt.Printf("query %d (label %2d): top source %s at distance %.4f\n",
			i, batch[i].Label, res.Matches[0].Source, res.Matches[0].Distance)
	}
	fmt.Printf("partial batch, unreachable: %v\n", resp.UnreachableShards)
}

func waitHealthy(client *caltrain.QueryClient) {
	deadline := time.Now().Add(5 * time.Second)
	for client.Healthz() != nil {
		if time.Now().After(deadline) {
			log.Fatal("router never became healthy")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
