// Command caltrain-loadgen drives synthetic accountability traffic at a
// caltrain-serve daemon or caltrain-router and reports the latency
// distribution it observed — the closed-loop half of the observability
// story: traces and metrics tell you what the deployment did, loadgen
// tells you whether that meets the budget you promised.
//
//	caltrain-loadgen -addr http://localhost:8789 -duration 30s -qps 200 \
//	    -batch 8 -write-ratio 0.1 -slo 'p99<50ms,errors<0.1%'
//
// Queries are random unit-norm fingerprints with labels drawn uniformly
// from -labels, shaped by -batch (1 = POST /v1/query, >1 = POST
// /v1/query/batch) and -k; -write-ratio diverts that fraction of
// requests to POST /v1/ingest (the target needs a write path). -qps is
// the total offered rate across -concurrency workers (0 = unthrottled).
// The fingerprint dimensionality is discovered from GET /v1/stats, or
// forced with -dim.
//
// The report gives request count, throughput, error rate, and
// p50/p95/p99/max latency. -slo turns the run into a gate: a
// comma-separated budget like 'p99<50ms,errors<0.1%' is checked against
// the observed distribution and any violation makes the process exit
// non-zero — suitable for CI smoke jobs and canary pipelines.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"caltrain/internal/fingerprint"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "caltrain-loadgen:", err)
		os.Exit(1)
	}
}

// sloBudget is one parsed term of a -slo string: a latency percentile
// bound ("p99" < 50ms) or an error-rate bound ("errors" < 0.001).
type sloBudget struct {
	metric    string        // "p50", "p95", "p99", or "errors"
	latency   time.Duration // bound when metric is a percentile
	errorRate float64       // bound (fraction) when metric is "errors"
}

func (b sloBudget) String() string {
	if b.metric == "errors" {
		return fmt.Sprintf("errors<%.3g%%", b.errorRate*100)
	}
	return fmt.Sprintf("%s<%s", b.metric, b.latency)
}

// parseSLO parses a budget like "p99<50ms,errors<0.1%". Percentile
// bounds take Go durations; the error bound takes a percentage ("0.1%")
// or a bare fraction ("0.001").
func parseSLO(s string) ([]sloBudget, error) {
	var budgets []sloBudget
	for _, term := range strings.Split(s, ",") {
		term = strings.TrimSpace(term)
		if term == "" {
			continue
		}
		metric, bound, ok := strings.Cut(term, "<")
		if !ok {
			return nil, fmt.Errorf("SLO term %q: want metric<bound", term)
		}
		metric, bound = strings.TrimSpace(metric), strings.TrimSpace(bound)
		switch metric {
		case "p50", "p95", "p99":
			d, err := time.ParseDuration(bound)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("SLO term %q: bad duration %q", term, bound)
			}
			budgets = append(budgets, sloBudget{metric: metric, latency: d})
		case "errors":
			frac := 1.0
			if cut, ok := strings.CutSuffix(bound, "%"); ok {
				frac = 0.01
				bound = cut
			}
			var v float64
			if _, err := fmt.Sscanf(bound, "%g", &v); err != nil || v < 0 {
				return nil, fmt.Errorf("SLO term %q: bad rate %q", term, bound)
			}
			budgets = append(budgets, sloBudget{metric: "errors", errorRate: v * frac})
		default:
			return nil, fmt.Errorf("SLO term %q: unknown metric %q (want p50, p95, p99, or errors)", term, metric)
		}
	}
	if len(budgets) == 0 {
		return nil, fmt.Errorf("empty SLO")
	}
	return budgets, nil
}

// percentile returns the p-th percentile (0 < p <= 100) of an ascending
// latency slice using nearest-rank, or 0 for an empty slice.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// result aggregates one worker's observations.
type result struct {
	latencies []time.Duration // successful requests only
	errors    int
}

func run(parent context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("caltrain-loadgen", flag.ContinueOnError)
	var (
		addr        = fs.String("addr", "http://localhost:8789", "base URL of the daemon or router under load")
		duration    = fs.Duration("duration", 10*time.Second, "how long to drive traffic")
		qps         = fs.Float64("qps", 100, "total offered request rate across all workers (0 = unthrottled)")
		batch       = fs.Int("batch", 1, "queries per request: 1 = POST /v1/query, >1 = POST /v1/query/batch")
		writeRatio  = fs.Float64("write-ratio", 0, "fraction of requests sent as POST /v1/ingest writes, in [0,1]")
		k           = fs.Int("k", 5, "neighbours per query")
		dim         = fs.Int("dim", 0, "fingerprint dimensionality (0 = discover via GET /v1/stats)")
		labels      = fs.Int("labels", 10, "label space size for random queries and writes")
		concurrency = fs.Int("concurrency", 8, "concurrent worker connections")
		seed        = fs.Uint64("seed", 1, "workload RNG seed")
		slo         = fs.String("slo", "", "exit non-zero unless the run meets this budget, e.g. 'p99<50ms,errors<0.1%'")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %v", *duration)
	}
	if *qps < 0 {
		return fmt.Errorf("-qps must be non-negative, got %v", *qps)
	}
	if *batch < 1 {
		return fmt.Errorf("-batch must be at least 1, got %d", *batch)
	}
	if *writeRatio < 0 || *writeRatio > 1 {
		return fmt.Errorf("-write-ratio must be in [0,1], got %v", *writeRatio)
	}
	if *k < 1 {
		return fmt.Errorf("-k must be at least 1, got %d", *k)
	}
	if *labels < 1 {
		return fmt.Errorf("-labels must be at least 1, got %d", *labels)
	}
	if *concurrency < 1 {
		return fmt.Errorf("-concurrency must be at least 1, got %d", *concurrency)
	}
	var budgets []sloBudget
	if *slo != "" {
		var err error
		if budgets, err = parseSLO(*slo); err != nil {
			return err
		}
	}

	client := fingerprint.NewClient(*addr, nil)
	if *dim == 0 {
		stats, err := client.StatsCtx(parent)
		if err != nil {
			return fmt.Errorf("discovering dimensionality from %s/v1/stats: %w", *addr, err)
		}
		*dim = stats.Dim
	}
	if *dim < 1 {
		return fmt.Errorf("-dim must be at least 1, got %d", *dim)
	}

	// Pace with a shared ticker the workers drain: the offered rate is
	// global, not per worker, and a stalled target sheds load instead of
	// queueing it (ticker ticks drop when nobody is receiving).
	var pace <-chan time.Time
	if *qps > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / *qps))
		defer t.Stop()
		pace = t.C
	}

	ctx, cancel := context.WithTimeout(parent, *duration)
	defer cancel()
	start := time.Now()
	results := make([]result, *concurrency)
	var wg sync.WaitGroup
	for w := range *concurrency {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(*seed, uint64(w)))
			res := &results[w]
			for {
				if pace != nil {
					select {
					case <-pace:
					case <-ctx.Done():
						return
					}
				} else if ctx.Err() != nil {
					return
				}
				t0 := time.Now()
				err := oneRequest(ctx, client, rng, *dim, *labels, *batch, *k, *writeRatio)
				if ctx.Err() != nil {
					return // shutdown race, not a target failure
				}
				if err != nil {
					res.errors++
					continue
				}
				res.latencies = append(res.latencies, time.Since(t0))
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var all []time.Duration
	errors := 0
	for i := range results {
		all = append(all, results[i].latencies...)
		errors += results[i].errors
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	total := len(all) + errors
	if total == 0 {
		return fmt.Errorf("no requests completed in %v against %s", *duration, *addr)
	}
	errRate := float64(errors) / float64(total)
	p50, p95, p99 := percentile(all, 50), percentile(all, 95), percentile(all, 99)
	var max time.Duration
	if len(all) > 0 {
		max = all[len(all)-1]
	}
	fmt.Fprintf(out, "loadgen: %d requests in %.1fs (%.1f req/s), %d errors (%.2f%%)\n",
		total, elapsed.Seconds(), float64(total)/elapsed.Seconds(), errors, errRate*100)
	fmt.Fprintf(out, "latency: p50=%s p95=%s p99=%s max=%s\n", p50, p95, p99, max)

	var violations []string
	for _, b := range budgets {
		observed, ok := "", true
		switch b.metric {
		case "errors":
			observed = fmt.Sprintf("%.2f%%", errRate*100)
			ok = errRate < b.errorRate
		default:
			got := map[string]time.Duration{"p50": p50, "p95": p95, "p99": p99}[b.metric]
			observed = got.String()
			ok = got < b.latency
		}
		verdict := "OK"
		if !ok {
			verdict = "VIOLATED"
			violations = append(violations, fmt.Sprintf("%s (observed %s)", b, observed))
		}
		fmt.Fprintf(out, "slo: %s %s (observed %s)\n", b, verdict, observed)
	}
	if len(violations) > 0 {
		return fmt.Errorf("SLO violated: %s", strings.Join(violations, "; "))
	}
	return nil
}

// oneRequest issues a single read or write against the target, shaped
// by the workload flags.
func oneRequest(ctx context.Context, client *fingerprint.Client, rng *rand.Rand, dim, labels, batch, k int, writeRatio float64) error {
	if writeRatio > 0 && rng.Float64() < writeRatio {
		entries := make([]fingerprint.IngestEntry, batch)
		for i := range entries {
			entries[i] = fingerprint.IngestEntry{
				Fingerprint: randomFingerprint(rng, dim),
				Label:       rng.IntN(labels),
				Source:      "loadgen",
			}
		}
		resp, err := client.IngestCtx(ctx, entries)
		if err != nil {
			return err
		}
		// A routed ingest reports quorum failure inside a 200 body;
		// entries that reached no quorum are not durable and must count
		// against the error budget.
		if resp.Failed > 0 {
			return fmt.Errorf("ingest: %d of %d entries failed quorum", resp.Failed, len(entries))
		}
		return nil
	}
	if batch == 1 {
		_, err := client.QueryCtx(ctx, randomFingerprint(rng, dim), rng.IntN(labels), k)
		return err
	}
	reqs := make([]fingerprint.QueryRequest, batch)
	for i := range reqs {
		reqs[i] = fingerprint.QueryRequest{
			Fingerprint: randomFingerprint(rng, dim),
			Label:       rng.IntN(labels),
			K:           k,
		}
	}
	_, err := client.QueryBatchCtx(ctx, reqs)
	return err
}

// randomFingerprint returns a random unit-norm vector — the same shape
// real fingerprints have after the service's normalization.
func randomFingerprint(rng *rand.Rand, dim int) []float32 {
	f := make([]float32, dim)
	var norm float64
	for i := range f {
		v := rng.NormFloat64()
		f[i] = float32(v)
		norm += v * v
	}
	if norm == 0 {
		f[0] = 1
		return f
	}
	scale := float32(1 / math.Sqrt(norm))
	for i := range f {
		f[i] *= scale
	}
	return f
}
