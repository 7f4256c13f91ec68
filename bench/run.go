package main

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/shard"
)

const (
	// The timed phase is cut into this many windows; every client-side
	// number is computed per window and the median window is reported, so
	// one disturbed window does not move the result.
	numWindows = 5
	// A phase needs this many samples ranked above its p95 for the p95 to
	// be a measurement.
	minBeyondTail = 10
	// The generator may use at most this share of all CPU before the run
	// measures the harness instead of the deployment.
	maxClientCPUShare = 0.35
	// Deployments started per run; setup_s is their median. A run that is
	// already setupBudget old starts no further one: when the sandbox is
	// throttled a set-up takes ten times as long, and the run must still
	// end within the driver's limit.
	numSetups   = 3
	setupBudget = 40 * time.Second
)

// warmupFor is the untimed load before a timed phase of the given length:
// 2 s, less for the smoke test's short phases.
func warmupFor(seconds float64) time.Duration {
	return min(2*time.Second, time.Duration(seconds*float64(time.Second)/4))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is what one invocation fixes for all of its runs.
type runConfig struct {
	bins    string // built daemons
	dir     string // scratch directory of this invocation
	seed    uint64
	seconds float64
	shape   dataShape
}

// report is the outcome of one run of one workload.
type report struct {
	Workload  string            `json:"workload"`
	Metrics   map[string]metric `json:"metrics"`
	Windows   map[string]spread `json:"windows,omitempty"` // min and max behind each per-window median
	Requests  []int             `json:"requests_per_window,omitempty"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	// Problems are failed correctness checks; Invalid lists the ways the
	// run did not measure what it claims to.
	Problems []string `json:"problems,omitempty"`
	Invalid  []string `json:"invalid,omitempty"`
}

func (r *report) set(name string, v float64, unit string) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) problemf(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *report) ok() bool { return len(r.Problems) == 0 && len(r.Invalid) == 0 }

// prepare generates the run's database from the seed, splits it with the
// real caltrain-shard into a fresh directory, and returns the deployment
// ready to start.
func prepare(rc runConfig, w workload, mode string) (*runEnv, *deployment, error) {
	shape := rc.shape
	if w.perLabel > 0 && w.perLabel < shape.perLabel {
		shape.perLabel, shape.probes = w.perLabel, w.probes
	}
	env, err := newRunEnv(rc.seed, shape)
	if err != nil {
		return nil, nil, err
	}
	dir := filepath.Join(rc.dir, w.Name+"-"+mode)
	// -agree runs a workload twice in one invocation: the second run must
	// not replay the first one's WAL.
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	dbPath := filepath.Join(dir, "linkage.db")
	if err := saveDB(env.db, dbPath); err != nil {
		return nil, nil, err
	}
	if err := splitDB(rc.bins, dir, dbPath); err != nil {
		return nil, nil, err
	}
	return env, &deployment{cfg: w.cfg, bins: rc.bins, dir: dir}, nil
}

// Indices into scrape.procs, which follows deployment.procs.
const routerProc = 0

var shardProcs = []int{1, 2}

// clientMetrics reports what the closed-loop clients saw of the phase:
// throughput and median latency as the median over its windows, the tail
// latency over all of its samples, and the share of requests that failed.
func clientMetrics(r *report, ph phase) {
	var thr, p50 []float64
	for _, ws := range windowize(ph.samples, ph.length, numWindows) {
		thr, p50 = append(thr, ws.itemsPerS), append(p50, ws.p50ms)
		r.Requests = append(r.Requests, ws.requests)
	}
	r.Windows["client.throughput_items_s"], r.Windows["client.latency_p50_ms"] = spreadOf(thr), spreadOf(p50)
	r.set("client.throughput_items_s", median(thr), "1/s")
	r.set("client.latency_p50_ms", median(p50), "ms")
	ms := ph.latenciesMS()
	sort.Float64s(ms)
	r.set("client.latency_p95_ms", percentile(ms, 95), "ms")
	if beyond := len(ms) - int(math.Ceil(0.95*float64(len(ms)))); beyond < minBeyondTail {
		r.Invalid = append(r.Invalid, fmt.Sprintf("%d samples beyond p95, fewer than %d", beyond, minBeyondTail))
	}
	r.set("client.failed_share", float64(ph.failed())/float64(max(ph.attempted(), 1)), "ratio")
}

// processMetrics reports what the daemons spent between two scrapes per
// item delivered, under each binary's name and in total, the generator's
// share of all CPU, and the share of the machine's processor time the
// hypervisor took away meanwhile.
func processMetrics(r *report, a, b scrape, ph phase) {
	items := float64(max(ph.items(), 1))
	var daemonCPU time.Duration
	for _, bin := range []struct {
		name  string
		procs []int
	}{{"caltrain-router", []int{routerProc}}, {"caltrain-serve", shardProcs}} {
		var cpu time.Duration
		var mallocs, bytes, pause float64
		for _, i := range bin.procs {
			cpu += b.procs[i].cpu - a.procs[i].cpu
			mallocs += float64(b.procs[i].mem.Mallocs - a.procs[i].mem.Mallocs)
			bytes += float64(b.procs[i].mem.TotalAlloc - a.procs[i].mem.TotalAlloc)
			pause += float64(b.procs[i].mem.PauseTotalNs - a.procs[i].mem.PauseTotalNs)
		}
		daemonCPU += cpu
		r.set(bin.name+".cpu_ms_per_item", cpu.Seconds()*1e3/items, "ms")
		r.set(bin.name+".mallocs_per_item", mallocs/items, "count")
		r.set(bin.name+".alloc_bytes_per_item", bytes/items, "B")
		r.set(bin.name+".gc_pause_ms_per_s", pause/1e6/ph.length.Seconds(), "ms/s")
	}
	self := b.selfCPU - a.selfCPU
	share := self.Seconds() / max((self+daemonCPU).Seconds(), 1e-9)
	r.set("client.cpu_share", share, "ratio")
	if share > maxClientCPUShare {
		r.Invalid = append(r.Invalid, fmt.Sprintf("the generator used %.2f of all CPU, more than %.2f", share, maxClientCPUShare))
	}
	r.set("client.cpu_ms_per_item", daemonCPU.Seconds()*1e3/items, "ms")
	r.set("client.steal_share", float64(b.stolen-a.stolen)/float64(max(b.ticks-a.ticks, 1)), "ratio")
}

// runEndToEnd is the untraced run: what a caller of the deployment sees.
func runEndToEnd(ctx context.Context, rc runConfig, w workload) (*report, error) {
	began := time.Now()
	r := &report{Workload: w.Name, Metrics: map[string]metric{}, Windows: map[string]spread{}}
	env, d, err := prepare(rc, w, "e2e")
	if err != nil {
		return nil, err
	}
	defer d.stop()
	var setups, setupRSS []float64
	var s0 scrape // the deployment before any load
	for i := 0; i < numSetups && (i == 0 || time.Since(began) < setupBudget); i++ {
		d.stop()
		if err := d.start(ctx); err != nil {
			return nil, err
		}
		if s0, err = takeScrape(ctx, d); err != nil {
			return nil, err
		}
		setups, setupRSS = append(setups, d.setup.Seconds()), append(setupRSS, s0.peakRSSMiB())
	}

	// Recall first, on the database plus a fixed number of appended
	// linkages: probed after the timed phase it would fall with every
	// linkage a faster run appends, and a gain would read as a loss.
	var prelude phase
	if w.ingestBatch > 0 {
		prelude = runPrelude(ctx, env, w, d.url())
	}
	if err := mirrorAcked(env, prelude.acked); err != nil {
		return nil, err
	}
	client := fingerprint.NewClient(d.url(), nil)
	probes := env.shape.probes
	recall, err := recallAt9(ctx, env, client, probes)
	if err != nil {
		return nil, err
	}
	r.set("recall_at_9", recall, "ratio")
	if recall < w.recallFloor {
		r.problemf("recall_at_9 %.4f is below the %s floor %.2f", recall, w.cfg.backend, w.recallFloor)
	}

	warm := runPhase(ctx, env, w, d.url(), "warmup", warmupFor(rc.seconds), false)
	s1, err := takeScrape(ctx, d)
	if err != nil {
		return nil, err
	}
	length := time.Duration(rc.seconds * float64(time.Second))
	timed := runPhase(ctx, env, w, d.url(), "timed", length, false)
	s2, err := takeScrape(ctx, d)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	r.Attempted, r.Failed = timed.attempted(), timed.failed()
	if r.Attempted == 0 {
		return nil, fmt.Errorf("%s: no request completed: %v", w.Name, timed.firstErr)
	}
	if before := prelude.failed() + warm.failed(); r.Failed > 0 || before > 0 {
		r.problemf("%d of %d timed and %d earlier requests failed, first: %v", r.Failed, r.Attempted, before, cmp.Or(timed.firstErr, warm.firstErr, prelude.firstErr))
	}
	clientMetrics(r, timed)
	processMetrics(r, s1, s2, timed)
	// The peak after serving depends on where the collector's cycles fell
	// and does not repeat (client.rss_peak_mb); the peak through loading
	// and index build does.
	r.set("rss_setup_mb", median(setupRSS), "MiB")
	r.Windows["rss_setup_mb"] = spreadOf(setupRSS)
	r.set("client.rss_peak_mb", s2.peakRSSMiB(), "MiB")
	r.set("setup_s", median(setups), "s")
	r.Windows["setup_s"] = spreadOf(setups)

	// Counters: nothing but the prelude, the recall probes and the two
	// phases has touched them.
	acked := append(append(prelude.acked, warm.acked...), timed.acked...)
	if grew := promDelta(s0, s2, "caltrain_entries", shardProcs...); int(grew) != len(acked) {
		r.problemf("caltrain_entries grew by %d, acknowledged %d", int(grew), len(acked))
	}
	if w.cfg.cache > 0 {
		lookups := promDelta(s0, s2, "caltrain_router_cache_hits_total", routerProc) + promDelta(s0, s2, "caltrain_router_cache_misses_total", routerProc)
		if sent := probes + warm.singles + timed.singles; int(lookups) != sent {
			r.problemf("router cache hits+misses moved by %d, single queries sent %d", int(lookups), sent)
		}
	}
	if w.cfg.wal {
		exact := w.cfg.backend != "ivfpq"
		if err := ackedServed(ctx, client, acked, exact); err != nil {
			r.problemf("before the kill: %v", err)
		}
		if err := killAndRecheck(ctx, d, acked, exact); err != nil {
			r.problemf("after SIGKILL and restart: %v", err)
		}
	}
	return r, nil
}

// killAndRecheck SIGKILLs shard 0, restarts it on the same -db and -wal,
// and probes it directly for the linkages it acknowledged before the
// kill. It runs after the timed phase, so it costs no timing.
func killAndRecheck(ctx context.Context, d *deployment, acked []fingerprint.IngestEntry, exact bool) error {
	mf, err := os.Open(filepath.Join(d.dir, "shards", "shardmap.ctsm"))
	if err != nil {
		return err
	}
	m, err := shard.LoadMap(mf)
	mf.Close()
	if err != nil {
		return err
	}
	const victim = 0
	var mine []fingerprint.IngestEntry
	for _, e := range acked {
		if m.Shard(e.Label) == victim {
			mine = append(mine, e)
		}
	}
	if err := d.restartShard(ctx, victim); err != nil {
		return err
	}
	return ackedServed(ctx, fingerprint.NewClient("http://"+d.shards[victim].addr, nil), mine, exact)
}
