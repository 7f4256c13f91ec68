package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileAndMedian(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(hundred, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
	in := []float64{9, 1, 5}
	if got := median(in); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if in[0] != 9 {
		t.Error("median reordered its input")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if s := spreadOf([]float64{3, 1, 2}); s != (spread{Median: 2, Min: 1, Max: 3}) {
		t.Errorf("spreadOf = %+v", s)
	}
	// -agree judges a pair the same whichever run came first.
	if a, b := apart(100, 140), apart(140, 100); a != b || math.Abs(a-0.4) > 1e-12 {
		t.Errorf("apart(100,140) = %v, apart(140,100) = %v, want 0.4 both", a, b)
	}
}

func TestWindowize(t *testing.T) {
	ms := time.Millisecond
	var samples []sample
	// Window 0 (0–1 s): 100 requests of 1 item, latencies 1..100 ms.
	for i := 1; i <= 100; i++ {
		samples = append(samples, sample{done: time.Duration(i) * 9 * ms, latency: time.Duration(i) * ms, items: 1})
	}
	// Window 1 (1–2 s): 10 requests of 16 items, one of them failed.
	for i := 0; i < 10; i++ {
		s := sample{done: time.Second + time.Duration(i)*50*ms, latency: 2 * ms, items: 16}
		if i == 3 {
			s.items, s.failed = 0, true
		}
		samples = append(samples, s)
	}
	// In flight when the phase ended: belongs to no window.
	samples = append(samples, sample{done: 2*time.Second + ms, latency: 500 * ms, items: 1})

	ws := windowize(samples, 2*time.Second, 2)
	if ws[0].requests != 100 || ws[0].itemsPerS != 100 || ws[0].p50ms != 50 {
		t.Errorf("window 0 = %+v", ws[0])
	}
	if ws[1].requests != 10 || ws[1].itemsPerS != 9*16 || ws[1].p50ms != 2 {
		t.Errorf("window 1 = %+v", ws[1])
	}
}

// A parent with two overlapping children and a gap: the children's union
// counts once, and a child sticking out of its parent is clipped.
func TestFoldSelfTimes(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(us int64) time.Time { return t0.Add(time.Duration(us) * time.Microsecond) }
	tr := trace{Spans: []span{
		{ID: "root", Name: "client_request", Process: "bench", start: at(0), DurationUS: 1000},
		{ID: "a", Parent: "root", Name: "rpc", Process: "router", start: at(100), DurationUS: 400},      // 100–500
		{ID: "b", Parent: "root", Name: "rpc", Process: "router", start: at(300), DurationUS: 400},      // 300–700, overlaps a
		{ID: "c", Parent: "root", Name: "route", Process: "router", start: at(900), DurationUS: 200},    // 900–1100, sticks out
		{ID: "a1", Parent: "a", Name: "search", Process: "shard-0", start: at(150), DurationUS: 100},    // inside a
		{ID: "orphan", Parent: "gone", Name: "fsync", Process: "shard-1", start: at(0), DurationUS: 50}, // parent never harvested
	}}
	foldSelfTimes(&tr)
	want := map[string]int64{"root": 1000 - 600 - 100, "a": 300, "b": 400, "c": 200, "a1": 100, "orphan": 50}
	for _, s := range tr.Spans {
		if s.SelfUS != want[s.ID] {
			t.Errorf("self time of %s = %d µs, want %d", s.ID, s.SelfUS, want[s.ID])
		}
	}
	if tr.Spans[1].StartUS != 100 {
		t.Errorf("start of a = %d µs after the trace began, want 100", tr.Spans[1].StartUS)
	}

	// Attribution: the layers under the root add up to the root's duration,
	// parallel children sharing the interval they cover; the orphan is out.
	layers := attribute(tr)
	var sum float64
	for _, ms := range layers {
		sum += ms
	}
	if math.Abs(sum-1.0) > 1e-9 {
		t.Errorf("layers add up to %v ms, want the root's 1 ms: %v", sum, layers)
	}
	if layers["fsync"] != 0 {
		t.Errorf("orphan span was attributed: %v", layers)
	}
	// a, b and c cover 700 µs with 1000 µs of durations: weight 0.7 each.
	if got, want := layers["search"], 0.7*0.1; math.Abs(got-want) > 1e-9 {
		t.Errorf("search = %v ms, want %v", got, want)
	}
	if got, want := layers["rpc"], 0.7*(0.3+0.4); math.Abs(got-want) > 1e-9 {
		t.Errorf("rpc = %v ms, want %v", got, want)
	}
	if spanLayer(span{Name: "POST /v1/query", Process: "router"}) != "router_root" ||
		spanLayer(span{Name: "POST /v1/query/batch", Process: "shard-1"}) != "daemon_root" ||
		spanLayer(span{Name: "shard_attempt"}) != "scatter" || spanLayer(span{Name: "ingest_attempt"}) != "replicate" {
		t.Error("spanLayer mapping changed")
	}
}

func TestMeanByLayerTrimsSlowest(t *testing.T) {
	var traces []trace
	for i := 0; i < 20; i++ {
		d := int64(1000)
		if i == 7 {
			d = 1_000_000 // one hiccup
		}
		tr := trace{Spans: []span{{ID: "r", Name: "client_request", start: time.Unix(0, 0), DurationUS: d}}}
		foldSelfTimes(&tr)
		traces = append(traces, tr)
	}
	layers, clientMS := meanByLayer(traces)
	if math.Abs(clientMS-1) > 1e-9 || math.Abs(layers["client_request"]-1) > 1e-9 {
		t.Errorf("mean over the 19 kept traces = %v ms (layers %v), want 1", clientMS, layers)
	}
}

func TestParseProm(t *testing.T) {
	const text = `# HELP caltrain_entries Entries in the serving backend.
# TYPE caltrain_entries gauge
caltrain_entries 100016
caltrain_query_latency_seconds_bucket{le="0.0005"} 12
caltrain_query_latency_seconds_sum 3.25e-01
caltrain_shard_entries{shard="1"} 7 1700000000000
caltrain_build_info{version="dev x",go="go1.24"} 1

`
	got, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"caltrain_entries": 100016,
		`caltrain_query_latency_seconds_bucket{le="0.0005"}`: 12,
		"caltrain_query_latency_seconds_sum":                 0.325,
		`caltrain_shard_entries{shard="1"}`:                  7,
		`caltrain_build_info{version="dev x",go="go1.24"}`:   1,
	}
	if len(got) != len(want) {
		t.Errorf("parsed %d series, want %d: %v", len(got), len(want), got)
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	for _, bad := range []string{"caltrain_entries", "caltrain_entries notanumber"} {
		if _, err := parseProm(strings.NewReader(bad)); err == nil {
			t.Errorf("parseProm(%q) accepted a malformed line", bad)
		}
	}
}

func TestParseMemstats(t *testing.T) {
	const vars = `{"cmdline": ["x"], "memstats": {"Alloc": 5, "TotalAlloc": 1234567, "Mallocs": 890, "PauseTotalNs": 4200, "NumGC": 3, "PauseNs": [1,2]}}`
	got, err := parseMemstats(strings.NewReader(vars))
	if err != nil {
		t.Fatal(err)
	}
	if got != (memStats{Mallocs: 890, TotalAlloc: 1234567, PauseTotalNs: 4200, NumGC: 3}) {
		t.Errorf("memstats = %+v", got)
	}
	if _, err := parseMemstats(strings.NewReader(`{"cmdline": []}`)); err == nil {
		t.Error("a page without memstats was accepted")
	}
}

func TestParseProc(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	const stat = "4242 (caltrain (serve) x) S 1 4242 4242 0 -1 4194560 1500 0 0 0 250 50 0 0 20 0 9 0 12345 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseProcStat(stat)
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 3*time.Second {
		t.Errorf("utime 250 + stime 50 ticks = %v, want 3s", cpu)
	}
	if _, err := parseProcStat("1 (x) S 1"); err == nil {
		t.Error("a truncated stat line was accepted")
	}
	hwm, err := parseVmHWM("Name:\tcaltrain-serve\nVmPeak:\t  900 kB\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n")
	if err != nil {
		t.Fatal(err)
	}
	if hwm != 2048<<10 {
		t.Errorf("VmHWM = %d bytes, want %d", hwm, 2048<<10)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("a status page without VmHWM was accepted")
	}
	steal, all, err := parseMachineStat("cpu  100 5 20 800 10 0 15 50 7 0\ncpu0 1 2 3 4 5 6 7 8 9 10\n")
	if err != nil || steal != 50 || all != 1000 {
		t.Errorf("machine stat = %d stolen of %d, %v; want 50 of 1000", steal, all, err)
	}
	if _, _, err := parseMachineStat("intr 1 2 3\n"); err == nil {
		t.Error("a stat page without a cpu line was accepted")
	}
	// The live files of this process parse too.
	if _, err := procCPU(os.Getpid()); err != nil {
		t.Error(err)
	}
	if hwm, err := procHWM(os.Getpid()); err != nil || hwm <= 0 {
		t.Errorf("own VmHWM = %d, %v", hwm, err)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// BENCHMARK.json and the program name the same workloads and metrics,
// with the same units, in both directions.
func TestBenchmarkFileParity(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, declared []boundedMetric, emitted []metricDef) {
		units := map[string]string{}
		for _, m := range declared {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s metric name %q is not [A-Za-z0-9_.-]+", kind, m.Name)
			}
			if _, dup := units[m.Name]; dup {
				t.Errorf("%s metric %s is declared twice", kind, m.Name)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s metric %s: better = %q", kind, m.Name, m.Better)
			}
			units[m.Name] = m.Unit
		}
		seen := map[string]bool{}
		for _, m := range emitted {
			seen[m.Name] = true
			if unit, ok := units[m.Name]; !ok {
				t.Errorf("%s metric %s is emitted but not in BENCHMARK.json", kind, m.Name)
			} else if unit != m.Unit {
				t.Errorf("%s metric %s: unit %q emitted, %q declared", kind, m.Name, m.Unit, unit)
			}
		}
		for name := range units {
			if !seen[name] {
				t.Errorf("%s metric %s is in BENCHMARK.json but never emitted", kind, name)
			}
		}
	}
	check("end-to-end", bf.EndToEnd, endToEnd)
	check("per-layer", bf.PerLayer, perLayer)
	hasSetup := false
	for _, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("BENCHMARK.json lacks setup_s in s, lower is better")
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %v, the program's default %v", bf.RunSeconds, runSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if !nameRE.MatchString(w.Name) || bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: program %q (%q), BENCHMARK.json %q (%q)", i, w.Name, w.Why, bf.Workloads[i].Name, bf.Workloads[i].Why)
		}
	}
}

// TestSmoke runs every workload for a second on a 2 000-entry database
// through real spawned binaries, then the traced run and the layer pass,
// and checks that every declared metric comes out and every correctness
// check passes. Windows this short hold too few samples for a p95, so
// the run being flagged invalid is expected and not checked.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	bins, err := buildDaemons(root)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := newRunDir(root)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		killAllChildren()
		os.RemoveAll(dir)
	})
	rc := runConfig{bins: bins, dir: dir, seed: 7, seconds: 1, shape: shortShape}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	for _, w := range workloads {
		r, err := runEndToEnd(ctx, rc, w)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, p := range r.Problems {
			t.Errorf("%s: %s", w.Name, p)
		}
		if _, err := contractLine(r, endToEnd); err != nil {
			t.Error(err)
		}
		if thr := r.Metrics["client.throughput_items_s"].Value; r.Attempted == 0 || thr <= 0 {
			t.Errorf("%s: %d requests, throughput %v", w.Name, r.Attempted, thr)
		}
	}

	// A second run of a workload in one invocation (-agree) starts from an
	// empty directory, not from the first run's WAL.
	for _, w := range workloads {
		if _, d, err := prepare(rc, w, "e2e"); err != nil {
			t.Fatal(err)
		} else if _, err := os.Stat(filepath.Join(d.dir, "wal-0")); err == nil {
			t.Errorf("%s: the run directory still holds the previous run's WAL", w.Name)
		}
	}

	w, _ := findWorkload("mixed_cached_ivfpq")
	r, err := runTraced(ctx, rc, w, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range r.Problems {
		t.Errorf("traced %s: %s", w.Name, p)
	}
	if _, err := runLayerPass(rc, r); err != nil {
		t.Fatal(err)
	}
	if _, err := contractLine(r, perLayer); err != nil {
		t.Error(err)
	}
	if share := r.Metrics["obs.span_sum_share"].Value; share < 0.85 || share > 1.0001 {
		t.Errorf("named span layers account for %.3f of the client's latency, want within 15%% of all", share)
	}
	if ratio := r.Metrics["shard.cache.hit_ratio"].Value; ratio <= 0 || ratio >= 1 {
		t.Errorf("cache hit ratio %v, want strictly between 0 and 1", ratio)
	}
	for _, name := range []string{"shard.span.rpc_self_ms", "fingerprint.span.search_ms", "ingest.span.fsync_ms", "client.unattributed_ms"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v: no span of that layer was harvested", name, r.Metrics[name].Value)
		}
	}
}
