// Command bench is the end-to-end, layer-attributed benchmark of the
// accountability serving tier. It generates a seeded linkage database,
// splits it with the real caltrain-shard, spawns a real caltrain-router
// in front of two caltrain-serve daemons on loopback, drives them
// closed-loop through fingerprint.Client, checks what they answered, and
// reports what a caller sees (end-to-end metrics) and what each module
// costs (per-layer metrics). See README.md.
//
//	go run -C bench . -seed 1                  every workload, both passes, a table
//	go run -C bench . -agree                   the end-to-end pass twice, compared
//	bash bench/run.sh --workload single_ivf --seed 1 --seconds 12 --trace 0
//	                                           one run, one JSON line (BENCHMARK.json)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"caltrain/internal/kernel"
)

func init() {
	// Children die with the thread that started them (Pdeathsig); keep
	// main on the process's first thread, which lives as long as it does.
	runtime.LockOSThread()
}

// environment is recorded with every result: numbers from this benchmark
// are this machine's.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Kernel     string  `json:"kernel"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       uint64  `json:"seed"`
	Clients    int     `json:"clients"`
	Seconds    float64 `json:"seconds"`
}

// result is bench/out/result.json.
type result struct {
	Environment environment `json:"environment"`
	EndToEnd    []*report   `json:"end_to_end,omitempty"`
	PerLayer    []*report   `json:"per_layer,omitempty"`
}

// benchmarkFile is the part of BENCHMARK.json the program reads: the
// bounds and directions -agree judges by live there and nowhere else.
type benchmarkFile struct {
	RunSeconds float64                      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []boundedMetric              `json:"end_to_end"`
	PerLayer   []boundedMetric              `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmarkFile(root string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// runSeconds is BENCHMARK.json's run_seconds: every entry point times
// phases of this length unless told otherwise, so their numbers compare.
const runSeconds = 12

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all): "+strings.Join(workloadNames(), ", "))
		seed         = flag.Uint64("seed", 1, "seed of the database and of every request stream")
		seconds      = flag.Float64("seconds", runSeconds, "length of the timed phase of each run")
		traceMode    = flag.Int("trace", -1, "0: the end-to-end pass only; 1: the per-layer pass only; default both")
		agree        = flag.Bool("agree", false, "run the end-to-end pass twice and compare the two against BENCHMARK.json's bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || *traceMode < -1 || *traceMode > 1 {
		fmt.Fprintln(os.Stderr, "bench: bad arguments")
		flag.Usage()
		return 2
	}
	selected := workloads
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (have %s)\n", *workloadName, strings.Join(workloadNames(), ", "))
			return 2
		}
		selected = []workload{w}
	}

	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	dir, err := newRunDir(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigs := make(chan os.Signal, 1) // one pending signal is all the handler needs
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		killAllChildren()
		os.RemoveAll(dir)
		os.Exit(130)
	}()
	defer os.RemoveAll(dir)
	defer killAllChildren()

	bins, err := buildDaemons(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rc := runConfig{bins: bins, dir: dir, seed: *seed, seconds: *seconds, shape: fullShape}
	res := &result{Environment: environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Kernel: kernel.Active(),
		GoVersion: runtime.Version(), Commit: commit(root), Seed: *seed, Clients: numClients,
		Seconds: *seconds,
	}}
	outDir := filepath.Join(root, "bench", "out")

	if *agree {
		return runAgree(ctx, rc, selected, root)
	}
	single := *workloadName != "" && *traceMode >= 0
	code := 0
	var layers *report // the layer pass runs once per invocation
	for _, w := range selected {
		if *traceMode != 1 {
			r, err := runEndToEnd(ctx, rc, w)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			res.EndToEnd = append(res.EndToEnd, r)
			printReport(r, endToEnd)
		}
		if *traceMode != 0 {
			r, err := runTraced(ctx, rc, w, outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if layers == nil {
				layers = &report{Metrics: map[string]metric{}}
				snap, err := runLayerPass(rc, layers)
				if err == nil {
					lt := trace{TraceID: snap.TraceID, Spans: fromSnapshot("bench", snap)}
					foldSelfTimes(&lt)
					err = writeJSON(filepath.Join(outDir, "layers.trace.json"), lt)
				}
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
			}
			for name, m := range layers.Metrics {
				r.Metrics[name] = m
			}
			res.PerLayer = append(res.PerLayer, r)
			printReport(r, perLayer)
		}
	}
	for _, r := range append(res.EndToEnd, res.PerLayer...) {
		if !r.ok() {
			code = 1
		}
	}
	if err := writeJSON(filepath.Join(outDir, "result.json"), res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if single {
		// One run of one workload: the BENCHMARK.json contract. The last
		// line of standard output is the result, and printing it is
		// success; whether the outputs were correct is in the line.
		r, defs := res.EndToEnd, endToEnd
		if *traceMode == 1 {
			r, defs = res.PerLayer, perLayer
		}
		line, err := contractLine(r[0], defs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(line)
		return 0
	}
	return code
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// commit names the checked-out revision, or "unknown" outside a git
// work tree.
func commit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printReport writes the run's metrics by name with their units, then
// what failed, to standard error; standard output carries results only.
func printReport(r *report, defs []metricDef) {
	w := os.Stderr
	fmt.Fprintf(w, "\n== %s: %d requests, %d failed", r.Workload, r.Attempted, r.Failed)
	if len(r.Requests) > 0 {
		fmt.Fprintf(w, ", per window %v", r.Requests)
	}
	fmt.Fprintln(w)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	listed := map[string]bool{}
	for _, d := range defs {
		listed[d.Name] = true
	}
	for _, name := range names {
		m := r.Metrics[name]
		mark := " "
		if !listed[name] {
			mark = "·" // measured along the way, reported by the other pass
		}
		fmt.Fprintf(w, "%s %-46s %14.6g %-6s", mark, name, m.Value, m.Unit)
		if s, ok := r.Windows[name]; ok {
			fmt.Fprintf(w, "  [min %.6g, max %.6g]", s.Min, s.Max)
		}
		fmt.Fprintln(w)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "  INCORRECT:", p)
	}
	for _, p := range r.Invalid {
		fmt.Fprintln(w, "  INVALID:", p)
	}
}

// contractLine renders one run as BENCHMARK.json's result object, with
// exactly the metrics of the pass that ran.
func contractLine(r *report, defs []metricDef) (string, error) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: len(r.Problems) == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		m, ok := r.Metrics[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("%s: metric %s was not measured", r.Workload, d.Name)
		}
		out.Metrics[d.Name] = m
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// apart is the distance between two values of one metric as a share of
// the smaller: the same whichever of the two was measured first.
func apart(a, b float64) float64 {
	return math.Abs(a-b) / max(min(math.Abs(a), math.Abs(b)), 1e-12)
}

// runAgree runs the end-to-end pass twice on the same build and holds the
// two against each other by BENCHMARK.json's bounds: the evidence that the
// benchmark repeats, and the procedure for re-baselining. The demoted
// metrics are printed with how far apart they came out, and no verdict.
func runAgree(ctx context.Context, rc runConfig, selected []workload, root string) int {
	bf, err := loadBenchmarkFile(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rows := bf.EndToEnd
	for _, d := range demoted {
		rows = append(rows, boundedMetric{Name: d.Name})
	}
	code := 0
	fmt.Printf("%-20s %-26s %12s %12s %7s %8s\n", "workload", "metric", "first", "second", "apart", "bound")
	for _, w := range selected {
		var runs [2]*report
		for i := range runs {
			if runs[i], err = runEndToEnd(ctx, rc, w); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			if !runs[i].ok() {
				printReport(runs[i], endToEnd)
				code = 1
			}
		}
		for _, m := range rows {
			a, b := runs[0].Metrics[m.Name].Value, runs[1].Metrics[m.Name].Value
			bound := "demoted"
			if m.Bound > 0 {
				bound = fmt.Sprintf("%.0f%%", m.Bound*100)
				if apart(a, b) > m.Bound {
					bound += "  OUTSIDE"
					code = 1
				}
			}
			fmt.Printf("%-20s %-26s %12.6g %12.6g %6.1f%% %8s\n", w.Name, m.Name, a, b, apart(a, b)*100, bound)
		}
	}
	return code
}
