package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// The daemons under test, built from the checkout the harness runs in.
var daemonPkgs = []string{"./cmd/caltrain-serve", "./cmd/caltrain-router", "./cmd/caltrain-shard"}

const buildDir = ".bench_build"

// findRoot locates the repository root from the working directory: the
// root itself (the BENCHMARK.json command) or bench/ (go run -C bench .).
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "caltrain-serve", "main.go")); err != nil {
			continue
		}
		if _, err := os.Stat(filepath.Join(dir, "bench", "go.mod")); err != nil {
			continue
		}
		return filepath.Abs(dir)
	}
	return "", errors.New("run from the repository root or from bench/: cmd/caltrain-serve and bench/go.mod not found")
}

// buildDaemons compiles the three daemons into <root>/.bench_build/bin.
// go build relinks only what changed, so repeated runs pay a stat pass.
func buildDaemons(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "bin")
	if err := os.MkdirAll(bin, 0o755); err != nil {
		return "", err
	}
	cmd := exec.Command("go", append([]string{"build", "-o", bin + string(os.PathSeparator)}, daemonPkgs...)...)
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build daemons: %v\n%s", err, out)
	}
	return bin, nil
}

// newRunDir creates this invocation's scratch directory (database,
// shards, WALs, daemon logs) under .bench_build, after removing the
// directories of harness processes that no longer exist — a killed run
// cannot clean up after itself.
func newRunDir(root string) (string, error) {
	base := filepath.Join(root, buildDir)
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	stale, _ := filepath.Glob(filepath.Join(base, "run-*"))
	for _, d := range stale {
		pid, err := strconv.Atoi(strings.TrimPrefix(filepath.Base(d), "run-"))
		if err != nil {
			continue
		}
		// A process that is gone, or dead and not yet reaped, has no exe.
		if _, err := os.Readlink(fmt.Sprintf("/proc/%d/exe", pid)); err != nil {
			os.RemoveAll(d)
		}
	}
	dir := filepath.Join(base, fmt.Sprintf("run-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}

// livePgids tracks every child process group, so an interrupt or a
// fatal error can kill them all before the harness exits.
var livePgids = struct {
	sync.Mutex
	m map[int]bool
}{m: map[int]bool{}}

func killAllChildren() {
	livePgids.Lock()
	defer livePgids.Unlock()
	for pgid := range livePgids.m {
		_ = syscall.Kill(-pgid, syscall.SIGKILL)
	}
}

var (
	listenRE = regexp.MustCompile(`^(?:serving|routing) accountability queries on (\S+)`)
	debugRE  = regexp.MustCompile(`^debug listener \([^)]*\) on (\S+)`)
)

// proc is one spawned daemon: its process, the addresses it announced
// on stdout, and its log file.
type proc struct {
	name    string
	bin     string
	args    []string
	logPath string

	cmd     *exec.Cmd
	spawned time.Time
	addr    string // public listener, "host:port"
	debug   string // -debug-addr sidecar, "host:port"
	logDone chan struct{}
}

// start launches the daemon in its own process group and returns once it
// has announced its listeners (the daemon logs them after its index is
// built and its WAL replayed) or exited.
func (p *proc) start(ctx context.Context) error {
	logf, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(p.bin, p.args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	cmd.Stderr = logf
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return err
	}
	p.spawned = time.Now()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("%s: %w", p.name, err)
	}
	p.cmd = cmd
	livePgids.Lock()
	livePgids.m[cmd.Process.Pid] = true
	livePgids.Unlock()

	type addrs struct{ addr, debug string }
	found := make(chan addrs, 1) // one send, never blocks the log reader
	p.logDone = make(chan struct{})
	go func() {
		defer close(p.logDone)
		defer logf.Close()
		var a addrs
		sent := false
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if m := debugRE.FindStringSubmatch(line); m != nil {
				a.debug = m[1]
			}
			if m := listenRE.FindStringSubmatch(line); m != nil && !sent {
				a.addr = m[1]
				found <- a
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stdout)
		if !sent {
			close(found)
		}
	}()
	select {
	case a, ok := <-found:
		if !ok {
			p.stop()
			tail, _ := os.ReadFile(p.logPath)
			return fmt.Errorf("%s exited before listening:\n%s", p.name, lastLines(string(tail), 10))
		}
		p.addr, p.debug = a.addr, a.debug
		return nil
	case <-ctx.Done():
		p.stop()
		return fmt.Errorf("%s: %w before it announced a listener", p.name, ctx.Err())
	}
}

// stop SIGKILLs the daemon's process group and waits for it to end.
func (p *proc) stop() {
	if p.cmd == nil {
		return
	}
	pid := p.cmd.Process.Pid
	_ = syscall.Kill(-pid, syscall.SIGKILL)
	<-p.logDone // Wait closes the stdout pipe; drain it first
	_ = p.cmd.Wait()
	livePgids.Lock()
	delete(livePgids.m, pid)
	livePgids.Unlock()
	p.cmd = nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return strings.Join(lines, "\n")
}

// deployConfig is what differs between workloads' deployments.
type deployConfig struct {
	backend string // flat, ivf or ivfpq
	wal     bool   // shards take writes: -wal … -fsync always
	cache   int    // router -response-cache entries, 0 = off
	traced  bool   // keep the traces the harness asks for
}

const (
	numShards      = 2
	traceStoreSize = 50000
)

// deployment is one router + two shard daemons on loopback.
type deployment struct {
	cfg    deployConfig
	bins   string
	dir    string // holds shards/ (from caltrain-shard), wal-N/, logs
	shards [numShards]*proc
	router *proc

	setup       time.Duration // first spawn → router healthz ok
	daemonReady time.Duration // slowest shard: spawn → listening
	routerReady time.Duration // router spawn → healthz ok
}

// traceArgs turns trace retention off, or on with a store large enough
// to keep a whole traced phase. The head-sampling rate is 0 either way:
// the harness decides per request, through the sampled flag of the
// traceparent it sends, so that one deployment serves an untraced and a
// traced phase and their difference is the cost of tracing.
func traceArgs(traced bool) []string {
	if traced {
		return []string{"-trace-sample-rate", "0", "-trace-store", strconv.Itoa(traceStoreSize)}
	}
	return []string{"-trace-sample-rate", "0", "-trace-store", "-1"}
}

func (d *deployment) shardProc(sid int) *proc {
	args := []string{
		"-db", filepath.Join(d.dir, "shards", fmt.Sprintf("shard-%03d.db", sid)),
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-backend", d.cfg.backend, "-seed", "42",
	}
	if d.cfg.wal {
		// Retraining is off so that every run does the same work.
		args = append(args, "-wal", filepath.Join(d.dir, fmt.Sprintf("wal-%d", sid)),
			"-fsync", "always", "-drift-threshold", "-1")
	}
	args = append(args, traceArgs(d.cfg.traced)...)
	name := fmt.Sprintf("shard-%d", sid)
	return &proc{name: name, bin: filepath.Join(d.bins, "caltrain-serve"), args: args,
		logPath: filepath.Join(d.dir, name+".log")}
}

// start spawns the shard daemons together, then the router once both
// listen, and waits until the router reports every shard healthy.
func (d *deployment) start(ctx context.Context) error {
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	t0 := time.Now()
	errs := make([]error, numShards)
	var wg sync.WaitGroup
	for sid := range d.shards {
		d.shards[sid] = d.shardProc(sid)
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[sid] = d.shards[sid].start(ctx)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		d.stop()
		return err
	}
	d.daemonReady = 0
	for _, p := range d.shards {
		d.daemonReady = max(d.daemonReady, time.Since(p.spawned))
	}

	args := []string{
		"-map", filepath.Join(d.dir, "shards", "shardmap.ctsm"),
		"-addr", "127.0.0.1:0", "-debug-addr", "127.0.0.1:0",
		"-write-quorum", "1", "-timeout", "10s",
	}
	for sid, p := range d.shards {
		args = append(args, "-shard", fmt.Sprintf("%d=%s", sid, p.addr))
	}
	if d.cfg.cache > 0 {
		args = append(args, "-response-cache", strconv.Itoa(d.cfg.cache))
	}
	args = append(args, traceArgs(d.cfg.traced)...)
	d.router = &proc{name: "router", bin: filepath.Join(d.bins, "caltrain-router"), args: args,
		logPath: filepath.Join(d.dir, "router.log")}
	if err := d.router.start(ctx); err != nil {
		d.stop()
		return err
	}
	if err := waitHealthy(ctx, "http://"+d.router.addr); err != nil {
		d.stop()
		return err
	}
	d.routerReady = time.Since(d.router.spawned)
	d.setup = time.Since(t0)
	return nil
}

// restartShard SIGKILLs one shard daemon and starts it again with the
// same flags — the same -db and -wal — on a new ephemeral port. The
// router keeps pointing at the old port: callers query the restarted
// daemon directly.
func (d *deployment) restartShard(ctx context.Context, sid int) error {
	ctx, cancel := context.WithTimeout(ctx, 120*time.Second)
	defer cancel()
	d.shards[sid].stop()
	d.shards[sid] = d.shardProc(sid)
	if err := d.shards[sid].start(ctx); err != nil {
		return err
	}
	return waitHealthy(ctx, "http://"+d.shards[sid].addr)
}

func (d *deployment) stop() {
	for _, p := range append(d.shards[:], d.router) {
		if p != nil {
			p.stop()
		}
	}
}

// procs lists the deployment's daemons, router first.
func (d *deployment) procs() []*proc {
	return append([]*proc{d.router}, d.shards[:]...)
}

func (d *deployment) url() string { return "http://" + d.router.addr }

// waitHealthy polls GET /v1/healthz until it answers 200: on a router
// that means every shard has a live replica.
func waitHealthy(ctx context.Context, base string) error {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("%s/v1/healthz never turned ok: %w", base, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// splitDB runs the real caltrain-shard over dbPath into dir/shards.
func splitDB(bins, dir, dbPath string) error {
	cmd := exec.Command(filepath.Join(bins, "caltrain-shard"),
		"-db", dbPath, "-out", filepath.Join(dir, "shards"),
		"-shards", strconv.Itoa(numShards), "-strategy", "range")
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("caltrain-shard: %v\n%s", err, out)
	}
	return nil
}
