package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"
)

// parseProm reads a Prometheus text exposition into series → value. The
// key is the series as written, labels included:
// `caltrain_shard_entries{shard="0"}`. Comment lines are skipped and a
// malformed sample line is an error.
func parseProm(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		// The value follows the series; label values may hold spaces, so
		// cut after the closing brace when there is one.
		cut := strings.LastIndexByte(line, '}') + 1
		sp := strings.IndexByte(line[cut:], ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		fields := strings.Fields(line[cut+sp:])
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:cut+sp]] = v
	}
	return out, sc.Err()
}

// memStats are the runtime.MemStats fields the benchmark reads from a
// daemon's expvar page.
type memStats struct {
	Mallocs      uint64
	TotalAlloc   uint64
	PauseTotalNs uint64
	NumGC        uint32
}

// parseMemstats extracts memstats from an expvar /debug/vars document.
func parseMemstats(r io.Reader) (memStats, error) {
	var doc struct {
		Memstats *memStats `json:"memstats"`
	}
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return memStats{}, fmt.Errorf("debug/vars: %w", err)
	}
	if doc.Memstats == nil {
		return memStats{}, fmt.Errorf("debug/vars: no memstats")
	}
	return *doc.Memstats, nil
}

// clockTick is USER_HZ, the unit of utime and stime in /proc/<pid>/stat:
// 100 on every Linux configuration Go supports.
const clockTick = 10 * time.Millisecond

// parseProcStat returns utime+stime from the content of /proc/<pid>/stat.
func parseProcStat(stat string) (time.Duration, error) {
	// The command name (field 2) may hold spaces and parentheses; the
	// numeric fields start after the last ')'.
	i := strings.LastIndexByte(stat, ')')
	fields := strings.Fields(stat[i+1:])
	if i < 0 || len(fields) < 13 {
		return 0, fmt.Errorf("proc stat %q: too short", stat)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64) // field 14
	stime, err2 := strconv.ParseInt(fields[12], 10, 64) // field 15
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat %q: bad utime/stime", stat)
	}
	return time.Duration(utime+stime) * clockTick, nil
}

// parseVmHWM returns the peak resident set in bytes from the content of
// /proc/<pid>/status.
func parseVmHWM(status string) (int64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseInt(f[0], 10, 64)
				return kb << 10, err
			}
		}
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// parseMachineStat returns, from the content of /proc/stat, the ticks the
// hypervisor took from this machine's processors (steal) and all ticks
// they have counted.
func parseMachineStat(stat string) (steal, all int64, err error) {
	line, _, _ := strings.Cut(stat, "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, fmt.Errorf("proc stat %q: no cpu line", line)
	}
	// user nice system idle iowait irq softirq steal; guest time is part
	// of user time already.
	for i, f := range fields[1:9] {
		v, err := strconv.ParseInt(f, 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("proc stat %q: %w", line, err)
		}
		all += v
		if i == 7 {
			steal = v
		}
	}
	return steal, all, nil
}

func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(b))
}

func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseVmHWM(string(b))
}

func httpGet(ctx context.Context, url string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return resp.Body, nil
}

// procScrape is everything read from one daemon at one instant.
type procScrape struct {
	prom map[string]float64
	mem  memStats
	cpu  time.Duration
	hwm  int64
}

// scrape is the deployment (router first, then the shards, as in
// deployment.procs) and the harness itself at one instant.
type scrape struct {
	procs   []procScrape
	selfCPU time.Duration
	// Ticks of all processors of the machine, and those of them stolen.
	stolen, ticks int64
}

func takeScrape(ctx context.Context, d *deployment) (scrape, error) {
	var s scrape
	for _, p := range d.procs() {
		var ps procScrape
		body, err := httpGet(ctx, "http://"+p.addr+"/v1/metrics")
		if err != nil {
			return s, err
		}
		ps.prom, err = parseProm(body)
		body.Close()
		if err != nil {
			return s, fmt.Errorf("%s: %w", p.name, err)
		}
		if body, err = httpGet(ctx, "http://"+p.debug+"/debug/vars"); err != nil {
			return s, err
		}
		ps.mem, err = parseMemstats(body)
		body.Close()
		if err != nil {
			return s, fmt.Errorf("%s: %w", p.name, err)
		}
		if ps.cpu, err = procCPU(p.pid()); err != nil {
			return s, err
		}
		if ps.hwm, err = procHWM(p.pid()); err != nil {
			return s, err
		}
		s.procs = append(s.procs, ps)
	}
	var err error
	if s.selfCPU, err = procCPU(os.Getpid()); err != nil {
		return s, err
	}
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return s, err
	}
	s.stolen, s.ticks, err = parseMachineStat(string(b))
	return s, err
}

// promDelta is how far one series moved between two scrapes, added over
// the given daemons; a series a daemon does not export counts as 0.
func promDelta(a, b scrape, series string, procs ...int) float64 {
	var sum float64
	for _, i := range procs {
		sum += b.procs[i].prom[series] - a.procs[i].prom[series]
	}
	return sum
}

// peakRSSMiB adds the daemons' peak resident sets.
func (s scrape) peakRSSMiB() float64 {
	var hwm int64
	for _, p := range s.procs {
		hwm += p.hwm
	}
	return float64(hwm) / (1 << 20)
}
