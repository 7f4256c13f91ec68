package main

import (
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/obs"
	"caltrain/internal/shard"
)

var debugAddrRE = regexp.MustCompile(`debug listener \(pprof, expvar, traces\) on (\S+)`)

func waitForDebugAddr(t *testing.T, out *syncBuffer) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m := debugAddrRE.FindStringSubmatch(out.String()); m != nil {
			return m[1]
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("daemon never announced its debug address; output:\n%s", out.String())
	return ""
}

// TestTracePropagationEndToEnd is the tracing acceptance test, the
// production topology in miniature: a database split across two real
// shard daemon processes, fronted by a router in this process. One
// routed batch query must produce ONE trace — same trace ID in every
// process — whose pieces stitch: the router's store holds the root,
// scatter, shard_attempt, and rpc spans, and each shard daemon's debug
// sidecar serves its own part of the trace with the daemon's root span
// parented under the router's rpc span for that replica.
func TestTracePropagationEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}

	// Split a database exactly as caltrain-shard would.
	db, err := fingerprint.NewDB(8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(21, 1))
	for i, f := range index.SynthFingerprints(rng, 200, 8, 8, 0.2) {
		if err := db.Add(fingerprint.Linkage{F: f, Y: i % 6, S: "p1"}); err != nil {
			t.Fatal(err)
		}
	}
	m, err := shard.NewHashMap(2)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := shard.SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}

	// One real daemon process per shard, each with a traces debug
	// sidecar.
	var replicas []shard.Replica
	var debugURLs []string
	for _, part := range parts {
		path := filepath.Join(t.TempDir(), "shard.db")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := part.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		d := spawnDaemon(t, "-db", path, "-addr", "127.0.0.1:0",
			"-debug-addr", "127.0.0.1:0", "-backend", "flat")
		addr := waitForAddr(t, d.out)
		waitHealthy(t, fingerprint.NewClient("http://"+addr, nil))
		replicas = append(replicas, shard.NewHTTPReplica("http://"+addr, nil))
		debugURLs = append(debugURLs, "http://"+waitForDebugAddr(t, d.out))
	}

	// The router runs in-process with its own tracer, as caltrain-router
	// would wire it.
	tracer := obs.NewTracer(obs.TracerOptions{SampleRate: 1})
	rt, err := shard.NewRouter(m, [][]shard.Replica{{replicas[0]}, {replicas[1]}},
		shard.WithFront(fingerprint.WithObservability(fingerprint.Observability{Component: "router", Tracer: tracer})))
	if err != nil {
		t.Fatal(err)
	}
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()

	// One batch query touching both shards.
	body := `{"queries": [
		{"fingerprint": [1,0,0,0,0,0,0,0], "label": 0, "k": 3},
		{"fingerprint": [0,1,0,0,0,0,0,0], "label": 1, "k": 3},
		{"fingerprint": [0,0,1,0,0,0,0,0], "label": 2, "k": 3},
		{"fingerprint": [0,0,0,1,0,0,0,0], "label": 3, "k": 3}
	]}`
	resp, err := http.Post(routerSrv.URL+"/v1/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed batch: status %d", resp.StatusCode)
	}
	traceID := resp.Header.Get(obs.TraceIDHeader)
	if traceID == "" {
		t.Fatal("router response missing X-Trace-Id")
	}

	// Router half of the trace: root → scatter → shard_attempt → rpc.
	snap := tracer.Store().Get(traceID)
	if snap == nil {
		t.Fatalf("trace %s not in the router store", traceID)
	}
	byID := map[string]obs.SpanSnapshot{}
	rpcIDs := map[string]bool{}
	scatters := 0
	for _, sp := range snap.Spans {
		byID[sp.ID] = sp
	}
	for _, sp := range snap.Spans {
		switch sp.Name {
		case "scatter":
			scatters++
		case "rpc":
			rpcIDs[sp.ID] = true
			attempt := byID[sp.Parent]
			if attempt.Name != "shard_attempt" {
				t.Fatalf("rpc parents under %q, want shard_attempt", attempt.Name)
			}
			if byID[attempt.Parent].Name != "scatter" {
				t.Fatalf("shard_attempt parents under %q, want scatter", byID[attempt.Parent].Name)
			}
		}
	}
	if scatters != 1 || len(rpcIDs) != 2 {
		t.Fatalf("router trace: %d scatter, %d rpc spans", scatters, len(rpcIDs))
	}

	// Each daemon's sidecar serves its part of the SAME trace, rooted
	// under one of the router's rpc spans. The daemon stores its half as
	// its request finishes, which races the router's response by a hair —
	// poll briefly.
	for i, base := range debugURLs {
		var remote obs.TraceSnapshot
		deadline := time.Now().Add(5 * time.Second)
		for {
			resp, err := http.Get(base + "/v1/debug/traces/" + traceID)
			if err != nil {
				t.Fatal(err)
			}
			ok := resp.StatusCode == http.StatusOK
			if ok {
				err = json.NewDecoder(resp.Body).Decode(&remote)
			}
			resp.Body.Close()
			if ok {
				if err != nil {
					t.Fatal(err)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("shard %d sidecar never served trace %s (status %d)", i, traceID, resp.StatusCode)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if remote.TraceID != traceID {
			t.Fatalf("shard %d trace ID %s, want %s", i, remote.TraceID, traceID)
		}
		if len(remote.Spans) == 0 {
			t.Fatalf("shard %d trace has no spans", i)
		}
		root := remote.Spans[0]
		for _, sp := range remote.Spans {
			if sp.Name == remote.Root {
				root = sp
				break
			}
		}
		if !rpcIDs[root.Parent] {
			t.Fatalf("shard %d root span parent %q is not one of the router's rpc spans", i, root.Parent)
		}
		found := false
		for _, sp := range remote.Spans {
			if sp.Name == "search" {
				found = true
			}
		}
		if !found {
			t.Fatalf("shard %d trace lacks a search span: %+v", i, remote.Spans)
		}
	}
}
