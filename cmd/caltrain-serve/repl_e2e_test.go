package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/shard"
)

// freeAddr reserves a loopback port and releases it so a daemon can be
// restarted on the same address — the router's replica list points at
// the address, so a killed replica must come back where it died.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// waitReplState polls a daemon's /v1/repl/status until the sync state
// machine reports want, returning the final status.
func waitReplState(t *testing.T, base, want string) *fingerprint.ReplStatus {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		st, err := fingerprint.NewClient(base, nil).ReplStatus(ctx)
		if err == nil && st.State == want {
			return st
		}
		select {
		case <-ctx.Done():
			t.Fatalf("replica %s never reached %q (last: %+v, err %v)", base, want, st, err)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// routerStats fetches and decodes the router's /v1/stats.
func routerStats(t *testing.T, routerURL string) shard.StatsResponse {
	t.Helper()
	resp, err := http.Get(routerURL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st shard.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestReplicationKillAndResyncEndToEnd is the self-healing acceptance
// test: a 2-replica shard (each replica a real daemon process with its
// own WAL, B following A) behind a repair-enabled router with write
// quorum 1. Replica B is SIGKILLed under sustained ingest+query load —
// quorum writes must never fail — then restarted, and the router's
// anti-entropy loop must drive it back to live and readmit it. After
// readmission B serves, from its own index, every linkage acknowledged
// while it was dead.
func TestReplicationKillAndResyncEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	seedPath := writeTestDB(t, 120)

	// Replica A: replication source (no peer — live from the start).
	dirA := t.TempDir()
	copyFile(t, seedPath, filepath.Join(dirA, "linkage.db"))
	a := spawnDaemon(t,
		"-db", filepath.Join(dirA, "linkage.db"), "-wal", filepath.Join(dirA, "wal"),
		"-addr", "127.0.0.1:0", "-backend", "flat", "-repl",
	)
	baseA := "http://" + waitForAddr(t, a.out)
	waitHealthy(t, fingerprint.NewClient(baseA, nil))

	// Replica B: follows A, on a reserved address it can be reborn on.
	dirB := t.TempDir()
	copyFile(t, seedPath, filepath.Join(dirB, "linkage.db"))
	addrB := freeAddr(t)
	baseB := "http://" + addrB
	spawnB := func() *daemon {
		return spawnDaemon(t,
			"-db", filepath.Join(dirB, "linkage.db"), "-wal", filepath.Join(dirB, "wal"),
			"-addr", addrB, "-backend", "flat", "-repl-peer", baseA,
		)
	}
	b := spawnB()
	waitForAddr(t, b.out)
	waitHealthy(t, fingerprint.NewClient(baseB, nil))
	waitReplState(t, baseB, "live")

	// The router: write quorum 1 (a majority of 2 would make every
	// outage write fail — the whole point is staying available), a
	// cooldown far longer than the test so the read path cannot quietly
	// readmit B behind the repair loop's back, and a fast repair cadence.
	m, err := shard.NewHashMap(1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := shard.NewRouter(m, [][]shard.Replica{{
		shard.NewHTTPReplica(baseA, nil),
		shard.NewHTTPReplica(baseB, nil),
	}},
		shard.WithWriteQuorum(1),
		shard.WithReplicaCooldown(time.Minute),
		shard.WithRepair(shard.RepairOptions{
			After:       300 * time.Millisecond,
			Interval:    100 * time.Millisecond,
			Poll:        25 * time.Millisecond,
			SyncTimeout: 20 * time.Second,
			Logger:      slog.New(slog.NewTextHandler(io.Discard, nil)),
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go rt.RunRepairLoop(ctx)
	routerSrv := httptest.NewServer(rt.Handler())
	defer routerSrv.Close()
	routerClient := fingerprint.NewClient(routerSrv.URL, nil)

	// Each generated entry is far from the seed cluster and from every
	// other generated entry, so it is its own exact nearest neighbour —
	// the strongest possible "this replica really has it" probe.
	next := 0
	gen := func(n int, source string) []fingerprint.IngestEntry {
		entries := make([]fingerprint.IngestEntry, n)
		for i := range entries {
			f := make([]float32, 8)
			f[next%8] = 7 + float32(next)
			entries[i] = fingerprint.IngestEntry{Fingerprint: f, Label: next % 3, Source: source}
			next++
		}
		return entries
	}

	// Phase 1: both replicas up — a routed batch lands on both.
	pre := gen(6, "pre-outage")
	resp, err := routerClient.Ingest(pre)
	if err != nil || resp.Accepted != len(pre) || resp.Failed != 0 || len(resp.DegradedReplicas) != 0 {
		t.Fatalf("pre-outage ingest: %+v, %v", resp, err)
	}

	// Phase 2: SIGKILL B, then sustain ingest and query load through the
	// router. Every write must be acknowledged: quorum 1 is satisfiable
	// by A alone.
	b.sigkill(t)
	var outage []fingerprint.IngestEntry
	for round := 0; round < 4; round++ {
		batch := gen(3, "outage")
		resp, err := routerClient.Ingest(batch)
		if err != nil || resp.Accepted != len(batch) || resp.Failed != 0 {
			t.Fatalf("outage round %d: quorum write failed: %+v, %v", round, resp, err)
		}
		outage = append(outage, batch...)
		out, err := routerClient.Query(batch[0].Fingerprint, batch[0].Label, 1)
		if err != nil || len(out.Matches) != 1 {
			t.Fatalf("outage round %d: routed query failed: %+v, %v", round, out, err)
		}
	}

	// Phase 3: restart B on its old address. Its own startup sync plus
	// the router's repair loop (nudge, poll to live, readmit) must bring
	// it back without any operator action.
	b2 := spawnB()
	waitForAddr(t, b2.out)

	deadline := time.Now().Add(30 * time.Second)
	for routerStats(t, routerSrv.URL).Repair == nil ||
		routerStats(t, routerSrv.URL).Repair.Succeeded == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("repair loop never drove a successful resync: %+v", routerStats(t, routerSrv.URL).Repair)
		}
		time.Sleep(25 * time.Millisecond)
	}
	stB := waitReplState(t, baseB, "live")
	if stB.LastError != "" {
		t.Fatalf("resynced replica reports error: %+v", stB)
	}

	// The sync state is observable as a metric, live == 3.
	metricsResp, err := http.Get(baseB + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	blob, err := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(blob), "caltrain_replica_sync_state 3") {
		t.Fatalf("replica metrics do not report live sync state:\n%s", blob)
	}

	// B serves every linkage acked during (and before) the outage, from
	// its own index, at distance zero.
	clientB := fingerprint.NewClient(baseB, nil)
	waitHealthy(t, clientB)
	st, err := clientB.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if want := 120 + len(pre) + len(outage); st.Entries != want {
		t.Fatalf("resynced replica serves %d entries, want %d", st.Entries, want)
	}
	for i, e := range append(append([]fingerprint.IngestEntry(nil), pre...), outage...) {
		out, err := clientB.Query(e.Fingerprint, e.Label, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Matches) != 1 || out.Matches[0].Source != e.Source || out.Matches[0].Distance > 1e-6 {
			t.Fatalf("resynced replica entry %d (%s): %+v", i, e.Source, out.Matches)
		}
	}

	// And the shard as a whole is healthy again: routed traffic flows.
	single, err := routerClient.Query(outage[0].Fingerprint, outage[0].Label, 1)
	if err != nil || len(single.Matches) != 1 || single.Matches[0].Source != "outage" {
		t.Fatalf("routed query after repair: %+v, %v", single, err)
	}
}

// TestReplicationEmptyReplicaJoins: a brand-new replica with no database
// file at all joins the cluster purely over /v1/repl/* — snapshot
// bootstrap, WAL catchup, live — and serves everything the source holds.
func TestReplicationEmptyReplicaJoins(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real daemon processes")
	}
	seedPath := writeTestDB(t, 90)
	dirA := t.TempDir()
	copyFile(t, seedPath, filepath.Join(dirA, "linkage.db"))
	a := spawnDaemon(t,
		"-db", filepath.Join(dirA, "linkage.db"), "-wal", filepath.Join(dirA, "wal"),
		"-addr", "127.0.0.1:0", "-backend", "flat", "-repl",
	)
	baseA := "http://" + waitForAddr(t, a.out)
	clientA := fingerprint.NewClient(baseA, nil)
	waitHealthy(t, clientA)

	// Grow the source past its on-disk seed so the join must carry both
	// the snapshot and WAL-logged entries.
	extras := make([]fingerprint.IngestEntry, 5)
	for i := range extras {
		f := make([]float32, 8)
		f[i%8] = 9 + float32(i)
		extras[i] = fingerprint.IngestEntry{Fingerprint: f, Label: i % 3, Source: "joined"}
	}
	if _, err := clientA.Ingest(extras); err != nil {
		t.Fatal(err)
	}

	// The new replica: its -db path does not exist. Everything it comes
	// to serve must have arrived over the replication endpoints.
	dirB := t.TempDir()
	b := spawnDaemon(t,
		"-db", filepath.Join(dirB, "linkage.db"), "-wal", filepath.Join(dirB, "wal"),
		"-addr", "127.0.0.1:0", "-backend", "flat", "-repl-peer", baseA,
	)
	baseB := "http://" + waitForAddr(t, b.out)
	clientB := fingerprint.NewClient(baseB, nil)
	waitHealthy(t, clientB)
	stB := waitReplState(t, baseB, "live")

	if !strings.Contains(b.out.String(), "bootstrap:") {
		t.Fatalf("joining replica never announced its snapshot bootstrap:\n%s", b.out.String())
	}
	stA, err := fingerprint.NewClient(baseA, nil).ReplStatus(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stB.Head != stA.Head {
		t.Fatalf("joined replica head %d != source head %d", stB.Head, stA.Head)
	}
	st, err := clientB.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 95 {
		t.Fatalf("joined replica serves %d entries, want 95", st.Entries)
	}
	for i, e := range extras {
		out, err := clientB.Query(e.Fingerprint, e.Label, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Matches) != 1 || out.Matches[0].Source != "joined" || out.Matches[0].Distance > 1e-6 {
			t.Fatalf("joined replica entry %d: %+v", i, out.Matches)
		}
	}
}
