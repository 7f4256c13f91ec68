// Package cluster is the self-healing replication subsystem of the
// accountability serving tier (§IV-C): it turns the per-replica WAL
// (internal/ingest) into a replication transport, so a degraded or
// brand-new replica repairs itself over HTTP instead of waiting for an
// operator to copy files or re-run an offline split.
//
// Three pieces:
//
//   - Source: the serving side. Every replication-enabled daemon
//     exposes GET /v1/repl/snapshot (a consistent database snapshot
//     plus the sequence number it covers) and GET /v1/repl/wal?from=N
//     (acknowledged WAL records from an arbitrary sequence onward,
//     framed exactly like segment files). Open WAL cursors pin
//     segments against compaction (see ingest.WAL.Truncate), so a
//     snapshot+truncate landing mid-fetch cannot cut a follower off.
//
//   - Syncer: the follower state machine, cold → snapshot → catchup →
//     live. An incremental sync ships WAL records straight into the
//     store's idempotent apply path; a follower whose position has
//     been compacted away (sequence gap) falls back to a snapshot
//     bootstrap — fetch, load, rebuild the serving backend, hand off
//     via Service.SetSearcher, then catch up the tail. The Syncer is
//     the service's one long-lived Ingester: external writes are
//     rejected while a sync runs (the router re-marks the replica
//     degraded, keeping it out of quorums until it is consistent).
//
//   - The repair driver lives in internal/shard: the router notices a
//     replica degraded past a threshold, POSTs a /v1/repl/sync nudge
//     naming a healthy same-shard peer, polls /v1/repl/status until
//     the state machine reports live, and readmits the replica.
//
// Progress is observable: caltrain_replica_sync_state and
// caltrain_replica_sync_lag_seq gauges on the replica's own metrics,
// sync counters on /v1/repl/status, and repair spans in the router's
// tracer.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"caltrain/internal/fingerprint"
)

// decodeJSON decodes one bounded JSON document.
func decodeJSON(r io.Reader, v any) error {
	return json.NewDecoder(io.LimitReader(r, 1<<20)).Decode(v)
}

// Replication wire headers.
const (
	// HeaderReplSeq carries the sequence number a snapshot response
	// covers: the follower resumes WAL shipping from it.
	HeaderReplSeq = "X-Caltrain-Repl-Seq"
	// HeaderReplHead carries the source's head sequence at cursor-open
	// time on a WAL response: head minus the follower's own position
	// is the lag, and records past the shipped batch are fetched by
	// looping.
	HeaderReplHead = "X-Caltrain-Repl-Head"
)

// FetchSnapshot pulls a peer's consistent snapshot: the database and
// the sequence number it covers. A brand-new replica bootstraps from
// this — no shared filesystem, no offline re-split — and the Syncer
// uses it for full resyncs.
func FetchSnapshot(ctx context.Context, peer *fingerprint.Client) (*fingerprint.DB, uint64, error) {
	resp, err := peer.Open(ctx, "/repl/snapshot", nil)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: snapshot: %w", err)
	}
	defer resp.Body.Close()
	var body io.Reader = resp.Body
	if resp.ContentLength >= 0 { // LoadDB holds the header to it and sizes its image once
		body = io.LimitReader(resp.Body, resp.ContentLength)
	}
	db, err := fingerprint.LoadDB(body)
	if err != nil {
		return nil, 0, fmt.Errorf("cluster: snapshot: %w", err)
	}
	seq := uint64(db.Len())
	if h := resp.Header.Get(HeaderReplSeq); h != "" {
		if v, err := strconv.ParseUint(h, 10, 64); err == nil {
			seq = v
		}
	}
	return db, seq, nil
}

// fetchWAL opens a peer's WAL ship stream from the given sequence.
// The caller owns closing the returned body; head is the peer's head
// sequence at cursor-open time.
func fetchWAL(ctx context.Context, peer *fingerprint.Client, from uint64) (uint64, io.ReadCloser, error) {
	resp, err := peer.Open(ctx, "/repl/wal?from="+strconv.FormatUint(from, 10), nil)
	if err != nil {
		return 0, nil, fmt.Errorf("cluster: wal fetch: %w", err)
	}
	head, err := strconv.ParseUint(resp.Header.Get(HeaderReplHead), 10, 64)
	if err != nil {
		resp.Body.Close()
		return 0, nil, fmt.Errorf("cluster: wal fetch: bad %s header %q", HeaderReplHead, resp.Header.Get(HeaderReplHead))
	}
	return head, resp.Body, nil
}

// normalizePeer turns an operator-supplied replica address into a base
// URL, defaulting the scheme like the router's -shard flag does.
func normalizePeer(addr string) string {
	if addr == "" {
		return ""
	}
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	if u, err := url.Parse(addr); err == nil && u.Host != "" {
		return strings.TrimSuffix(addr, "/")
	}
	return addr
}

// defaultHTTPClient bounds replication transfers: generous enough for
// a multi-gigabyte snapshot stream, finite so a hung peer cannot wedge
// a sync forever.
func defaultHTTPClient() *http.Client {
	return &http.Client{Timeout: 10 * time.Minute}
}
