package fingerprint

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"caltrain/internal/obs"
)

// Client is the one JSON-over-HTTP caller of the /v1 wire protocol: the
// public query client, the router's hop to a shard daemon
// (shard.HTTPReplica) and a replica's hop to its sync peer
// (internal/cluster) are all this type, so a change to how a request is
// built, traced or turned into an error has one place to enter. A single
// daemon and a shard router serve the same protocol; the client cannot
// tell them apart.
//
// Every method has a context-taking variant (QueryCtx, IngestCtx, …) so
// callers can cancel in-flight accountability queries; the plain forms
// use context.Background. A reply outside 2xx comes back as a wrapped
// *APIError — branch on it with errors.As or CodeOf.
type Client struct {
	baseURL string
	http    *http.Client
}

// NewClient constructs a client for the service at baseURL. httpClient may
// be nil for http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{baseURL: strings.TrimSuffix(baseURL, "/"), http: httpClient}
}

// Open sends one request to the /v1 route at path — a GET when in is
// nil, otherwise a POST of in as JSON — and returns the 2xx reply with
// its body unread: the caller reads it and closes it. The streaming
// replication fetches call this directly; everything else goes through
// do. The context's request ID and trace context ride along, so a
// caller already inside a traced request — the router calling a shard, a
// replica calling its peer — keeps one ID across the hop and the
// receiving daemon's spans parent under the caller's trace. Any other
// reply is consumed and returned as a wrapped *APIError: the envelope's
// stable code and message when the body carries one, the code
// classified from the HTTP status when it does not (a proxy's HTML 502).
func (c *Client) Open(ctx context.Context, path string, in any) (*http.Response, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if in != nil {
		payload, err := json.Marshal(in)
		if err != nil {
			return nil, fmt.Errorf("fingerprint: encode %s request: %w", path, err)
		}
		method, body = http.MethodPost, bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+"/"+ProtocolVersion+path, body)
	if err != nil {
		return nil, fmt.Errorf("fingerprint: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := obs.RequestIDFrom(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	if sc := obs.SpanContextFrom(ctx); sc.Valid() {
		req.Header.Set(obs.TraceParentHeader, sc.TraceParent())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, fmt.Errorf("fingerprint: %w", err)
	}
	if resp.StatusCode/100 != 2 {
		defer drainClose(resp.Body)
		env, msg := ReadErrorBody(resp.Body)
		if msg == "" {
			msg = resp.Status
		}
		return nil, fmt.Errorf("%s %s: %w", method, req.URL.Path, &APIError{
			Status:  resp.StatusCode,
			Code:    ClassifyStatus(resp.StatusCode, env.Code),
			Message: msg,
			Details: env.Details,
		})
	}
	return resp, nil
}

// drainClose reads what is left of a reply before closing it. A JSON
// decoder stops at the end of the value, short of EOF on any reply too
// large for a Content-Length; closing there makes the Transport drop the
// connection, and the router makes one POST per shard per batch — a
// fresh TCP dial every time. The drain is bounded so a peer that never
// stops sending costs a connection, not a goroutine.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 1<<20))
	body.Close()
}

// do is one JSON round trip: Open, decode the reply into a T.
func do[T any](ctx context.Context, c *Client, path string, in any) (*T, error) {
	resp, err := c.Open(ctx, path, in)
	if err != nil {
		return nil, err
	}
	defer drainClose(resp.Body)
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("fingerprint: decode %s reply: %w", path, err)
	}
	return &out, nil
}

// Meta fetches the server's /v1/meta identity (backend kind, write and
// sharding capabilities).
func (c *Client) Meta() (*MetaResponse, error) { return c.MetaCtx(context.Background()) }

// MetaCtx is Meta with a caller-supplied context.
func (c *Client) MetaCtx(ctx context.Context) (*MetaResponse, error) {
	return do[MetaResponse](ctx, c, "/meta", nil)
}

// Query posts a misprediction's fingerprint and returns the nearest
// same-class training instances.
func (c *Client) Query(f Fingerprint, label, k int) (*QueryResponse, error) {
	return c.QueryCtx(context.Background(), f, label, k)
}

// QueryCtx is Query with a caller-supplied context: cancel it to abandon
// an in-flight accountability query.
func (c *Client) QueryCtx(ctx context.Context, f Fingerprint, label, k int) (*QueryResponse, error) {
	return do[QueryResponse](ctx, c, "/query", QueryRequest{Fingerprint: f, Label: label, K: k})
}

// QueryBatch posts many queries in one round trip. Results come back in
// request order; individual failures surface per-result, not as a batch
// error.
func (c *Client) QueryBatch(reqs []QueryRequest) (*BatchResponse, error) {
	return c.QueryBatchCtx(context.Background(), reqs)
}

// QueryBatchCtx is QueryBatch with a caller-supplied context.
func (c *Client) QueryBatchCtx(ctx context.Context, reqs []QueryRequest) (*BatchResponse, error) {
	return do[BatchResponse](ctx, c, "/query/batch", BatchRequest{Queries: reqs})
}

// Ingest posts a batch of new linkages to the service's write path —
// against a single daemon the reply reports its new entry count, against
// a router it reports quorum acceptance per shard. The batch is
// all-or-nothing at each daemon: a validation error rejects it whole.
func (c *Client) Ingest(entries []IngestEntry) (*IngestResponse, error) {
	return c.IngestCtx(context.Background(), entries)
}

// IngestCtx is Ingest with a caller-supplied context.
func (c *Client) IngestCtx(ctx context.Context, entries []IngestEntry) (*IngestResponse, error) {
	return do[IngestResponse](ctx, c, "/ingest", IngestRequest{Entries: entries})
}

// Healthz reports whether the service at baseURL is up.
func (c *Client) Healthz() error { return c.HealthzCtx(context.Background()) }

// HealthzCtx is Healthz with a caller-supplied context.
func (c *Client) HealthzCtx(ctx context.Context) error {
	_, err := do[struct{}](ctx, c, "/healthz", nil)
	return err
}

// Metrics fetches the service's Prometheus exposition from
// /v1/metrics, returned as the raw text-format body.
func (c *Client) Metrics() (string, error) { return c.MetricsCtx(context.Background()) }

// MetricsCtx is Metrics with a caller-supplied context.
func (c *Client) MetricsCtx(ctx context.Context) (string, error) {
	resp, err := c.Open(ctx, "/metrics", nil)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("fingerprint: read /metrics reply: %w", err)
	}
	return string(body), nil
}

// Stats fetches the service's /stats counters.
func (c *Client) Stats() (*StatsResponse, error) { return c.StatsCtx(context.Background()) }

// StatsCtx is Stats with a caller-supplied context.
func (c *Client) StatsCtx(ctx context.Context) (*StatsResponse, error) {
	return do[StatsResponse](ctx, c, "/stats", nil)
}

// ReplSync nudges the daemon's sync state machine (POST /v1/repl/sync)
// to resync from peer — a base URL; empty keeps the daemon's configured
// source — and returns its status at accept time: the sync itself runs
// on. A daemon started without replication answers not_found.
func (c *Client) ReplSync(ctx context.Context, peer string) (*ReplStatus, error) {
	return do[ReplStatus](ctx, c, "/repl/sync", ReplSyncRequest{Peer: peer})
}

// ReplStatus fetches where the daemon's sync state machine stands
// (GET /v1/repl/status).
func (c *Client) ReplStatus(ctx context.Context) (*ReplStatus, error) {
	return do[ReplStatus](ctx, c, "/repl/status", nil)
}
