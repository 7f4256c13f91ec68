package shard

import (
	"context"
	"errors"
	"net/http"

	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
)

// Replica is one serving endpoint of a shard: a process (or in-process
// service) holding that shard's linkage database. A shard may have
// several replicas serving identical data; the router prefers healthy
// ones and fails over between them.
//
// A replica that answered but refused reports a *fingerprint.APIError,
// whichever kind it is; see rejection for what the router reads from it.
type Replica interface {
	// QueryBatch executes a sub-batch against the replica.
	QueryBatch(ctx context.Context, reqs []fingerprint.QueryRequest) (*fingerprint.BatchResponse, error)
	// Healthz reports liveness.
	Healthz(ctx context.Context) error
	// Stats fetches the replica's serving counters.
	Stats(ctx context.Context) (*fingerprint.StatsResponse, error)
	// Addr names the replica for health reports and error messages.
	Addr() string
}

// IngestReplica is the optional write extension of Replica: a replica
// that accepts ingest batches. Both HTTPReplica and LocalReplica
// implement it; the router's write fan-out counts a replica that does
// not as a failed acknowledgment.
type IngestReplica interface {
	Replica
	// Ingest durably applies a batch of new linkages on the replica.
	Ingest(ctx context.Context, entries []fingerprint.IngestEntry) (*fingerprint.IngestResponse, error)
}

// SyncableReplica is the optional repair extension of Replica: a
// replica whose daemon runs the internal/cluster sync state machine.
// The router's anti-entropy repair loop drives such replicas back to
// consistency after a degradation; replicas without the extension (or
// whose daemons answer 404 — replication not enabled) are left to the
// write fan-out's best effort.
type SyncableReplica interface {
	Replica
	// SyncFrom nudges the replica to resync from peer (a base URL; empty
	// keeps the replica's configured source).
	SyncFrom(ctx context.Context, peer string) (*fingerprint.ReplStatus, error)
	// SyncStatus reports the replica's sync state machine.
	SyncStatus(ctx context.Context) (*fingerprint.ReplStatus, error)
}

// rejection returns the reply behind err when a replica answered 4xx:
// it is alive and the request itself is unacceptable. The router treats
// that as a definitive response — no cooldown, no failover: every
// replica of a shard serves the same data and limits, so a retry would
// be rejected the same way — and forwards the reply's Code as its own.
// A 5xx is a replica fault like any connection error, and answers nil:
// cooldown and failover apply.
func rejection(err error) *fingerprint.APIError {
	var ae *fingerprint.APIError
	if errors.As(err, &ae) && ae.Status >= 400 && ae.Status < 500 {
		return ae
	}
	return nil
}

// HTTPReplica reaches a shard daemon (caltrain-serve) over HTTP: a
// fingerprint.Client under a name, each call a span of its own.
type HTTPReplica struct {
	base string
	c    *fingerprint.Client
}

// NewHTTPReplica constructs a replica for the daemon at baseURL.
// httpClient may be nil for http.DefaultClient.
func NewHTTPReplica(baseURL string, httpClient *http.Client) *HTTPReplica {
	return &HTTPReplica{base: baseURL, c: fingerprint.NewClient(baseURL, httpClient)}
}

// Addr returns the replica's base URL.
func (r *HTTPReplica) Addr() string { return r.base }

// rpc starts the span one call to the daemon runs under. The client puts
// the returned context's span on the wire as a traceparent header, so
// the daemon's middleware parents its whole span tree under this span,
// joining the two processes' traces.
func (r *HTTPReplica) rpc(ctx context.Context, path string) (context.Context, *obs.Span) {
	ctx, span := obs.StartSpan(ctx, "rpc")
	span.SetAttr("replica", r.base)
	span.SetAttr("path", path)
	return ctx, span
}

// QueryBatch posts a sub-batch to the daemon's /v1/query/batch.
func (r *HTTPReplica) QueryBatch(ctx context.Context, reqs []fingerprint.QueryRequest) (*fingerprint.BatchResponse, error) {
	ctx, span := r.rpc(ctx, "/v1/query/batch")
	defer span.End()
	out, err := r.c.QueryBatchCtx(ctx, reqs)
	span.SetError(err)
	return out, err
}

// Ingest posts a batch of new linkages to the daemon's /v1/ingest.
func (r *HTTPReplica) Ingest(ctx context.Context, entries []fingerprint.IngestEntry) (*fingerprint.IngestResponse, error) {
	ctx, span := r.rpc(ctx, "/v1/ingest")
	defer span.End()
	out, err := r.c.IngestCtx(ctx, entries)
	span.SetError(err)
	return out, err
}

// Healthz checks the daemon's /v1/healthz.
func (r *HTTPReplica) Healthz(ctx context.Context) error {
	ctx, span := r.rpc(ctx, "/v1/healthz")
	defer span.End()
	err := r.c.HealthzCtx(ctx)
	span.SetError(err)
	return err
}

// Stats fetches the daemon's /v1/stats counters.
func (r *HTTPReplica) Stats(ctx context.Context) (*fingerprint.StatsResponse, error) {
	ctx, span := r.rpc(ctx, "/v1/stats")
	defer span.End()
	out, err := r.c.StatsCtx(ctx)
	span.SetError(err)
	return out, err
}

// SyncFrom POSTs a /v1/repl/sync nudge to the daemon, telling its sync
// state machine to resync from peer.
func (r *HTTPReplica) SyncFrom(ctx context.Context, peer string) (*fingerprint.ReplStatus, error) {
	ctx, span := r.rpc(ctx, "/v1/repl/sync")
	defer span.End()
	out, err := r.c.ReplSync(ctx, peer)
	span.SetError(err)
	return out, err
}

// SyncStatus fetches the daemon's /v1/repl/status.
func (r *HTTPReplica) SyncStatus(ctx context.Context) (*fingerprint.ReplStatus, error) {
	ctx, span := r.rpc(ctx, "/v1/repl/status")
	defer span.End()
	out, err := r.c.ReplStatus(ctx)
	span.SetError(err)
	return out, err
}

// LocalReplica serves a shard from an in-process query service — no
// network hop. A sharded serve.Deployment and the scaling benchmarks
// shard this way.
type LocalReplica struct {
	name string
	svc  *fingerprint.Service
}

// NewLocalReplica wraps an in-process query service as a replica.
func NewLocalReplica(name string, svc *fingerprint.Service) *LocalReplica {
	return &LocalReplica{name: name, svc: svc}
}

// Addr returns the replica's configured name.
func (r *LocalReplica) Addr() string { return r.name }

// QueryBatch executes the sub-batch directly against the service, which
// holds it to its own batch limit as its HTTP handler would. The
// context's trace (request ID, stage timings) carries through, so an
// in-process deployment traces like a networked one.
func (r *LocalReplica) QueryBatch(ctx context.Context, reqs []fingerprint.QueryRequest) (*fingerprint.BatchResponse, error) {
	if ae := r.svc.BatchLimit(len(reqs)); ae != nil {
		return nil, ae
	}
	return r.svc.RunBatchCtx(ctx, reqs), nil
}

// Ingest applies the batch directly through the service's write path,
// held to the service's batch limit as over HTTP. An error is the reply
// the service would have written over HTTP, so the router's quorum
// accounting treats local and HTTP replicas alike (a validation
// rejection is definitive, a store fault is not).
func (r *LocalReplica) Ingest(ctx context.Context, entries []fingerprint.IngestEntry) (*fingerprint.IngestResponse, error) {
	resp, err := r.svc.RunIngestCtx(ctx, entries)
	if err != nil {
		return nil, fingerprint.IngestError(err)
	}
	return resp, nil
}

// Healthz always succeeds: an in-process service lives as long as the
// router.
func (r *LocalReplica) Healthz(context.Context) error { return nil }

// Stats snapshots the service's counters.
func (r *LocalReplica) Stats(context.Context) (*fingerprint.StatsResponse, error) {
	st := r.svc.StatsSnapshot()
	return &st, nil
}
