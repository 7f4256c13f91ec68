package fingerprint

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"

	"caltrain/internal/obs"
)

// Wire protocol identity, served on GET /v1/meta.
const (
	// ProtocolVersion is the versioned route prefix both the query
	// daemon and the shard router mount ("/v1/query", "/v1/ingest", …).
	ProtocolVersion = "v1"
	// ServerVersion identifies the serving build to clients.
	ServerVersion = "caltrain-serving/1.0"
)

// Error envelope codes: the machine-readable half of every non-200
// response body. Clients branch on Code; Error carries the human
// explanation.
const (
	// ErrCodeBadRequest marks an undecodable, empty, or invalid request.
	ErrCodeBadRequest = "bad_request"
	// ErrCodeBodyTooLarge marks a request body over the service limit.
	ErrCodeBodyTooLarge = "body_too_large"
	// ErrCodeLimitExceeded marks a k or batch size over the service limit.
	ErrCodeLimitExceeded = "limit_exceeded"
	// ErrCodeMethodNotAllowed marks the wrong HTTP method on a known route.
	ErrCodeMethodNotAllowed = "method_not_allowed"
	// ErrCodeNotFound marks an unknown route.
	ErrCodeNotFound = "not_found"
	// ErrCodeIngestDisabled marks a write against a read-only deployment.
	ErrCodeIngestDisabled = "ingest_disabled"
	// ErrCodeShardUnreachable marks a query whose owning shard has no
	// live replica (router only).
	ErrCodeShardUnreachable = "shard_unreachable"
	// ErrCodeInternal marks a server-side fault (WAL I/O, backend error).
	ErrCodeInternal = "internal"
)

// ErrorEnvelope is the structured JSON body of every non-200 response
// on the /v1 wire protocol: a stable machine-readable Code, the
// human-readable Error, and optional per-code Details (limits,
// offending values).
type ErrorEnvelope struct {
	Code    string         `json:"code"`
	Error   string         `json:"error"`
	Details map[string]any `json:"details,omitempty"`
	// RequestID is the X-Request-Id the failing request carried (or was
	// assigned), so a client-reported error joins against server logs.
	RequestID string `json:"request_id,omitempty"`
	// TraceID names the trace the failing request was recorded under, so
	// a client-reported error joins against /v1/debug/traces as well.
	TraceID string `json:"trace_id,omitempty"`
}

// WriteError writes the structured error envelope with the given HTTP
// status — the error writer shared by the query service and the shard
// router. The request ID is recovered from the observability
// middleware's ResponseWriter wrapper, so every call site stamps
// envelopes without threading it as a parameter.
func WriteError(w http.ResponseWriter, status int, code, format string, args ...any) {
	WriteJSON(w, status, ErrorEnvelope{
		Code:      code,
		Error:     fmt.Sprintf(format, args...),
		RequestID: obs.ResponseRequestID(w),
		TraceID:   obs.ResponseTraceID(w),
	})
}

// WriteAPIError writes a typed rejection as its envelope: its status,
// code and message.
func WriteAPIError(w http.ResponseWriter, ae *APIError) {
	WriteError(w, ae.Status, ae.Code, "%s", ae.Message)
}

// ReadErrorBody reads a bounded snippet of a non-200 response body and
// decodes the error envelope when one is present. msg is the best
// human-readable message either way: the envelope's Error, or the
// trimmed raw snippet when something other than a daemon answered (a
// proxy's HTML 502); env is zero when the body is not an envelope.
func ReadErrorBody(body io.Reader) (env ErrorEnvelope, msg string) {
	snippet, _ := io.ReadAll(io.LimitReader(body, 1024))
	msg = strings.TrimSpace(string(snippet))
	if json.Unmarshal(snippet, &env) == nil && env.Error != "" {
		return env, env.Error
	}
	return ErrorEnvelope{}, msg
}

// APIError is the typed form of a non-200 wire-protocol reply: the
// HTTP status, the envelope's stable Code, and its human-readable
// message. Client methods wrap one into every rejection error — and a
// shard.LocalReplica returns the one its service would have written —
// so callers, the router among them, branch on the code —
//
//	var apiErr *fingerprint.APIError
//	if errors.As(err, &apiErr) && apiErr.Code == fingerprint.ErrCodeLimitExceeded { ... }
//
// or, shorter, with CodeOf — instead of matching message text. A reply
// without an envelope has its Code classified from the HTTP status
// (ClassifyStatus), so the branch works behind a proxy too.
type APIError struct {
	// Status is the HTTP status code of the reply.
	Status int
	// Code is the envelope's stable machine-readable code (one of the
	// ErrCode constants).
	Code string
	// Message is the human-readable explanation.
	Message string
	// Details carries the envelope's optional per-code details.
	Details map[string]any
}

// Error formats the rejection with its status and code.
func (e *APIError) Error() string {
	return fmt.Sprintf("%s (status %d, code %s)", e.Message, e.Status, e.Code)
}

// CodeOf returns the stable error code carried by err (one of the
// ErrCode constants), or "" when err holds no APIError — transport
// faults, cancellations, and nil all answer "".
func CodeOf(err error) string {
	var ae *APIError
	if errors.As(err, &ae) {
		return ae.Code
	}
	return ""
}

// ErrCodeForStatus maps an HTTP status to the envelope code used when
// no more specific code applies (e.g. typing an ingest error via
// IngestError).
func ErrCodeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return ErrCodeBadRequest
	case http.StatusRequestEntityTooLarge:
		return ErrCodeBodyTooLarge
	case http.StatusMethodNotAllowed:
		return ErrCodeMethodNotAllowed
	case http.StatusNotFound:
		return ErrCodeNotFound
	case http.StatusNotImplemented:
		return ErrCodeIngestDisabled
	case http.StatusBadGateway:
		return ErrCodeShardUnreachable
	default:
		return ErrCodeInternal
	}
}

// ClassifyStatus resolves the stable code for a non-200 reply: the
// envelope's own code when one was present, otherwise a classification
// from the HTTP status — where an unmapped envelope-less 4xx (a proxy's
// 403/429) is a client-side rejection, never internal. Client.Open
// classifies every reply through here, and the router forwards the
// result, so codes stay topology-invariant.
func ClassifyStatus(status int, envCode string) string {
	if envCode != "" {
		return envCode
	}
	code := ErrCodeForStatus(status)
	if code == ErrCodeInternal && status < 500 {
		code = ErrCodeBadRequest
	}
	return code
}

// StatusForErrCode maps an envelope code back to the HTTP status a
// single daemon answers it with — the inverse of ErrCodeForStatus, used
// by the router so a forwarded per-result rejection keeps its original
// status as well as its code.
func StatusForErrCode(code string) int {
	switch code {
	case ErrCodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case ErrCodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case ErrCodeNotFound:
		return http.StatusNotFound
	case ErrCodeIngestDisabled:
		return http.StatusNotImplemented
	case ErrCodeShardUnreachable:
		return http.StatusBadGateway
	case ErrCodeInternal:
		return http.StatusInternalServerError
	default: // bad_request, limit_exceeded, unknown
		return http.StatusBadRequest
	}
}

// MetaCapabilities advertises what the deployment behind a base URL can
// do, so clients discover the write path and the topology instead of
// probing for 501s.
type MetaCapabilities struct {
	// Ingest reports whether POST /v1/ingest has a write path behind it.
	Ingest bool `json:"ingest"`
	// Sharded reports whether a scatter-gather router answers, rather
	// than a single daemon.
	Sharded bool `json:"sharded"`
	// Trace reports whether the deployment retains request traces — a
	// -debug-addr sidecar can answer /v1/debug/traces.
	Trace bool `json:"trace"`
	// Replication reports whether the /v1/repl/* endpoints answer:
	// this daemon can serve snapshots and ship WAL records to a
	// follower, and can itself be nudged to resync from a peer.
	Replication bool `json:"replication,omitempty"`
}

// Replication wire types, shared by internal/cluster (which implements
// the endpoints) and internal/shard (whose router drives repair
// through them) so neither imports the other.

// ReplSyncRequest is the JSON body of POST /v1/repl/sync — the repair
// nudge. Peer overrides the replica's configured sync source for this
// run; empty keeps it.
type ReplSyncRequest struct {
	Peer string `json:"peer,omitempty"`
}

// ReplStatus is the JSON body of GET /v1/repl/status (and of the 202
// reply to a sync nudge): where a replica's follower state machine
// stands.
type ReplStatus struct {
	// State is the sync state machine's position: "cold", "snapshot",
	// "catchup", or "live".
	State string `json:"state"`
	// LagSeq is the last observed gap between the peer's head sequence
	// and this replica's, in records; 0 when caught up or never synced.
	LagSeq int64 `json:"lag_seq"`
	// Head is this replica's own next sequence number.
	Head uint64 `json:"head"`
	// Peer is the sync source base URL ("" when none is configured).
	Peer string `json:"peer,omitempty"`
	// Syncs counts completed sync runs; FullSyncs counts the subset
	// that needed a snapshot bootstrap rather than WAL catchup alone.
	Syncs     uint64 `json:"syncs"`
	FullSyncs uint64 `json:"full_syncs"`
	// LastSyncUnix is when the last successful sync finished.
	LastSyncUnix int64 `json:"last_sync_unix,omitempty"`
	// LastError is the most recent sync failure, cleared on success.
	LastError string `json:"last_error,omitempty"`
}

// MetaResponse is the JSON body of GET /v1/meta: server version, wire
// protocol version, serving backend kind, build identity, and
// capability discovery.
type MetaResponse struct {
	Server       string           `json:"server"`
	Protocol     string           `json:"protocol"`
	Backend      string           `json:"backend"`
	Capabilities MetaCapabilities `json:"capabilities"`
	// Build identifies the binary that answered (Go toolchain, VCS
	// revision), so an operator can tell deployed versions apart.
	Build obs.BuildInfo `json:"build"`
}

// Observability is the per-route-set observability configuration:
// request logging, the slow-query threshold, and the metrics toggle.
// The zero value is the always-on baseline — request IDs generated and
// propagated, metrics served, nothing logged.
type Observability = obs.Options

// RouteSet is the one route table of the accountability wire protocol,
// shared by the query daemon (Service) and the shard router (Router) so
// the two can never drift apart. Handler mounts every endpoint under
// the versioned /v1 prefix, the only spelling.
//
//	POST /v1/query        one fingerprint → k nearest neighbours
//	POST /v1/query/batch  many queries, per-query errors
//	POST /v1/ingest       durable batch writes
//	GET  /v1/healthz      liveness
//	GET  /v1/stats        counters + latency histogram
//	GET  /v1/metrics      Prometheus text-format scrape endpoint
//	GET  /v1/meta         server version, backend, capabilities
//
// Unknown routes and wrong methods answer with the structured error
// envelope, like every other failure on the protocol.
//
// Handler wraps the whole table in the observability middleware:
// every request gets an X-Request-Id (generated, or propagated from a
// valid inbound header), echoed on the response and stamped into error
// envelopes; request and slow-query logging follow Observability.
type RouteSet struct {
	Query      http.HandlerFunc
	QueryBatch http.HandlerFunc
	Ingest     http.HandlerFunc
	Healthz    http.HandlerFunc
	Stats      http.HandlerFunc
	// Metrics serves the Prometheus exposition (GET /v1/metrics); nil
	// leaves the route unmounted.
	Metrics http.HandlerFunc
	// Replication endpoints (internal/cluster): nil handlers leave the
	// routes unmounted, which is how a deployment without replication
	// keeps answering 404 on /v1/repl/*.
	//
	//	GET  /v1/repl/snapshot  consistent DB snapshot + covered seq
	//	GET  /v1/repl/wal       WAL records from ?from=<seq>
	//	POST /v1/repl/sync      nudge this replica to resync from a peer
	//	GET  /v1/repl/status    follower state machine position
	ReplSnapshot http.HandlerFunc
	ReplWAL      http.HandlerFunc
	ReplSync     http.HandlerFunc
	ReplStatus   http.HandlerFunc
	// Meta is evaluated per request, so capabilities that change after
	// construction (SetIngester) stay accurate.
	Meta func() MetaResponse
	// Observability configures request logging and the slow-query
	// threshold for the middleware Handler installs.
	Observability Observability
}

// requireMethod wraps h to answer anything but method with a 405
// envelope naming the allowed method. HEAD is accepted wherever GET is
// (load balancers and uptime probes HEAD /healthz; net/http discards
// the body automatically).
func requireMethod(method string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method && !(method == http.MethodGet && r.Method == http.MethodHead) {
			w.Header().Set("Allow", method)
			WriteError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed,
				"%s requires %s, got %s", r.URL.Path, method, r.Method)
			return
		}
		h(w, r)
	}
}

// Handler mounts the route table under /v1, with envelope-shaped
// 404/405 fallbacks.
func (rs RouteSet) Handler() http.Handler {
	mux := http.NewServeMux()
	mount := func(method, path string, h http.HandlerFunc) {
		if h == nil {
			return
		}
		mux.HandleFunc("/"+ProtocolVersion+path, requireMethod(method, h))
	}
	mount(http.MethodPost, "/query", rs.Query)
	mount(http.MethodPost, "/query/batch", rs.QueryBatch)
	mount(http.MethodPost, "/ingest", rs.Ingest)
	mount(http.MethodGet, "/healthz", rs.Healthz)
	mount(http.MethodGet, "/stats", rs.Stats)
	mount(http.MethodGet, "/metrics", rs.Metrics)
	mount(http.MethodGet, "/repl/snapshot", rs.ReplSnapshot)
	mount(http.MethodGet, "/repl/wal", rs.ReplWAL)
	mount(http.MethodPost, "/repl/sync", rs.ReplSync)
	mount(http.MethodGet, "/repl/status", rs.ReplStatus)
	if rs.Meta != nil {
		mount(http.MethodGet, "/meta", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, rs.Meta())
		})
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		WriteError(w, http.StatusNotFound, ErrCodeNotFound, "no such endpoint %s", r.URL.Path)
	})
	return obs.Middleware(rs.Observability, mux)
}
