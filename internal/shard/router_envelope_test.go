package shard

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/ingest"
)

// doRawRouter fires one request at the router handler and decodes the
// error envelope when the response is not a 200.
func doRawRouter(t *testing.T, h http.Handler, method, path, body string) (int, fingerprint.ErrorEnvelope) {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var env fingerprint.ErrorEnvelope
	if rec.Code != http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s %s: error body is not an envelope: %v (%q)", method, path, err, rec.Body.String())
		}
	}
	return rec.Code, env
}

// TestRouterErrorEnvelope is the wire-contract table for the router
// handler: the same structured {code, error} envelope a single daemon
// writes — including the router-only failure mode, a query whose label's
// shard is unreachable, and the unversioned spelling of a route, which
// is now just an unknown route.
func TestRouterErrorEnvelope(t *testing.T) {
	db := testDB(t, 8, 200, 8)
	rt, _ := shardedFixture(t, db, 2, WithFront(fingerprint.WithMaxBodyBytes(512), fingerprint.WithMaxBatch(2)))
	h := rt.Handler()

	// A separate router whose every replica is a closed port: every
	// label's shard is unreachable.
	m, err := NewHashMap(2)
	if err != nil {
		t.Fatal(err)
	}
	deadReplicas := [][]Replica{
		{NewHTTPReplica("http://127.0.0.1:1", nil)},
		{NewHTTPReplica("http://127.0.0.1:1", nil)},
	}
	deadRt, err := NewRouter(m, deadReplicas)
	if err != nil {
		t.Fatal(err)
	}
	deadH := deadRt.Handler()

	bigBody := `{"fingerprint":[` + strings.Repeat("0.125,", 400) + `0.125],"label":0,"k":3}`
	cases := []struct {
		name       string
		handler    http.Handler
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"oversized body", h, "POST", "/v1/query", bigBody, http.StatusRequestEntityTooLarge, fingerprint.ErrCodeBodyTooLarge},
		{"bad k", h, "POST", "/v1/query", `{"fingerprint":[0,0,0,0,0,0,0,0],"label":0,"k":-3}`, http.StatusBadRequest, fingerprint.ErrCodeBadRequest},
		{"malformed json", h, "POST", "/v1/query", `{not json`, http.StatusBadRequest, fingerprint.ErrCodeBadRequest},
		{"empty batch", h, "POST", "/v1/query/batch", `{"queries":[]}`, http.StatusBadRequest, fingerprint.ErrCodeBadRequest},
		{"batch over limit", h, "POST", "/v1/query/batch", `{"queries":[{"k":1},{"k":1},{"k":1}]}`, http.StatusBadRequest, fingerprint.ErrCodeLimitExceeded},
		{"empty ingest", h, "POST", "/v1/ingest", `{"entries":[]}`, http.StatusBadRequest, fingerprint.ErrCodeBadRequest},
		{"ingest mixed dims", h, "POST", "/v1/ingest", `{"entries":[{"fingerprint":[0,0,0,0,0,0,0,0]},{"fingerprint":[0]}]}`, http.StatusBadRequest, fingerprint.ErrCodeBadRequest},
		{"method not allowed", h, "GET", "/v1/query", "", http.StatusMethodNotAllowed, fingerprint.ErrCodeMethodNotAllowed},
		{"unknown route", h, "GET", "/v1/nope", "", http.StatusNotFound, fingerprint.ErrCodeNotFound},
		{"unversioned spelling", h, "POST", "/query", `{"fingerprint":[0,0,0,0,0,0,0,0],"label":0,"k":3}`, http.StatusNotFound, fingerprint.ErrCodeNotFound},
		{"unreachable label shard", deadH, "POST", "/v1/query", `{"fingerprint":[0,0,0,0,0,0,0,0],"label":3,"k":2}`, http.StatusBadGateway, fingerprint.ErrCodeShardUnreachable},
	}
	for _, c := range cases {
		status, env := doRawRouter(t, c.handler, c.method, c.path, c.body)
		if status != c.wantStatus {
			t.Errorf("%s (%s %s): status %d, want %d", c.name, c.method, c.path, status, c.wantStatus)
			continue
		}
		if env.Code != c.wantCode {
			t.Errorf("%s (%s %s): code %q, want %q (error %q)", c.name, c.method, c.path, env.Code, c.wantCode, env.Error)
		}
		if env.Error == "" {
			t.Errorf("%s (%s %s): envelope has no error message", c.name, c.method, c.path)
		}
	}
}

// TestRouterV1RoutesAndMeta: the router serves the versioned protocol
// with sharded capability discovery.
func TestRouterV1RoutesAndMeta(t *testing.T) {
	db := testDB(t, 8, 200, 8)
	rt, _ := shardedFixture(t, db, 2)
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	var meta fingerprint.MetaResponse
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if meta.Backend != "router" || !meta.Capabilities.Sharded || !meta.Capabilities.Ingest {
		t.Fatalf("router meta: %+v", meta)
	}

	body := `{"queries":[{"fingerprint":[0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1],"label":1,"k":2}]}`
	res, err := srv.Client().Post(srv.URL+"/v1/query/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var batch fingerprint.BatchResponse
	if err := json.NewDecoder(res.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusOK || len(batch.Results) != 1 || batch.Results[0].Error != "" {
		t.Fatalf("/v1/query/batch: status %s results %+v", res.Status, batch.Results)
	}

	// The client works against the router exactly as against a daemon.
	client := fingerprint.NewClient(srv.URL, srv.Client())
	cmeta, err := client.Meta()
	if err != nil || cmeta.Backend != "router" {
		t.Fatalf("client meta via router: %+v %v", cmeta, err)
	}
	if err := client.Healthz(); err != nil {
		t.Fatal(err)
	}
}

// TestRouterErrorCodeParity: a routed rejection answers with the same
// stable code a single daemon would — the shard service's own
// classification survives the scatter-gather hop, on /query and as the
// per-result code in /query/batch.
func TestRouterErrorCodeParity(t *testing.T) {
	db := testDB(t, 8, 200, 8)
	m2, err := NewHashMap(2)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := SplitDB(db, m2)
	if err != nil {
		t.Fatal(err)
	}
	replicas := make([][]Replica, len(parts))
	for i, p := range parts {
		// Per-shard services carry the k limit, exactly as a fleet of
		// caltrain-serve -max-k daemons would.
		replicas[i] = []Replica{NewLocalReplica("local", fingerprint.NewSearcherService(p, fingerprint.WithMaxK(4)))}
	}
	rt, err := NewRouter(m2, replicas)
	if err != nil {
		t.Fatal(err)
	}
	h := rt.Handler()

	// Single query: k over the per-shard limit is limit_exceeded, exactly
	// as fingerprint.Service answers it — not a generic bad_request.
	status, env := doRawRouter(t, h, "POST", "/v1/query",
		`{"fingerprint":[0,0,0,0,0,0,0,0],"label":0,"k":5}`)
	if status != http.StatusBadRequest || env.Code != fingerprint.ErrCodeLimitExceeded {
		t.Fatalf("routed k over limit: status %d code %q", status, env.Code)
	}

	// Batch: the per-result code rides along in the 200 body.
	req := httptest.NewRequest("POST", "/v1/query/batch", strings.NewReader(
		`{"queries":[{"fingerprint":[0,0,0,0,0,0,0,0],"label":0,"k":2},{"fingerprint":[0,0,0,0,0,0,0,0],"label":1,"k":5}]}`))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var batch fingerprint.BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d err %v", rec.Code, err)
	}
	if batch.Results[0].Error != "" || batch.Results[0].Code != "" {
		t.Fatalf("good query carries an error: %+v", batch.Results[0])
	}
	if batch.Results[1].Code != fingerprint.ErrCodeLimitExceeded {
		t.Fatalf("per-result code: %+v", batch.Results[1])
	}

	// Status parity too: a shard daemon's 413 body_too_large rejection
	// answers 413 from the router, not a remapped 400.
	tinySvc := fingerprint.NewSearcherService(db, fingerprint.WithMaxBodyBytes(64))
	tiny := httptest.NewServer(tinySvc.Handler())
	defer tiny.Close()
	m1, err := NewHashMap(1)
	if err != nil {
		t.Fatal(err)
	}
	rt413, err := NewRouter(m1, [][]Replica{{NewHTTPReplica(tiny.URL, nil)}})
	if err != nil {
		t.Fatal(err)
	}
	bigQuery := `{"fingerprint":[0.125,0.125,0.125,0.125,0.125,0.125,0.125,0.125],"label":0,"k":2}`
	status, env = doRawRouter(t, rt413.Handler(), "POST", "/v1/query", bigQuery)
	if status != http.StatusRequestEntityTooLarge || env.Code != fingerprint.ErrCodeBodyTooLarge {
		t.Fatalf("routed 413: status %d code %q", status, env.Code)
	}

	// An unmapped definitive 4xx (a proxy's plain-text 429, no envelope)
	// stays a client-side rejection — bad_request/400, never internal/500.
	throttler := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "slow down", http.StatusTooManyRequests)
	}))
	defer throttler.Close()
	rt429, err := NewRouter(m1, [][]Replica{{NewHTTPReplica(throttler.URL, nil)}})
	if err != nil {
		t.Fatal(err)
	}
	status, env = doRawRouter(t, rt429.Handler(), "POST", "/v1/query",
		`{"fingerprint":[0,0,0,0,0,0,0,0],"label":0,"k":2}`)
	if status != http.StatusBadRequest || env.Code != fingerprint.ErrCodeBadRequest {
		t.Fatalf("proxied 429: status %d code %q", status, env.Code)
	}

	// A dead shard's per-result errors carry shard_unreachable.
	m, err := NewHashMap(2)
	if err != nil {
		t.Fatal(err)
	}
	dead, err := NewRouter(m, [][]Replica{
		{NewHTTPReplica("http://127.0.0.1:1", nil)},
		{NewHTTPReplica("http://127.0.0.1:1", nil)},
	})
	if err != nil {
		t.Fatal(err)
	}
	req = httptest.NewRequest("POST", "/v1/query/batch", strings.NewReader(
		`{"queries":[{"fingerprint":[0,0,0,0,0,0,0,0],"label":3,"k":2}]}`))
	rec = httptest.NewRecorder()
	dead.Handler().ServeHTTP(rec, req)
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil {
		t.Fatal(err)
	}
	if batch.Results[0].Code != fingerprint.ErrCodeShardUnreachable {
		t.Fatalf("unreachable per-result code: %+v", batch.Results[0])
	}
}

// TestReplicaErrorTypeParity: the same refusal comes back as the same
// *fingerprint.APIError — Status and Code — whether the replica is a
// daemon over HTTP or a service in process, so the router's one
// rejection test reads both alike. Replication routes exist only over
// HTTP; a daemon started without them answers not_found through the
// same type.
func TestReplicaErrorTypeParity(t *testing.T) {
	db := testDB(t, 8, 40, 2)
	readOnly := fingerprint.NewSearcherService(db, fingerprint.WithMaxBatch(1))
	flat := index.NewFlat(db)
	writable := fingerprint.NewSearcherService(flat)
	st, err := ingest.Open(t.TempDir(), db, flat, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	writable.SetIngester(st)
	// A writable service holding ingests to one entry, like a daemon
	// started with -max-batch 1.
	cappedDB := db.Snapshot(-1)
	cappedFlat := index.NewFlat(cappedDB)
	capped := fingerprint.NewSearcherService(cappedFlat, fingerprint.WithMaxBatch(1))
	cst, err := ingest.Open(t.TempDir(), cappedDB, cappedFlat, ingest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cst.Close() })
	capped.SetIngester(cst)

	kinds := map[string]func(*fingerprint.Service) IngestReplica{
		"local": func(svc *fingerprint.Service) IngestReplica { return NewLocalReplica("local", svc) },
		"http": func(svc *fingerprint.Service) IngestReplica {
			srv := httptest.NewServer(svc.Handler())
			t.Cleanup(srv.Close)
			return NewHTTPReplica(srv.URL, srv.Client())
		},
	}
	cases := []struct {
		name       string
		svc        *fingerprint.Service
		call       func(IngestReplica) error
		wantStatus int
		wantCode   string
	}{
		{"oversized sub-batch", readOnly, func(r IngestReplica) error {
			_, err := r.QueryBatch(t.Context(), []fingerprint.QueryRequest{{K: 1}, {K: 1}})
			return err
		}, http.StatusBadRequest, fingerprint.ErrCodeLimitExceeded},
		{"wrong dimension on ingest", writable, func(r IngestReplica) error {
			_, err := r.Ingest(t.Context(), []fingerprint.IngestEntry{{Fingerprint: make([]float32, 5)}})
			return err
		}, http.StatusBadRequest, fingerprint.ErrCodeBadRequest},
		{"oversized ingest", capped, func(r IngestReplica) error {
			e := fingerprint.IngestEntry{Fingerprint: db.Entry(0).F, Label: 1}
			_, err := r.Ingest(t.Context(), []fingerprint.IngestEntry{e, e})
			return err
		}, http.StatusBadRequest, fingerprint.ErrCodeLimitExceeded},
		{"read-only ingest", readOnly, func(r IngestReplica) error {
			_, err := r.Ingest(t.Context(), []fingerprint.IngestEntry{{Fingerprint: make([]float32, 8)}})
			return err
		}, http.StatusNotImplemented, fingerprint.ErrCodeIngestDisabled},
	}
	check := func(name string, err error, wantStatus int, wantCode string) {
		t.Helper()
		var ae *fingerprint.APIError
		if !errors.As(err, &ae) || ae.Status != wantStatus || ae.Code != wantCode || ae.Message == "" {
			t.Errorf("%s: %v (%+v), want status %d code %s", name, err, ae, wantStatus, wantCode)
		}
		if (rejection(err) != nil) != (wantStatus < 500) {
			t.Errorf("%s: rejection(%v) disagrees with status %d", name, err, wantStatus)
		}
	}
	for _, c := range cases {
		for kind, replica := range kinds {
			check(c.name+" via "+kind, c.call(replica(c.svc)), c.wantStatus, c.wantCode)
		}
	}
	norepl := kinds["http"](readOnly).(SyncableReplica)
	_, err = norepl.SyncStatus(t.Context())
	check("repl status without -repl", err, http.StatusNotFound, fingerprint.ErrCodeNotFound)
	_, err = norepl.SyncFrom(t.Context(), "http://peer")
	check("repl sync without -repl", err, http.StatusNotFound, fingerprint.ErrCodeNotFound)
}

// TestReplicaSurfacesEnvelopeMessage: a daemon rejection travels to the
// router as the envelope's message, not raw JSON, so per-result errors
// stay human-readable.
func TestReplicaSurfacesEnvelopeMessage(t *testing.T) {
	db := testDB(t, 8, 100, 4)
	svc := fingerprint.NewSearcherService(db, fingerprint.WithMaxBatch(1))
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	rep := NewHTTPReplica(srv.URL, nil)
	_, err := rep.QueryBatch(t.Context(), []fingerprint.QueryRequest{{K: 1}, {K: 1}})
	if err == nil {
		t.Fatal("over-limit sub-batch accepted")
	}
	var ae *fingerprint.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error is not an APIError: %v", err)
	}
	if strings.Contains(ae.Message, "{") || !strings.Contains(ae.Message, "exceeds limit 1") {
		t.Fatalf("replica message not unwrapped from envelope: %q", ae.Message)
	}
}
