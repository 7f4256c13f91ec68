package fingerprint

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"testing"
	"time"
)

// doRaw fires one request at the handler and decodes the error envelope
// (when the body carries one).
func doRaw(t *testing.T, h http.Handler, method, path, body string) (int, ErrorEnvelope) {
	t.Helper()
	var rdr *strings.Reader
	if body == "" {
		rdr = strings.NewReader("")
	} else {
		rdr = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rdr)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	var env ErrorEnvelope
	if rec.Code != http.StatusOK {
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("%s %s: error content type %q, want application/json", method, path, ct)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil {
			t.Fatalf("%s %s: error body is not an envelope: %v (%q)", method, path, err, rec.Body.String())
		}
	}
	return rec.Code, env
}

// TestServiceErrorEnvelope is the wire-contract table for the daemon
// handler: every failure answers with the structured {code, error}
// envelope — the unversioned spelling of a route included, which is now
// just an unknown route.
func TestServiceErrorEnvelope(t *testing.T) {
	db := populatedDB(t, 4, 30, 2, 23)
	svc := NewSearcherService(db, WithMaxBodyBytes(256), WithMaxK(8), WithMaxBatch(2))
	h := svc.Handler()

	bigBody := `{"fingerprint":[` + strings.Repeat("0.1,", 200) + `0.1],"label":0,"k":3}`
	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"oversized body", "POST", "/v1/query", bigBody, http.StatusRequestEntityTooLarge, ErrCodeBodyTooLarge},
		{"bad k over limit", "POST", "/v1/query", `{"fingerprint":[0,0,0,0],"label":0,"k":9}`, http.StatusBadRequest, ErrCodeLimitExceeded},
		{"bad k negative", "POST", "/v1/query", `{"fingerprint":[0,0,0,0],"label":0,"k":-1}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"malformed json", "POST", "/v1/query", `{not json`, http.StatusBadRequest, ErrCodeBadRequest},
		{"dim mismatch", "POST", "/v1/query", `{"fingerprint":[0],"label":0,"k":3}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"empty batch", "POST", "/v1/query/batch", `{"queries":[]}`, http.StatusBadRequest, ErrCodeBadRequest},
		{"batch over limit", "POST", "/v1/query/batch", `{"queries":[{"k":1},{"k":1},{"k":1}]}`, http.StatusBadRequest, ErrCodeLimitExceeded},
		{"method not allowed", "GET", "/v1/query", "", http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed},
		{"method not allowed stats", "POST", "/v1/stats", "", http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed},
		{"unknown route", "GET", "/v1/nope", "", http.StatusNotFound, ErrCodeNotFound},
		{"unversioned spelling", "POST", "/query", `{"fingerprint":[0,0,0,0],"label":0,"k":3}`, http.StatusNotFound, ErrCodeNotFound},
		{"ingest disabled", "POST", "/v1/ingest", `{"entries":[{"fingerprint":[0,0,0,0]}]}`, http.StatusNotImplemented, ErrCodeIngestDisabled},
	}
	for _, c := range cases {
		status, env := doRaw(t, h, c.method, c.path, c.body)
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

// TestServiceV1RoutesServe: the versioned routes answer, and /v1/meta
// reports the backend and capabilities (tracking SetIngester).
func TestServiceV1RoutesServe(t *testing.T) {
	db := populatedDB(t, 4, 30, 2, 29)
	svc := NewSearcherService(db)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json",
		strings.NewReader(`{"fingerprint":[0.5,0.5,0.5,0.5],"label":0,"k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(qr.Matches) != 3 {
		t.Fatalf("/v1/query: status %s, %d matches", resp.Status, len(qr.Matches))
	}

	meta := func() MetaResponse {
		resp, err := srv.Client().Get(srv.URL + "/v1/meta")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m MetaResponse
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := meta()
	if m.Protocol != ProtocolVersion || m.Server != ServerVersion || m.Backend != "linear" {
		t.Fatalf("meta identity: %+v", m)
	}
	if m.Capabilities.Ingest || m.Capabilities.Sharded {
		t.Fatalf("read-only daemon capabilities: %+v", m.Capabilities)
	}
	svc.SetIngester(&recordingIngester{})
	if m = meta(); !m.Capabilities.Ingest {
		t.Fatalf("meta did not track SetIngester: %+v", m.Capabilities)
	}
}

// TestHeadServesOnGetRoutes: HEAD is accepted wherever GET is — load
// balancers and uptime probes HEAD /v1/healthz and must keep getting 200.
func TestHeadServesOnGetRoutes(t *testing.T) {
	db := populatedDB(t, 4, 10, 2, 41)
	h := NewSearcherService(db).Handler()
	for _, path := range []string{"/v1/healthz", "/v1/stats", "/v1/meta"} {
		status, _ := doRaw(t, h, http.MethodHead, path, "")
		if status != http.StatusOK {
			t.Errorf("HEAD %s: status %d, want 200", path, status)
		}
	}
	// POST routes still reject HEAD.
	if status, _ := doRaw(t, h, http.MethodHead, "/v1/query", ""); status != http.StatusMethodNotAllowed {
		t.Errorf("HEAD /v1/query: status %d, want 405", status)
	}
}

// TestClientTypedErrorCodes: every client rejection carries a wrapped
// *APIError so callers branch on the stable envelope code — CodeOf or
// errors.As — instead of matching message text.
func TestClientTypedErrorCodes(t *testing.T) {
	db := populatedDB(t, 4, 30, 2, 37)
	svc := NewSearcherService(db, WithMaxK(8), WithMaxBatch(2))
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())

	cases := []struct {
		name       string
		call       func() error
		wantCode   string
		wantStatus int
	}{
		{"k over limit", func() error {
			_, err := client.Query(make(Fingerprint, 4), 0, 9)
			return err
		}, ErrCodeLimitExceeded, http.StatusBadRequest},
		{"bad fingerprint dim", func() error {
			_, err := client.Query(make(Fingerprint, 2), 0, 3)
			return err
		}, ErrCodeBadRequest, http.StatusBadRequest},
		{"batch over limit", func() error {
			_, err := client.QueryBatch([]QueryRequest{{K: 1}, {K: 1}, {K: 1}})
			return err
		}, ErrCodeLimitExceeded, http.StatusBadRequest},
		{"ingest disabled", func() error {
			_, err := client.Ingest([]IngestEntry{{Fingerprint: make([]float32, 4)}})
			return err
		}, ErrCodeIngestDisabled, http.StatusNotImplemented},
	}
	for _, c := range cases {
		err := c.call()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if got := CodeOf(err); got != c.wantCode {
			t.Errorf("%s: code %q, want %q (err %v)", c.name, got, c.wantCode, err)
		}
		var ae *APIError
		if !errors.As(err, &ae) {
			t.Errorf("%s: error %v carries no APIError", c.name, err)
			continue
		}
		if ae.Status != c.wantStatus || ae.Message == "" {
			t.Errorf("%s: APIError %+v, want status %d with a message", c.name, ae, c.wantStatus)
		}
	}

	// A success and a transport fault both answer "" — only wire-protocol
	// rejections carry a code.
	if _, err := client.Query(make(Fingerprint, 4), 0, 3); err != nil || CodeOf(err) != "" {
		t.Fatalf("success: %v (code %q)", err, CodeOf(err))
	}
	down := NewClient("http://127.0.0.1:1", nil)
	if _, err := down.Query(make(Fingerprint, 4), 0, 3); err == nil || CodeOf(err) != "" {
		t.Fatalf("transport fault: %v (code %q)", err, CodeOf(err))
	}

	// Meta rejections are typed like every other method: a 503 from
	// /v1/meta is distinguishable from a transport fault.
	busted := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "warming up", http.StatusServiceUnavailable)
	}))
	defer busted.Close()
	if _, err := NewClient(busted.URL, busted.Client()).Meta(); CodeOf(err) != ErrCodeInternal {
		t.Fatalf("meta 503: %v (code %q)", err, CodeOf(err))
	}

	// A reply without an envelope (plain http.Error text, as a proxy
	// writes): the code is classified from the HTTP status so the caller's
	// branch still works.
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "k too large", http.StatusBadRequest)
	}))
	defer plain.Close()
	_, err := NewClient(plain.URL, plain.Client()).Query(make(Fingerprint, 4), 0, 3)
	var ae *APIError
	if !errors.As(err, &ae) || ae.Code != ErrCodeBadRequest || ae.Message != "k too large" {
		t.Fatalf("envelope-less classification: %v (%+v)", err, ae)
	}

	// An unmapped envelope-less 4xx (a proxy's 429) is a client-side
	// rejection — bad_request, never internal; an envelope-less 5xx is.
	proxyish := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "slow down", http.StatusTooManyRequests)
	}))
	defer proxyish.Close()
	_, err = NewClient(proxyish.URL, proxyish.Client()).Query(make(Fingerprint, 4), 0, 3)
	if !errors.As(err, &ae) || ae.Code != ErrCodeBadRequest || ae.Status != http.StatusTooManyRequests {
		t.Fatalf("proxied 429 classification: %v (%+v)", err, ae)
	}
}

// TestClientReusesConnectionAfterLargeReply: a reply too large for a
// Content-Length arrives chunked, and the JSON decoder stops at the end
// of the value. Whether it has seen EOF by then depends on whether the
// chunk terminator arrived with the last of the data; here it trails by
// a moment, as it can over a real network. The client must drain the
// rest before closing, or the Transport drops the connection and the
// next batch pays a fresh dial.
func TestClientReusesConnectionAfterLargeReply(t *testing.T) {
	big := BatchResponse{Results: []BatchResult{{QueryResponse: &QueryResponse{
		Matches: []MatchJSON{{Source: strings.Repeat("x", 256<<10)}},
	}}}}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, big)
		w.(http.Flusher).Flush()
		time.Sleep(20 * time.Millisecond) // the terminator is written on return
	}))
	defer srv.Close()
	client := NewClient(srv.URL, srv.Client())

	var reused []bool
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) { reused = append(reused, info.Reused) },
	})
	for range 2 {
		out, err := client.QueryBatchCtx(ctx, []QueryRequest{{K: 1}})
		if err != nil || len(out.Results[0].Matches[0].Source) != 256<<10 {
			t.Fatalf("batch: %v", err)
		}
	}
	if len(reused) != 2 || reused[0] || !reused[1] {
		t.Fatalf("connections reused per call: %v, want [false true]", reused)
	}
}
