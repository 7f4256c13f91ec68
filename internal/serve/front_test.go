package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/ingest"
	"caltrain/internal/obs/obstest"
	"caltrain/internal/shard"
)

// TestShardedIngestRejectsWhatShardsWould: a label no shard can store
// (above int32) fails the whole routed batch with 400 bad_request before
// any shard sees a byte — a multi-shard write is not atomic, so the
// router must refuse everything a shard would, not apply the entries of
// the shards that would have taken them.
func TestShardedIngestRejectsWhatShardsWould(t *testing.T) {
	db := testDB(t, 8, 300, 6)
	srv, err := Deployment{Shards: 3, VolatileWrites: true}.Build(db)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	client := fingerprint.NewClient(hs.URL, hs.Client())
	entries := make([]fingerprint.IngestEntry, 7)
	for i := range entries {
		entries[i] = fingerprint.IngestEntry{Fingerprint: make([]float32, 8), Label: i % 6, Source: "w"}
	}
	entries[3].Label = math.MaxInt32 + 1
	resp, err := client.Ingest(entries)
	if code := fingerprint.CodeOf(err); code != fingerprint.ErrCodeBadRequest {
		t.Fatalf("ingest with label %d: %+v, %v (code %q), want bad_request", entries[3].Label, resp, err, code)
	}
	st, err := client.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Entries != 300 {
		t.Fatalf("a rejected batch was partly applied: %d entries, want 300", st.Entries)
	}
}

// frontReply is what FuzzFrontParity compares of one tier's answer.
type frontReply struct {
	status int
	code   string // the envelope's code, non-200 only
	body   []byte
}

// FuzzFrontParity posts the same public body to a single flat daemon
// and to a one-shard in-process router over an identical daemon: no
// panic, no 5xx, the same status and envelope code on both tiers, and
// on ingest each tier's caltrain_entries grows by exactly the accepted
// count it reports.
func FuzzFrontParity(f *testing.F) {
	paths := []string{"/v1/query", "/v1/query/batch", "/v1/ingest"}
	fp := func(dim int) string { return "[" + strings.TrimSuffix(strings.Repeat("0.25,", dim), ",") + "]" }
	q := func(dim, label, k int) string {
		return fmt.Sprintf(`{"fingerprint":%s,"label":%d,"k":%d}`, fp(dim), label, k)
	}
	e := func(dim, label int, extra string) string {
		return fmt.Sprintf(`{"fingerprint":%s,"label":%d,"source":"s"%s}`, fp(dim), label, extra)
	}
	for _, seed := range []struct {
		route uint8
		body  string
	}{
		{0, q(4, 1, 3)}, {0, q(4, 1, 9)}, {0, q(4, 1, -1)}, {0, q(3, 1, 2)}, {0, q(4, 7, 2)},
		{0, `{not json`}, {0, `{"fingerprint":[` + strings.Repeat("0.125,", 400) + `0],"label":0,"k":1}`},
		{1, `{"queries":[` + q(4, 0, 2) + `,` + q(4, 2, 9) + `,` + q(2, 1, 1) + `]}`},
		{1, `{"queries":[]}`}, {1, `{"queries":[` + strings.Repeat(q(4, 0, 1)+`,`, 4) + q(4, 0, 1) + `]}`},
		{2, `{"entries":[` + e(4, 1, "") + `,` + e(4, 2, `,"hash":"`+strings.Repeat("ab", 32)+`"`) + `]}`},
		{2, `{"entries":[` + e(4, 1, "") + `,` + e(3, 2, "") + `]}`},
		{2, `{"entries":[` + e(5, 1, "") + `,` + e(5, 2, "") + `]}`},
		{2, `{"entries":[` + e(4, 1, "") + `,` + e(4, math.MaxInt32+1, "") + `]}`},
		{2, `{"entries":[` + e(4, -1, "") + `]}`}, {2, `{"entries":[` + e(4, 0, `,"hash":"zz"`) + `]}`},
		{2, `{"entries":[]}`}, {2, `{"entries":[` + strings.Repeat(e(4, 0, "")+`,`, 4) + e(4, 0, "") + `]}`},
	} {
		f.Add(seed.route, seed.body)
	}

	limits := []fingerprint.FrontOption{
		fingerprint.WithMaxK(8), fingerprint.WithMaxBatch(4), fingerprint.WithMaxBodyBytes(2048),
	}
	daemon := func() *fingerprint.Service {
		db := testDB(f, 4, 40, 3)
		flat := index.NewFlat(db)
		store, err := ingest.Open("", db, flat, ingest.Options{})
		if err != nil {
			f.Fatal(err)
		}
		svc := fingerprint.NewSearcherService(flat, limits...)
		svc.SetIngester(store)
		return svc
	}
	single, behind := daemon(), daemon()
	m, err := shard.NewHashMap(1)
	if err != nil {
		f.Fatal(err)
	}
	rt, err := shard.NewRouter(m, [][]shard.Replica{{shard.NewLocalReplica("shard-0", behind)}},
		shard.WithFront(limits...))
	if err != nil {
		f.Fatal(err)
	}
	tiers := []struct {
		name    string
		h       http.Handler
		entries http.Handler // the daemon whose caltrain_entries the tier's writes move
	}{
		{"daemon", single.Handler(), single.Handler()},
		{"router", rt.Handler(), behind.Handler()},
	}
	entries := func(t *testing.T, h http.Handler) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
		return int(obstest.Value(t, rec.Body.String(), "caltrain_entries"))
	}

	f.Fuzz(func(t *testing.T, route uint8, body string) {
		path := paths[int(route)%len(paths)]
		var got [2]frontReply
		for i, tier := range tiers {
			before := entries(t, tier.entries)
			rec := httptest.NewRecorder()
			tier.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			r := frontReply{status: rec.Code, body: rec.Body.Bytes()}
			if r.status >= 500 {
				t.Fatalf("%s: POST %s answered %d: %s", tier.name, path, r.status, r.body)
			}
			var accepted int
			if r.status == http.StatusOK {
				var ir fingerprint.IngestResponse
				if path == "/v1/ingest" && json.Unmarshal(r.body, &ir) == nil {
					accepted = ir.Accepted
				}
			} else {
				var env fingerprint.ErrorEnvelope
				if err := json.Unmarshal(r.body, &env); err != nil || env.Code == "" {
					t.Fatalf("%s: POST %s answered %d without an envelope: %s", tier.name, path, r.status, r.body)
				}
				r.code = env.Code
			}
			if grew := entries(t, tier.entries) - before; grew != accepted {
				t.Fatalf("%s: POST %s accepted %d entries but caltrain_entries grew by %d", tier.name, path, accepted, grew)
			}
			got[i] = r
		}
		d, rt := got[0], got[1]
		if d.status == rt.status && d.code == rt.code {
			return
		}
		if knownDifference(path, d, rt) {
			return
		}
		t.Fatalf("POST %s %q: daemon %d %q (%s), router %d %q (%s)",
			path, body, d.status, d.code, d.body, rt.status, rt.code, rt.body)
	})
}

// knownDifference lists where the tiers may answer the same body
// differently, each with its reason.
func knownDifference(path string, d, rt frontReply) bool {
	// An ingest whose entries agree with each other but not with the
	// database dimension: the router knows no database, so it validates
	// against entry 0's length and the shard refuses the sub-batch inside
	// a 200 (failed, nothing applied), where a daemon answers 400.
	if path == "/v1/ingest" && d.status == http.StatusBadRequest && d.code == fingerprint.ErrCodeBadRequest &&
		rt.status == http.StatusOK && strings.Contains(string(d.body), "dimension mismatch") {
		var ir fingerprint.IngestResponse
		return json.Unmarshal(rt.body, &ir) == nil && ir.Accepted == 0 && ir.Failed > 0
	}
	return false
}
