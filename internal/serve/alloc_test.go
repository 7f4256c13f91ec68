//go:build !race

package serve

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"caltrain/internal/fingerprint"
	"caltrain/internal/shard"
)

// TestRequestAllocBudget holds the request path to the allocations it
// makes per item — a single query, a query of a batch of 16, a linkage
// of an ingest of 16 — over a 20 000 × 64 flat database in 8 labels,
// k 9: through one daemon's handler, through a 2-shard in-process
// router, and through a router, built in process as caltrain-router
// builds one, over two shard daemons it reaches over HTTP (httptest),
// so the hop's encoding, transport and decoding count too. Every allocation in the process counts, the shard
// daemons' included. A change that cuts a count lowers its pin with it;
// raising one is a change to this check. The race detector allocates,
// so the file is built without it.
func TestRequestAllocBudget(t *testing.T) {
	const dim, n, labels, k = 64, 20_000, 8, 9
	db := testDB(t, dim, n, labels)
	m, err := shard.NewHashMap(2)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := shard.SplitDB(db, m)
	if err != nil {
		t.Fatal(err)
	}
	build := func(d Deployment, db *fingerprint.DB) http.Handler {
		srv, err := d.Build(db)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv.Handler()
	}
	daemon := build(Deployment{VolatileWrites: true}, db)
	local := build(Deployment{Shards: 2, VolatileWrites: true}, db)
	shards := make(map[string][]string, len(parts))
	for i, part := range parts {
		hs := httptest.NewServer(build(Deployment{VolatileWrites: true}, part))
		t.Cleanup(hs.Close)
		shards[strconv.Itoa(i)] = []string{hs.URL}
	}
	mapFile := filepath.Join(t.TempDir(), "map.ctsm")
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mapFile, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	router := build(Deployment{Topology: &TopologyConfig{Map: mapFile, Shards: shards}}, nil)

	rng := rand.New(rand.NewPCG(3, 3))
	fp := func() []float32 {
		f := make([]float32, dim)
		for j := range f {
			f[j] = rng.Float32()
		}
		return f
	}
	body := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var batch fingerprint.BatchRequest
	var ingest fingerprint.IngestRequest
	for i := range 16 {
		batch.Queries = append(batch.Queries, fingerprint.QueryRequest{Fingerprint: fp(), Label: i % labels, K: k})
		ingest.Entries = append(ingest.Entries, fingerprint.IngestEntry{Fingerprint: fp(), Label: i % labels, Source: "budget"})
	}
	requests := []struct {
		path   string
		body   []byte
		items  int
		answer string // in every response, and no "error"
	}{
		{"/v1/query", body(fingerprint.QueryRequest{Fingerprint: fp(), Label: 3, K: k}), 1, `"matches":[{`},
		{"/v1/query/batch", body(batch), 16, `"results":[{`},
		{"/v1/ingest", body(ingest), 16, `"accepted":16`},
	}
	for _, c := range []struct {
		name string
		h    http.Handler
		pins [3]float64 // allocations per item, by request
	}{
		{"daemon", daemon, [3]float64{100, 40, 12.5}},
		{"in-process shards", local, [3]float64{140, 45, 15.5}},
		{"router", router, [3]float64{340, 105.5, 43.5}},
	} {
		for r, req := range requests {
			allocs := testing.AllocsPerRun(40, func() {
				rec := httptest.NewRecorder()
				c.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.path, bytes.NewReader(req.body)))
				got := rec.Body.Bytes()
				if rec.Code != http.StatusOK || !bytes.Contains(got, []byte(req.answer)) || bytes.Contains(got, []byte(`"error"`)) {
					t.Fatalf("%s %s: %d %s", c.name, req.path, rec.Code, rec.Body)
				}
			}) / float64(req.items)
			t.Logf("%s %s: %.1f allocations per item, pinned at %g", c.name, req.path, allocs, c.pins[r])
			if allocs > c.pins[r] {
				t.Errorf("%s %s: %.1f allocations per item, budget %g", c.name, req.path, allocs, c.pins[r])
			}
		}
	}
}
