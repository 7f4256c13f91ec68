package serve

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/obs/obstest"
	"caltrain/internal/shard"
)

var update = flag.Bool("update", false, "rewrite testdata/exposition.golden with the current metric families")

// metricShape is one deployment shape whose exposition the tests below
// hold: built, sent one query and one batch (and one ingest where it
// has a write path of its own), then left quiescent.
type metricShape struct {
	name string
	srv  *Server
}

// metricShapes builds the four shapes a scrape can take: a read-only
// daemon; a durable daemon with a replication block after one ingest
// and one snapshot; an in-process 2-shard router with volatile writes;
// and a topology router over two shard daemons with the repair loop and
// the response cache.
func metricShapes(t *testing.T) []metricShape {
	t.Helper()
	const dim = 8
	db := func() *fingerprint.DB { return testDB(t, dim, 40, 5) }
	build := func(d Deployment, db *fingerprint.DB) *Server {
		t.Helper()
		srv, err := d.Build(db)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}

	durable := build(replDeployment(filepath.Join(t.TempDir(), "wal"), ""), db())
	m, err := shard.NewHashMap(2)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := shard.SplitDB(db(), m)
	if err != nil {
		t.Fatal(err)
	}
	var daemons []string
	for _, part := range parts {
		ts := httptest.NewServer(fingerprint.NewSearcherService(index.NewFlat(part)).Handler())
		t.Cleanup(ts.Close)
		daemons = append(daemons, ts.URL)
	}
	cfg, err := ParseConfig(strings.NewReader(fmt.Sprintf(`{"topology": {
		"map": %q, "shards": {"0": [%q], "1": [%q]},
		"repair": {"after": "5s"}, "response_cache": 16}}`, writeShardMap(t, 2), daemons[0], daemons[1])))
	if err != nil {
		t.Fatal(err)
	}
	topo, err := cfg.Deployment()
	if err != nil {
		t.Fatal(err)
	}
	shapes := []metricShape{
		{"read-only daemon", build(Deployment{}, db())},
		{"durable replicated daemon", durable},
		{"in-process 2-shard router", build(Deployment{Shards: 2, VolatileWrites: true}, db())},
		{"topology router", build(topo, nil)},
	}

	fp := strings.Repeat("0.5,", dim-1) + "0.5"
	for _, sh := range shapes {
		h := sh.srv.Handler()
		post(t, h, "/v1/query", `{"fingerprint":[`+fp+`],"label":1,"k":2}`, http.StatusOK)
		post(t, h, "/v1/query/batch", `{"queries":[{"fingerprint":[`+fp+`],"label":2,"k":2},{"fingerprint":[`+fp+`],"label":3,"k":2}]}`, http.StatusOK)
	}
	for _, h := range []http.Handler{shapes[1].srv.Handler(), shapes[2].srv.Handler()} {
		post(t, h, "/v1/ingest", `{"entries":[{"fingerprint":[`+fp+`],"label":1,"source":"late"}]}`, http.StatusOK)
	}
	if err := durable.Store().Snapshot(filepath.Join(t.TempDir(), "snap.db")); err != nil {
		t.Fatal(err)
	}
	return shapes
}

// post sends body to path on h and fails t unless h answers want.
func post(t *testing.T, h http.Handler, path, body string, want int) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	if rec.Code != want {
		t.Fatalf("POST %s: status %d, want %d: %s", path, rec.Code, want, rec.Body.String())
	}
}

// get returns the body h serves at path, failing t on a status other
// than 200.
func get(t *testing.T, h http.Handler, path string) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	body, _ := io.ReadAll(rec.Body)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, body)
	}
	return string(body)
}

// TestExpositionGolden pins the metric families each shape exports:
// the sorted # HELP and # TYPE lines of its scrape, so a renamed family,
// a changed type or reworded help text is a diff of
// testdata/exposition.golden. The peak-resident family is left out: it
// exists only where /proc/self/status does. After an intentional change:
//
//	go test -run TestExpositionGolden -update .
func TestExpositionGolden(t *testing.T) {
	var got bytes.Buffer
	for _, sh := range metricShapes(t) {
		var lines []string
		for _, l := range strings.Split(get(t, sh.srv.Handler(), "/v1/metrics"), "\n") {
			if strings.HasPrefix(l, "# ") && !strings.Contains(l, " caltrain_process_peak_resident_bytes ") {
				lines = append(lines, l)
			}
		}
		sort.Strings(lines)
		fmt.Fprintf(&got, "== %s\n%s\n", sh.name, strings.Join(lines, "\n"))
	}
	golden := filepath.Join("testdata", "exposition.golden")
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("the scrapes no longer declare %s (after an intentional change: go test -run TestExpositionGolden -update .):\n%s", golden, got.Bytes())
	}
}

// TestStatsMetricsParity walks every metric-tagged field of the blocks
// each shape's /v1/stats and /v1/repl/status encode, after one
// malformed query: its family reads what the JSON reports, between a
// scrape before and one after (equal but for a clock), and is absent
// where its block is, or where it is tagged omitzero and reads zero.
// Between them the shapes show every tagged family, and /v1/stats
// errors is the sum of caltrain_request_errors_total.
func TestStatsMetricsParity(t *testing.T) {
	// Beside the four, a volatile daemon: an ingest block that never
	// snapshots, whose scrape has no snapshot age.
	volatile, err := Deployment{VolatileWrites: true}.Build(testDB(t, 8, 40, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer volatile.Close()
	shown := map[string]bool{}
	tagged := map[string]bool{}
	for _, sh := range append(metricShapes(t), metricShape{"volatile daemon", volatile}) {
		t.Run(sh.name, func(t *testing.T) {
			h := sh.srv.Handler()
			post(t, h, "/v1/query", "{", http.StatusBadRequest)
			before := unlabeled(get(t, h, "/v1/metrics"))
			var head *fingerprint.StatsResponse
			var blocks []any
			if sh.srv.router != nil {
				var st shard.StatsResponse
				decode(t, get(t, h, "/v1/stats"), &st)
				head, blocks = &st.StatsResponse, []any{&st.StatsResponse, st.Repair}
			} else {
				var st fingerprint.StatsResponse
				decode(t, get(t, h, "/v1/stats"), &st)
				head, blocks = &st, []any{&st, st.Ingest}
			}
			if sh.srv.syncer != nil {
				var rs fingerprint.ReplStatus
				decode(t, get(t, h, "/v1/repl/status"), &rs)
				blocks = append(blocks, &rs)
			}
			exposition := get(t, h, "/v1/metrics")
			after := unlabeled(exposition)
			for _, b := range blocks {
				v := reflect.ValueOf(b)
				for _, f := range reflect.VisibleFields(v.Type().Elem()) {
					tag, ok := f.Tag.Lookup("metric")
					if !ok {
						continue
					}
					name, opt, _ := strings.Cut(tag, ",")
					tagged[name] = true
					a, inBefore := before[name]
					z, inAfter := after[name]
					if v.IsNil() || opt == "omitzero" && v.Elem().FieldByIndex(f.Index).IsZero() {
						if inBefore || inAfter {
							t.Errorf("%s is scraped, but its %s field is absent or zero in the JSON", name, f.Name)
						}
						continue
					}
					want := v.Elem().FieldByIndex(f.Index).Convert(reflect.TypeFor[float64]()).Float()
					if !inBefore || !inAfter || want < a || want > z {
						t.Errorf("%s scraped %v then %v (present %v, %v); the JSON's %s is %v", name, a, z, inBefore, inAfter, f.Name, want)
					}
					shown[name] = true
				}
			}
			if got := obstest.Sum(t, exposition, "caltrain_request_errors_total"); got != float64(head.Errors) {
				t.Errorf("caltrain_request_errors_total sums to %v, /v1/stats errors is %d", got, head.Errors)
			}
		})
	}
	for name := range tagged {
		if !shown[name] {
			t.Errorf("no shape scrapes %s: the shapes no longer cover every tagged family", name)
		}
	}
	if _, ok := unlabeled(get(t, volatile.Handler(), "/v1/metrics"))["caltrain_last_snapshot_age_seconds"]; ok {
		t.Error("a daemon that never snapshots scrapes a snapshot age")
	}
	if len(tagged) == 0 {
		t.Fatal("no metric-tagged field: the parity holds vacuously")
	}
}

// unlabeled maps each unlabeled sample of an exposition to its value.
func unlabeled(exposition string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(exposition, "\n") {
		name, value, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") || strings.Contains(name, "{") {
			continue
		}
		if v, err := strconv.ParseFloat(value, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

func decode(t *testing.T, body string, v any) {
	t.Helper()
	if err := json.Unmarshal([]byte(body), v); err != nil {
		t.Fatal(err)
	}
}
