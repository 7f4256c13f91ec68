package fingerprint

import (
	"fmt"
	"strings"
	"testing"
)

// recordingBatchSearcher implements BatchSearcher over a DB by per-query
// Search calls, recording what reaches SearchBatch so tests can assert
// the service's routing decisions.
type recordingBatchSearcher struct {
	db         *DB
	batchCalls int
	batchSizes []int
}

func (r *recordingBatchSearcher) Kind() string { return "recording" }

func (r *recordingBatchSearcher) Dim() int { return r.db.Dim() }

func (r *recordingBatchSearcher) Len() int { return r.db.Len() }

func (r *recordingBatchSearcher) Search(f Fingerprint, label, k int) ([]Match, error) {
	return r.db.Query(f, label, k)
}

func (r *recordingBatchSearcher) SearchBatch(fs []Fingerprint, labels []int, ks []int) ([][]Match, []error) {
	r.batchCalls++
	r.batchSizes = append(r.batchSizes, len(fs))
	results := make([][]Match, len(fs))
	errs := make([]error, len(fs))
	for i := range fs {
		results[i], errs[i] = r.db.Query(fs[i], labels[i], ks[i])
	}
	return results, errs
}

// TestRunBatchRoutesThroughBatchSearcher asserts the service hands a
// multi-query batch to the backend's SearchBatch in one call, that
// k-over-limit queries are rejected up front (never reaching the
// backend), and that responses and error codes match the per-query path
// exactly.
func TestRunBatchRoutesThroughBatchSearcher(t *testing.T) {
	db := seedDB(t, 12)
	rec := &recordingBatchSearcher{db: db}
	svc := NewSearcherService(rec, WithMaxK(5))
	plain := NewSearcherService(db, WithMaxK(5)) // per-query reference path

	reqs := []QueryRequest{
		{Fingerprint: db.Entry(0).F, Label: db.Entry(0).Y, K: 3},
		{Fingerprint: db.Entry(1).F, Label: db.Entry(1).Y, K: 99}, // over maxK
		{Fingerprint: []float32{1, 2}, Label: 0, K: 2},            // dim mismatch
		{Fingerprint: db.Entry(2).F, Label: db.Entry(2).Y, K: 5},
	}
	got := svc.RunBatch(reqs)
	want := plain.RunBatch(reqs)

	if rec.batchCalls != 1 {
		t.Fatalf("SearchBatch called %d times, want 1", rec.batchCalls)
	}
	// The over-limit query is rejected before the backend; the dim
	// mismatch must reach it so the backend decides (per-query
	// independence), leaving 3 of 4 queries in the one batch call.
	if len(rec.batchSizes) != 1 || rec.batchSizes[0] != 3 {
		t.Fatalf("SearchBatch saw batches %v, want [3]", rec.batchSizes)
	}
	for i := range reqs {
		g, w := got.Results[i], want.Results[i]
		if g.Code != w.Code {
			t.Fatalf("query %d: batched path code %q, per-query path %q", i, g.Code, w.Code)
		}
		if (g.Error == "") != (w.Error == "") {
			t.Fatalf("query %d: batched error %q, per-query error %q", i, g.Error, w.Error)
		}
		if g.Error != "" {
			if !strings.Contains(g.Error, strings.TrimPrefix(w.Error, "query failed: ")) && g.Error != w.Error {
				t.Fatalf("query %d: batched error %q, per-query error %q", i, g.Error, w.Error)
			}
			continue
		}
		if len(g.Matches) != len(w.Matches) {
			t.Fatalf("query %d: %d matches batched, %d per-query", i, len(g.Matches), len(w.Matches))
		}
		for j := range g.Matches {
			if g.Matches[j] != w.Matches[j] {
				t.Fatalf("query %d match %d: %+v vs %+v", i, j, g.Matches[j], w.Matches[j])
			}
		}
	}

	// Counter parity: both services saw the same error mix.
	if svc.front.Stats().Errors != plain.front.Stats().Errors {
		t.Fatalf("batched path counted %d errors, per-query path %d", svc.front.Stats().Errors, plain.front.Stats().Errors)
	}
}

// TestRunBatchSingleQuerySkipsBatchPath asserts a one-query batch stays
// on the per-query path (no batched-sweep setup for nothing).
func TestRunBatchSingleQuerySkipsBatchPath(t *testing.T) {
	db := seedDB(t, 8)
	rec := &recordingBatchSearcher{db: db}
	svc := NewSearcherService(rec)
	resp := svc.RunBatch([]QueryRequest{{Fingerprint: db.Entry(0).F, Label: db.Entry(0).Y, K: 2}})
	if rec.batchCalls != 0 {
		t.Fatalf("SearchBatch called %d times for a single-query batch, want 0", rec.batchCalls)
	}
	if resp.Results[0].Error != "" {
		t.Fatalf("single query failed: %s", resp.Results[0].Error)
	}
}

// seedDB builds a small database with n entries across 3 labels.
func seedDB(t *testing.T, n int) *DB {
	t.Helper()
	db, err := NewDB(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var h [32]byte
		h[0] = byte(i)
		err := db.Add(Linkage{
			F: Fingerprint{float32(i), float32(i % 3), 0.5, -float32(i)},
			Y: i % 3,
			S: fmt.Sprintf("party-%d", i%2),
			H: h,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}
