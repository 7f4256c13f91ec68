package shard

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
)

// scriptedReplica fails at once, hangs until its context is done, or
// answers — and, like a real replica, refuses a context that is already
// spent. Every call lands in the shared log.
type scriptedReplica struct {
	name string
	mode string // "fail", "hang" or "ok"
	mu   *sync.Mutex
	log  *[]string
}

func (s scriptedReplica) call(ctx context.Context) error {
	s.mu.Lock()
	*s.log = append(*s.log, s.name)
	s.mu.Unlock()
	if ctx.Err() != nil {
		return fmt.Errorf("%s: %w", s.name, ctx.Err())
	}
	switch s.mode {
	case "fail":
		return fmt.Errorf("%s: connection refused", s.name)
	case "hang":
		<-ctx.Done()
		return fmt.Errorf("%s: %w", s.name, ctx.Err())
	}
	return nil
}

func (s scriptedReplica) Addr() string { return s.name }

func (s scriptedReplica) Healthz(ctx context.Context) error { return s.call(ctx) }

func (s scriptedReplica) QueryBatch(ctx context.Context, reqs []fingerprint.QueryRequest) (*fingerprint.BatchResponse, error) {
	if err := s.call(ctx); err != nil {
		return nil, err
	}
	return &fingerprint.BatchResponse{Results: make([]fingerprint.BatchResult, len(reqs))}, nil
}

func (s scriptedReplica) Stats(ctx context.Context) (*fingerprint.StatsResponse, error) {
	if err := s.call(ctx); err != nil {
		return nil, err
	}
	return &fingerprint.StatsResponse{}, nil
}

// TestRouterOneFailoverLoop: a query, a health probe and a stats fetch
// walk a shard's replicas in the same order and stop at the same point —
// the replica that spent the shard timeout — instead of handing every
// remaining replica a dead context and reporting the last one's error.
// Only the query path may touch replica health: a probe that cleared or
// started a failure streak would starve or mislead the repair loop.
func TestRouterOneFailoverLoop(t *testing.T) {
	ops := []struct {
		name, method, path, body string
		marksHealth              bool
	}{
		{"query", http.MethodPost, "/v1/query/batch", `{"queries":[{"fingerprint":[0],"label":0,"k":1}]}`, true},
		{"healthz", http.MethodGet, "/v1/healthz", "", false},
		{"stats", http.MethodGet, "/v1/stats", "", false},
	}
	for _, op := range ops {
		t.Run(op.name, func(t *testing.T) {
			var mu sync.Mutex
			var log []string
			rep := func(name, mode string) Replica { return scriptedReplica{name, mode, &mu, &log} }
			rt, err := NewRouter(mustHashMap(t, 1),
				[][]Replica{{rep("A", "fail"), rep("B", "hang"), rep("C", "ok")}},
				WithShardTimeout(150*time.Millisecond), WithReplicaCooldown(time.Minute))
			if err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			rt.Handler().ServeHTTP(rec, httptest.NewRequest(op.method, op.path, strings.NewReader(op.body)))

			if want := []string{"A", "B"}; !slices.Equal(log, want) {
				t.Fatalf("replicas tried: %v, want %v (C is past the spent shard timeout)", log, want)
			}
			if !strings.Contains(rec.Body.String(), `"unreachable_shards":["shard 0"]`) {
				t.Fatalf("shard 0 not reported unreachable: %d %s", rec.Code, rec.Body)
			}
			if op.marksHealth && !strings.Contains(rec.Body.String(), "B: context deadline exceeded") {
				t.Fatalf("the error is not the one that spent the budget: %s", rec.Body)
			}
			for i, s := range rt.shards[0] {
				wantFails := 0
				if op.marksHealth && i < 2 {
					wantFails = 1
				}
				if s.fails != wantFails || s.downSince.IsZero() != (wantFails == 0) {
					t.Errorf("replica %s after %s: fails %d downSince %v, want %d fails",
						s.r.Addr(), op.name, s.fails, s.downSince, wantFails)
				}
			}
		})
	}
}
