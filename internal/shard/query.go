package shard

import (
	"cmp"
	"context"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
)

// callShard runs one sub-batch against shard sid through tryReplicas
// and holds the health verdict of each attempt. Only genuine replica
// faults (connection errors, timeouts, 5xx, malformed replies) count
// toward replica health: an alive replica rejecting the request
// (rejection) and the caller abandoning the request both leave cooldown
// state untouched.
func (r *Router) callShard(parent context.Context, sid int, sub []fingerprint.QueryRequest) (*fingerprint.BatchResponse, error) {
	var resp *fingerprint.BatchResponse
	err := r.tryReplicas(parent, sid, func(ctx context.Context, s *replicaState) (bool, error) {
		// One span per attempt, failover retries included, so a trace of a
		// slow query shows WHICH replica burned the time before another
		// answered.
		actx, attempt := obs.StartSpan(ctx, "shard_attempt")
		attempt.SetAttr("shard", strconv.Itoa(sid))
		attempt.SetAttr("replica", s.r.Addr())
		out, err := s.r.QueryBatch(actx, sub)
		if err == nil && len(out.Results) != len(sub) {
			err = fmt.Errorf("replica %s returned %d results for %d queries", s.r.Addr(), len(out.Results), len(sub))
		}
		attempt.SetError(err)
		attempt.End()
		switch {
		case err == nil:
			s.markUp()
			resp = out
			return true, nil
		case rejection(err) != nil:
			// Alive but refused (e.g. the daemon's own -max-batch is lower
			// than the router's): a definitive answer, not a health event.
			s.markUp()
			return true, fmt.Errorf("replica %s rejected the sub-batch: %w", s.r.Addr(), err)
		case parent.Err() != nil:
			// The caller went away (client disconnect, upstream deadline);
			// the replica did nothing wrong.
			return true, parent.Err()
		}
		s.markDown(r.now(), r.cooldown)
		return false, err
	})
	return resp, err
}

// scatter routes every query to its owning shard, runs the per-shard
// sub-batches concurrently, and reassembles results in request order.
// Shards whose every replica fails surface as per-result errors plus an
// entry in the returned unreachable list ("shard N"); a shard that
// answered with a rejection yields per-result errors only — it was
// reached. Every failed result counts as one router error under its
// code, so the callers count nothing.
func (r *Router) scatter(ctx context.Context, reqs []fingerprint.QueryRequest) ([]fingerprint.BatchResult, []string) {
	_, route := obs.StartSpan(ctx, "route")
	byShard := make([][]int, len(r.shards))
	for i, q := range reqs {
		sid := r.m.Shard(q.Label)
		byShard[sid] = append(byShard[sid], i)
	}
	route.End()
	// The fan-out runs under one "scatter" span; per-shard attempt spans
	// (and, through propagation, the shard daemons' own trees) parent
	// under it via sctx.
	sctx, scatterSpan := obs.StartSpan(ctx, "scatter")
	defer scatterSpan.End()
	results := make([]fingerprint.BatchResult, len(reqs))
	unreachable := make([]bool, len(r.shards))
	involved := eachShard(byShard, func(sid int, positions []int) {
		sub := make([]fingerprint.QueryRequest, len(positions))
		for j, pos := range positions {
			sub[j] = reqs[pos]
		}
		resp, err := r.callShard(sctx, sid, sub)
		if err == nil {
			for j, pos := range positions {
				if results[pos] = resp.Results[j]; results[pos].Error != "" {
					r.front.CountErrors(resultCode(results[pos]), 1)
				}
			}
			return
		}
		var failed fingerprint.BatchResult
		if ae := rejection(err); ae != nil {
			// The shard answered; it just refused the request. Keep the
			// daemon's own code.
			failed = fingerprint.BatchResult{Error: fmt.Sprintf("shard %d: %v", sid, err), Code: ae.Code}
		} else {
			unreachable[sid] = true
			failed = fingerprint.BatchResult{
				Error: fmt.Sprintf("shard %d unreachable: %v", sid, err),
				Code:  fingerprint.ErrCodeShardUnreachable,
			}
		}
		r.front.CountErrors(failed.Code, len(positions))
		for _, pos := range positions {
			results[pos] = failed
		}
	})
	scatterSpan.SetAttr("shards", strconv.Itoa(involved))
	return results, shardNames(unreachable)
}

// resultCode is a failed result's wire code; a reply without one (a
// daemon predating codes) is a bad request.
func resultCode(res fingerprint.BatchResult) string {
	return cmp.Or(res.Code, fingerprint.ErrCodeBadRequest)
}

func (r *Router) handleQuery(w http.ResponseWriter, req *http.Request) {
	started := time.Now()
	r.front.Queries.Add(1)
	var q fingerprint.QueryRequest
	if !r.front.Decode(w, req, &q) {
		return
	}
	// Cache lookup keys on the exact request triple; the generation is
	// snapshotted BEFORE the scatter so a write landing mid-flight still
	// invalidates whatever this request caches afterwards.
	var (
		key cacheKey
		sid int
		gen uint64
	)
	if r.cache != nil {
		sid = r.m.Shard(q.Label)
		key = newCacheKey(q)
		_, lookup := obs.StartSpan(req.Context(), "cache_lookup")
		resp, ok := r.cache.get(key)
		lookup.SetAttr("hit", strconv.FormatBool(ok))
		lookup.End()
		if ok {
			r.front.Latency.Observe(time.Since(started))
			writeJSON(w, resp)
			return
		}
		gen = r.cache.gen(sid)
	}
	results, _ := r.scatter(req.Context(), []fingerprint.QueryRequest{q})
	if res := results[0]; res.Error != "" {
		// A single query has no partial result to return: its owning
		// shard being down is a gateway failure (shard_unreachable, 502),
		// and a shard's rejection (limit_exceeded vs bad_request vs
		// body_too_large) answers with the envelope — code AND status — a
		// single daemon would. scatter counted it.
		code := resultCode(res)
		fingerprint.WriteError(w, fingerprint.StatusForErrCode(code), code, "%s", res.Error)
		return
	}
	if r.cache != nil {
		r.cache.put(key, sid, gen, results[0].QueryResponse)
	}
	r.front.Latency.Observe(time.Since(started))
	writeJSON(w, results[0].QueryResponse)
}

func (r *Router) handleBatch(w http.ResponseWriter, req *http.Request) {
	started := time.Now()
	r.front.Batches.Add(1)
	var batch fingerprint.BatchRequest
	if !r.front.Decode(w, req, &batch) {
		return
	}
	if ae := r.front.AdmitBatch(len(batch.Queries)); ae != nil {
		fingerprint.WriteAPIError(w, ae)
		return
	}
	r.front.Queries.Add(uint64(len(batch.Queries)))
	results, unreachable := r.scatter(req.Context(), batch.Queries)
	r.front.Latency.Observe(time.Since(started))
	writeJSON(w, fingerprint.BatchResponse{Results: results, UnreachableShards: unreachable})
}
