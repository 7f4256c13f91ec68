package shard

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"

	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
)

// quorumFor returns the acknowledgment count shard writes need out of
// n replicas.
func (r *Router) quorumFor(n int) int {
	if r.writeQuorum > 0 {
		return min(r.writeQuorum, n)
	}
	return n/2 + 1
}

// shardIngestResult is one shard's outcome of a fanned-out write.
type shardIngestResult struct {
	entries  int
	acked    int
	quorum   int
	rejected string   // non-empty: a replica definitively refused the batch (4xx)
	code     string   // the refusal's wire code ("" when no replica answered one)
	failed   []string // replicas that did not acknowledge
}

// ingestShard fans one shard's entries out to ALL of its replicas
// concurrently — writes replicate, they do not fail over — and counts
// acknowledgments against the write quorum. Replica faults feed the
// same health state the read path uses; a definitive rejection (4xx:
// the batch itself is unacceptable, every replica of the shard would
// refuse it the same way) aborts the shard without cooldowns.
func (r *Router) ingestShard(parent context.Context, sid int, entries []fingerprint.IngestEntry) shardIngestResult {
	ctx, cancel := context.WithTimeout(parent, r.timeout)
	defer cancel()
	states := r.shards[sid]
	res := shardIngestResult{entries: len(entries), quorum: r.quorumFor(len(states))}
	errs := make([]error, len(states))
	var wg sync.WaitGroup
	for i, s := range states {
		wg.Add(1)
		go func() {
			defer wg.Done()
			actx, attempt := obs.StartSpan(ctx, "ingest_attempt")
			attempt.SetAttr("shard", strconv.Itoa(sid))
			attempt.SetAttr("replica", s.r.Addr())
			defer attempt.End()
			if ir, ok := s.r.(IngestReplica); ok {
				_, errs[i] = ir.Ingest(actx, entries)
			} else {
				// The reply a read-only daemon answers with over HTTP, so
				// the accounting below treats both alike.
				errs[i] = &fingerprint.APIError{
					Status:  http.StatusNotImplemented,
					Code:    fingerprint.ErrCodeIngestDisabled,
					Message: fmt.Sprintf("replica %s does not accept writes", s.r.Addr()),
				}
			}
			attempt.SetError(errs[i])
		}()
	}
	wg.Wait()
	now := r.now()
	for i, s := range states {
		err := errs[i]
		if err == nil {
			s.markUp()
			res.acked++
			continue
		}
		var ae *fingerprint.APIError
		switch {
		case rejection(err) != nil:
			// Alive but refused: a batch problem, not a health event.
			// Also a missed acknowledgment — if the rest of the shard
			// reaches quorum anyway, this replica is divergent, not
			// authoritative.
			s.markUp()
			res.rejected, res.code = err.Error(), rejection(err).Code
		case errors.As(err, &ae) && ae.Status == http.StatusNotImplemented:
			// A read-only replica (501: no -wal) is alive and serving
			// queries; it just cannot take writes. Count it as a missed
			// acknowledgment without poisoning the read path's health
			// state with a cooldown.
			s.markUp()
			res.code = cmp.Or(res.code, ae.Code)
		case parent.Err() == nil:
			s.markDown(now, r.cooldown)
		}
		res.failed = append(res.failed, s.r.Addr())
	}
	sort.Strings(res.failed)
	return res
}

func (r *Router) handleIngest(w http.ResponseWriter, req *http.Request) {
	r.front.Ingests.Add(1)
	var batch fingerprint.IngestRequest
	if !r.front.Decode(w, req, &batch) {
		return
	}
	if ae := r.front.AdmitIngest(len(batch.Entries)); ae != nil {
		fingerprint.WriteAPIError(w, ae)
		return
	}
	// Sub-batches apply atomically per shard, but a multi-shard request
	// is not globally atomic — so everything a shard would refuse is
	// refused here, by the validator every write path runs, before any
	// shard sees a byte. Only a mismatch against the daemons' database
	// dimension (taken here from entry 0) can still surface per shard.
	ls, err := fingerprint.DecodeIngestEntries(batch.Entries)
	if err == nil {
		err = fingerprint.ValidateLinkages(len(ls[0].F), ls...)
	}
	if err != nil {
		r.front.Fail(w, http.StatusBadRequest, fingerprint.ErrCodeBadRequest, "%v", err)
		return
	}
	byShard := make([][]fingerprint.IngestEntry, len(r.shards))
	for _, e := range batch.Entries {
		sid := r.m.Shard(e.Label)
		byShard[sid] = append(byShard[sid], e)
	}
	results := make([]shardIngestResult, len(r.shards))
	// The replication fan-out runs under one "replicate" span; per-replica
	// attempt spans parent under it via rctx.
	rctx, replicate := obs.StartSpan(req.Context(), "replicate")
	involved := eachShard(byShard, func(sid int, entries []fingerprint.IngestEntry) {
		results[sid] = r.ingestShard(rctx, sid, entries)
	})
	replicate.SetAttr("shards", strconv.Itoa(involved))
	replicate.End()

	out := fingerprint.IngestResponse{}
	failed := make([]bool, len(r.shards))
	for sid, res := range results {
		if res.entries == 0 {
			continue // the batch had nothing for this shard
		}
		if r.cache != nil {
			// Invalidate after the replicas applied the writes: cached
			// responses for the touched shards go stale in one generation
			// bump, and in-flight queries that raced the write stored a
			// pre-bump generation so their entries miss too.
			r.cache.bump(sid)
		}
		if res.acked >= res.quorum {
			// A met quorum is authoritative even if a divergent replica
			// rejected the sub-batch: the entries ARE durable on a
			// quorum, so reporting them failed would invite a
			// duplicating retry. The rejecting replica is listed as
			// degraded like any other non-acknowledger.
			out.Accepted += res.entries
			out.DegradedReplicas = append(out.DegradedReplicas, res.failed...)
			continue
		}
		if res.rejected != "" {
			// No quorum and a daemon validated and refused the
			// sub-batch (e.g. the deployment's database dimension
			// differs): a definitive failure for those entries, no
			// cooldowns.
			out.ShardErrors = append(out.ShardErrors, fmt.Sprintf("shard %d rejected the batch: %s", sid, res.rejected))
		} else {
			out.ShardErrors = append(out.ShardErrors,
				fmt.Sprintf("shard %d: %d of %d replicas acknowledged (quorum %d; failed: %s)",
					sid, res.acked, len(r.shards[sid]), res.quorum, strings.Join(res.failed, ", ")))
		}
		out.Failed += res.entries
		failed[sid] = true
		r.front.CountErrors(cmp.Or(res.code, fingerprint.ErrCodeShardUnreachable), res.entries)
	}
	out.FailedShards = shardNames(failed)
	sort.Strings(out.DegradedReplicas)
	sort.Strings(out.ShardErrors)
	writeJSON(w, out)
}
