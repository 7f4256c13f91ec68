package fingerprint

import (
	"context"
	"encoding/hex"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"caltrain/internal/kernel"
	"caltrain/internal/obs"
)

// QueryRequest is the JSON body of a POST /query and one element of a
// batch request.
type QueryRequest struct {
	Fingerprint []float32 `json:"fingerprint"`
	Label       int       `json:"label"`
	K           int       `json:"k"`
}

// MatchJSON is one result row in a QueryResponse.
type MatchJSON struct {
	Index    int     `json:"index"`
	Source   string  `json:"source"`
	Label    int     `json:"label"`
	Hash     string  `json:"hash"`
	Distance float64 `json:"distance"`
}

// QueryResponse is the JSON body of a successful query.
type QueryResponse struct {
	Matches []MatchJSON    `json:"matches"`
	Sources map[string]int `json:"sources"`
}

// BatchRequest is the JSON body of a POST /query/batch.
type BatchRequest struct {
	Queries []QueryRequest `json:"queries"`
}

// BatchResult is one element of a BatchResponse: either a response or a
// per-query error. A bad query in a batch fails alone, not the batch.
type BatchResult struct {
	*QueryResponse
	Error string `json:"error,omitempty"`
	// Code is the stable wire-protocol code classifying Error (one of
	// the ErrCode constants), empty on success. It survives routing: a
	// shard's per-result rejection keeps its code through the router.
	Code string `json:"code,omitempty"`
}

// BatchResponse is the JSON body of a POST /query/batch reply.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
	// UnreachableShards names shards a routed batch could not reach
	// (internal/shard): their queries carry per-result errors and the
	// batch is partial rather than failed. Always empty when a single
	// daemon answers directly.
	UnreachableShards []string `json:"unreachable_shards,omitempty"`
}

// queryErrCode classifies a runQuery failure for the error envelope: a
// k over the service limit is a limit violation, anything else (dim
// mismatch, negative k) a bad request.
func queryErrCode(req QueryRequest, maxK int) string {
	if req.K > maxK {
		return ErrCodeLimitExceeded
	}
	return ErrCodeBadRequest
}

// kLimit is the rejection of a query asking for more than maxK
// neighbours, nil within the limit.
func (s *Service) kLimit(q QueryRequest) error {
	if q.K > s.front.MaxK {
		return fmt.Errorf("k %d exceeds limit %d", q.K, s.front.MaxK)
	}
	return nil
}

// queryFailed counts a failed query of a batch and returns its
// per-result error: failures inside a 200 batch count toward /stats
// errors just like failures on /query.
func (s *Service) queryFailed(q QueryRequest, err error) BatchResult {
	code := queryErrCode(q, s.front.MaxK)
	s.front.CountErrors(code, 1)
	return BatchResult{Error: err.Error(), Code: code}
}

// runQuery executes one query against sr — the backend its caller read
// once, with s.Searcher(), for everything it does on this request —
// enforcing the k limit. The service's read lock covers only that
// pointer fetch: a snapshot backend is immutable, so queries proceed
// lock-free while SetSearcher swaps the pointer.
func (s *Service) runQuery(sr Searcher, req QueryRequest) (*QueryResponse, error) {
	if err := s.kLimit(req); err != nil {
		return nil, err
	}
	matches, err := sr.Search(Fingerprint(req.Fingerprint), req.Label, req.K)
	if err != nil {
		return nil, err
	}
	return matchesResponse(matches), nil
}

// matchesResponse converts backend matches to the wire form shared by
// the single-query and batched paths.
func matchesResponse(matches []Match) *QueryResponse {
	resp := &QueryResponse{Sources: SourcesOf(matches), Matches: make([]MatchJSON, len(matches))}
	for i, m := range matches {
		resp.Matches[i] = MatchJSON{
			Index:    m.Index,
			Source:   m.Source,
			Label:    m.Label,
			Hash:     hex.EncodeToString(m.Hash[:]),
			Distance: m.Distance,
		}
	}
	return resp
}

func (s *Service) handleQuery(w http.ResponseWriter, r *http.Request) {
	started := time.Now()
	s.front.Queries.Add(1)
	var req QueryRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	sr := s.Searcher()
	_, span := obs.StartSpan(r.Context(), "search")
	span.SetAttr("backend", sr.Kind())
	span.SetAttr("kernel", kernel.Active())
	resp, err := s.runQuery(sr, req)
	span.SetError(err)
	span.End()
	if err != nil {
		s.front.Fail(w, http.StatusBadRequest, queryErrCode(req, s.front.MaxK), "%v", err)
		return
	}
	s.front.Latency.Observe(time.Since(started))
	writeJSON(w, resp)
}

// RunBatch executes a batch of queries against the current backend,
// bypassing HTTP — the in-process path a local shard replica serves. Each
// query succeeds or fails independently; counters and the latency
// histogram are updated exactly as for a POST /query/batch.
func (s *Service) RunBatch(reqs []QueryRequest) *BatchResponse {
	return s.RunBatchCtx(context.Background(), reqs)
}

// RunBatchCtx is RunBatch with a caller-supplied context: the index
// search is recorded as a "search" stage on the context's trace, so a
// routed batch's request log attributes time to the search itself.
//
// When the serving backend implements BatchSearcher (every index
// backend does), the whole batch goes down in ONE call: queries sharing
// a label are answered together, by a single blocked sweep of the
// label's vectors or of its centroid table, instead of one scan per
// query. The backend pointer is read once, here, so the entire batch —
// the per-query loop a backend without SearchBatch gets included — is
// answered by one snapshot even while SetSearcher hot-swaps
// concurrently. Results, error codes, and /stats counters are identical
// to the per-query path.
func (s *Service) RunBatchCtx(ctx context.Context, reqs []QueryRequest) *BatchResponse {
	started := time.Now()
	s.front.Batches.Add(1)
	s.front.Queries.Add(uint64(len(reqs)))
	sr := s.Searcher()
	_, span := obs.StartSpan(ctx, "search")
	span.SetAttr("backend", sr.Kind())
	span.SetAttr("kernel", kernel.Active())
	span.SetAttr("batch", strconv.Itoa(len(reqs)))
	defer span.End()
	out := &BatchResponse{Results: make([]BatchResult, len(reqs))}
	if bs, ok := sr.(BatchSearcher); ok && len(reqs) > 1 {
		s.runBatchSearch(bs, reqs, out)
	} else {
		for i, q := range reqs {
			resp, err := s.runQuery(sr, q)
			if err != nil {
				out.Results[i] = s.queryFailed(q, err)
				continue
			}
			out.Results[i] = BatchResult{QueryResponse: resp}
		}
	}
	s.front.Latency.Observe(time.Since(started))
	return out
}

// runBatchSearch answers reqs through the backend's batched path.
// Queries over the k limit fail up front without reaching the backend;
// backend-side rejections (dim mismatch) keep per-query independence
// and map to the same stable error codes the per-query path produces.
func (s *Service) runBatchSearch(bs BatchSearcher, reqs []QueryRequest, out *BatchResponse) {
	fs := make([]Fingerprint, 0, len(reqs))
	labels := make([]int, 0, len(reqs))
	ks := make([]int, 0, len(reqs))
	idx := make([]int, 0, len(reqs))
	for i, q := range reqs {
		if err := s.kLimit(q); err != nil {
			out.Results[i] = s.queryFailed(q, err)
			continue
		}
		fs = append(fs, Fingerprint(q.Fingerprint))
		labels = append(labels, q.Label)
		ks = append(ks, q.K)
		idx = append(idx, i)
	}
	if len(fs) == 0 {
		return
	}
	results, errs := bs.SearchBatch(fs, labels, ks)
	for j, i := range idx {
		if err := errs[j]; err != nil {
			out.Results[i] = s.queryFailed(reqs[i], err)
			continue
		}
		out.Results[i] = BatchResult{QueryResponse: matchesResponse(results[j])}
	}
}

func (s *Service) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !s.front.Decode(w, r, &req) {
		return
	}
	if ae := s.BatchLimit(len(req.Queries)); ae != nil {
		WriteAPIError(w, ae)
		return
	}
	writeJSON(w, s.RunBatchCtx(r.Context(), req.Queries))
}

// BatchLimit returns the rejection POST /v1/query/batch answers a batch
// of n queries with — empty, or over the service's limit — counted as
// one error; nil within the limit. shard.LocalReplica calls it before
// RunBatchCtx, so a sub-batch an in-process shard refuses is refused,
// and counted, exactly as its daemon would over HTTP.
func (s *Service) BatchLimit(n int) *APIError { return s.front.AdmitBatch(n) }
