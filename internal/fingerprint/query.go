package fingerprint

import (
	"cmp"
	"context"
	"encoding/hex"
	"fmt"
	"strconv"

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

// Failure is a failed result as a single query is refused with: its
// code — a reply predating codes is a bad request — and the status a
// daemon answers that code with; nil for a success.
func (b BatchResult) Failure() *APIError {
	if b.Error == "" {
		return nil
	}
	code := cmp.Or(b.Code, ErrCodeBadRequest)
	return &APIError{Status: StatusForErrCode(code), Code: code, Message: b.Error}
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

// kLimit is the rejection of a query asking for more than maxK
// neighbours, nil within the limit.
func (s *Service) kLimit(q QueryRequest) error {
	if q.K > s.front.MaxK {
		return fmt.Errorf("k %d exceeds limit %d", q.K, s.front.MaxK)
	}
	return nil
}

// queryFailed counts a failed query and returns its per-result error:
// a k over the service limit is a limit violation, anything else (dim
// mismatch, negative k) a bad request.
func (s *Service) queryFailed(q QueryRequest, err error) BatchResult {
	code := ErrCodeBadRequest
	if q.K > s.front.MaxK {
		code = ErrCodeLimitExceeded
	}
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

// Query answers one query from the current backend, its "search"
// stage recorded on ctx's trace, a failure counted: the daemon's answer
// to POST /v1/query, which its Front serves.
func (s *Service) Query(ctx context.Context, q QueryRequest) BatchResult {
	sr := s.Searcher()
	_, span := obs.StartSpan(ctx, "search")
	span.SetAttr("backend", sr.Kind())
	span.SetAttr("kernel", kernel.Active())
	resp, err := s.runQuery(sr, q)
	span.SetError(err)
	span.End()
	if err != nil {
		return s.queryFailed(q, err)
	}
	return BatchResult{QueryResponse: resp}
}

// RunBatch is Batch without a trace: a batch answered in process,
// neither admitted nor counted nor timed — only its failed queries are
// counted.
func (s *Service) RunBatch(reqs []QueryRequest) *BatchResponse {
	return s.Batch(context.Background(), reqs)
}

// Batch answers a batch of queries from the current backend, each
// succeeding or failing alone: the daemon's answer to POST
// /v1/query/batch, which its Front admits, counts and times. The index
// search is recorded as a "search" stage on ctx's trace.
//
// When the serving backend implements BatchSearcher (every index
// backend does), the whole batch goes down in ONE call: queries sharing
// a label are answered together, by a single blocked sweep of the
// label's vectors or of its centroid table, instead of one scan per
// query. The backend pointer is read once, here, so the entire batch —
// the per-query loop a backend without SearchBatch gets included — is
// answered by one snapshot even while SetSearcher hot-swaps
// concurrently. Results, error codes, and error counts are identical
// to the per-query path.
func (s *Service) Batch(ctx context.Context, reqs []QueryRequest) *BatchResponse {
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
