package main

import (
	"context"
	"encoding/hex"
	"fmt"

	"caltrain/internal/fingerprint"
)

const ackedProbes = 64

// mirrorAcked adds every acknowledged linkage to the harness's copy of
// the database, which then holds what the deployment must be serving.
func mirrorAcked(env *runEnv, acked []fingerprint.IngestEntry) error {
	ls, err := fingerprint.DecodeIngestEntries(acked)
	if err != nil {
		return err
	}
	for _, l := range ls {
		if err := env.db.Add(l); err != nil {
			return err
		}
	}
	return nil
}

// recallAt9 compares routed answers with the exact scan of the mirror
// database on seeded probes: the mean share of the exact top 9 that the
// deployment returned. Linkages are matched by content hash, which is
// unique, because a shard's indices are its own.
func recallAt9(ctx context.Context, env *runEnv, c *fingerprint.Client, probes int) (float64, error) {
	g := env.generator("recall", 0)
	var sum float64
	for i := 0; i < probes; i++ {
		q := g.query(i % env.shape.labels).query
		want, err := env.db.Query(q.Fingerprint, q.Label, q.K)
		if err != nil {
			return 0, err
		}
		got, err := c.QueryCtx(ctx, q.Fingerprint, q.Label, q.K)
		if err != nil {
			return 0, fmt.Errorf("recall probe %d: %w", i, err)
		}
		returned := make(map[string]bool, len(got.Matches))
		for _, m := range got.Matches {
			returned[m.Hash] = true
		}
		hit := 0
		for _, m := range want {
			if returned[hex.EncodeToString(m.Hash[:])] {
				hit++
			}
		}
		sum += float64(hit) / float64(len(want))
	}
	return sum / float64(probes), nil
}

// ackedServed probes up to ackedProbes acknowledged linkages, spread
// evenly over the acknowledgement order, with their own fingerprint. An
// exact-distance backend must return the linkage first at distance 0. The
// product-quantized backend reports approximate distances, under which a
// near-duplicate sibling can rank ahead, so there the linkage must be
// among the k returned.
func ackedServed(ctx context.Context, c *fingerprint.Client, acked []fingerprint.IngestEntry, exactDistances bool) error {
	if len(acked) == 0 {
		return fmt.Errorf("no acknowledged linkage to probe")
	}
	n := min(ackedProbes, len(acked))
	for i := 0; i < n; i++ {
		e := acked[i*len(acked)/n]
		resp, err := c.QueryCtx(ctx, e.Fingerprint, e.Label, queryK)
		if err != nil {
			return fmt.Errorf("acked probe %d: %w", i, err)
		}
		if exactDistances {
			if len(resp.Matches) == 0 || resp.Matches[0].Hash != e.Hash || resp.Matches[0].Distance != 0 {
				return fmt.Errorf("acked linkage %s (label %d) not returned first at distance 0: got %+v", e.Hash[:12], e.Label, resp.Matches[:min(1, len(resp.Matches))])
			}
			continue
		}
		found := false
		for _, m := range resp.Matches {
			found = found || m.Hash == e.Hash
		}
		if !found {
			return fmt.Errorf("acked linkage %s (label %d) not among the %d returned", e.Hash[:12], e.Label, queryK)
		}
	}
	return nil
}
