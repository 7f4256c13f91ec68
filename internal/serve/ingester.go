package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"caltrain/internal/fingerprint"
)

// appender matches index.Appender structurally, like internal/ingest.
type appender interface {
	Append(dbIndex int, l fingerprint.Linkage) error
}

// drifter matches index.Drifter structurally.
type drifter interface {
	Drift() float64
}

// volatileIngester is the non-durable write path of a Deployment built
// without a WAL: batches validate all-or-nothing and apply straight to
// the database and the appendable backend, but nothing is logged — a
// crash loses them. Sharded in-process deployments (Session.RouterHandler)
// use it so POST /ingest routes to the owning shard even when no
// durability was asked for. It reports Drift for /stats but never
// retrains: an approximate (IVF) backend under sustained volatile
// ingest loses recall without bound — the drift-triggered background
// retrain is a property of the durable path (ingest.Store).
type volatileIngester struct {
	mu       sync.Mutex
	db       *fingerprint.DB
	searcher fingerprint.Searcher
	app      appender // nil when the backend is the database itself
	accepted atomic.Uint64
}

// newVolatileIngester wires the in-memory write path over db and its
// serving backend, enforcing the same backend constraints ingest.Open
// does: linear serves the database itself, anything else must append.
func newVolatileIngester(db *fingerprint.DB, searcher fingerprint.Searcher) (*volatileIngester, error) {
	v := &volatileIngester{db: db, searcher: searcher}
	if sdb, ok := searcher.(*fingerprint.DB); ok {
		if sdb != db {
			return nil, fmt.Errorf("serve: linear backend must be the deployment database itself")
		}
	} else {
		ap, ok := searcher.(appender)
		if !ok {
			return nil, fmt.Errorf("serve: %s backend does not support appends", searcher.Kind())
		}
		v.app = ap
	}
	return v, nil
}

// IngestBatch implements fingerprint.Ingester.
func (v *volatileIngester) IngestBatch(ls []fingerprint.Linkage) (int, error) {
	if len(ls) == 0 {
		return 0, nil
	}
	if err := fingerprint.ValidateLinkages(v.db.Dim(), ls...); err != nil {
		return 0, err
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	for i, l := range ls {
		idx := v.db.Len()
		if err := v.db.Add(l); err != nil {
			return i, fmt.Errorf("serve: apply entry %d: %w", i, err)
		}
		if v.app != nil {
			// The stored entry: an appender may alias its fingerprint.
			if err := v.app.Append(idx, v.db.Entry(idx)); err != nil {
				return i, fmt.Errorf("serve: index entry %d: %w", i, err)
			}
		}
	}
	v.accepted.Add(uint64(len(ls)))
	return len(ls), nil
}

// IngestStats implements fingerprint.Ingester. WALBytes stays 0: there
// is no log, which is how /stats tells a volatile write path from a
// durable one.
func (v *volatileIngester) IngestStats() fingerprint.IngestStats {
	st := fingerprint.IngestStats{Accepted: v.accepted.Load()}
	if d, ok := v.searcher.(drifter); ok {
		st.Drift = d.Drift()
	}
	return st
}
