// Package serve is the declarative serving layer of the accountability
// tier. A BackendSpec names and tunes a nearest-neighbour backend; a
// Deployment assembles one linkage database into a complete serving
// topology — a single ingest-enabled query service, or a sharded
// scatter-gather router over per-shard services — behind the versioned
// /v1 wire protocol. The caltrain facade's Deployment and both serving
// daemons (caltrain-serve, caltrain-router) build through this package,
// so a new backend (PQ, HNSW) or topology plugs in at this one seam:
// implement BackendSpec, and every entry point can serve it.
package serve

import (
	"fmt"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
)

// BackendSpec declaratively selects and tunes a nearest-neighbour
// serving backend. It replaces the "linear"/"flat"/"ivf" string
// switches that used to be re-implemented by every entry point: the
// facade and the daemons hold a Spec, and only ParseBackend ever maps a
// wire/flag name to one.
type BackendSpec interface {
	// Kind returns the backend's wire name ("linear", "flat", "ivf",
	// "ivfpq") — what /v1/meta and /v1/stats report.
	Kind() string
	// Build constructs the backend over db.
	Build(db *fingerprint.DB) (fingerprint.Searcher, error)
	// Rebuild returns the retrain hook the durable write path uses for
	// drift-triggered background retrains, or nil when the backend
	// serves appends exactly and never needs one.
	Rebuild() func(*fingerprint.DB) (fingerprint.Searcher, error)
}

// LinearSpec serves the reference linear scan over the live database
// itself: no snapshot, no index — appends are immediately visible.
type LinearSpec struct{}

// Kind implements BackendSpec.
func (LinearSpec) Kind() string { return "linear" }

// Build implements BackendSpec: the database is its own backend.
func (LinearSpec) Build(db *fingerprint.DB) (fingerprint.Searcher, error) { return db, nil }

// Rebuild implements BackendSpec: a linear scan never retrains.
func (LinearSpec) Rebuild() func(*fingerprint.DB) (fingerprint.Searcher, error) { return nil }

// FlatSpec serves the exact heap-select Flat index over a snapshot of
// the database. It stays exact under appends — the default backend.
type FlatSpec struct{}

// Kind implements BackendSpec.
func (FlatSpec) Kind() string { return "flat" }

// Build implements BackendSpec.
func (FlatSpec) Build(db *fingerprint.DB) (fingerprint.Searcher, error) {
	return index.NewFlat(db), nil
}

// Rebuild implements BackendSpec: Flat appends in place and stays
// exact, so no retrain hook is needed.
func (FlatSpec) Rebuild() func(*fingerprint.DB) (fingerprint.Searcher, error) { return nil }

// IVFSpec serves the approximate inverted-file index, trained with the
// embedded options. Under a durable write path it supplies the
// drift-triggered background retrain.
type IVFSpec struct {
	index.IVFOptions
}

// Kind implements BackendSpec.
func (IVFSpec) Kind() string { return "ivf" }

// Build implements BackendSpec.
func (s IVFSpec) Build(db *fingerprint.DB) (fingerprint.Searcher, error) {
	return index.TrainIVF(db, s.IVFOptions)
}

// Rebuild implements BackendSpec: retrain with the same options over a
// fresh snapshot, for the write path's drift-triggered hot swap.
func (s IVFSpec) Rebuild() func(*fingerprint.DB) (fingerprint.Searcher, error) {
	opts := s.IVFOptions
	return func(snap *fingerprint.DB) (fingerprint.Searcher, error) {
		return index.TrainIVF(snap, opts)
	}
}

// IVFPQSpec serves the product-quantized inverted-file index: IVF's
// coarse structure with M-byte codes instead of float vectors in the
// lists, ~4·dim/M times smaller in memory, scanned by ADC table
// lookups and re-ranked exactly against the database's own rows. Like
// IVFSpec it supplies the drift-triggered background retrain for
// durable write paths.
type IVFPQSpec struct {
	index.IVFPQOptions
}

// Kind implements BackendSpec.
func (IVFPQSpec) Kind() string { return "ivfpq" }

// Build implements BackendSpec.
func (s IVFPQSpec) Build(db *fingerprint.DB) (fingerprint.Searcher, error) {
	return index.TrainIVFPQ(db, s.IVFPQOptions)
}

// Rebuild implements BackendSpec: retrain with the same options over a
// fresh snapshot, for the write path's drift-triggered hot swap.
func (s IVFPQSpec) Rebuild() func(*fingerprint.DB) (fingerprint.Searcher, error) {
	opts := s.IVFPQOptions
	return func(snap *fingerprint.DB) (fingerprint.Searcher, error) {
		return index.TrainIVFPQ(snap, opts)
	}
}

// PrebuiltSpec wraps an already-built backend — one a program trained
// or loaded itself — so it serves through the same Deployment layer as
// a freshly trained one. It cannot be sharded: the one searcher covers
// the whole database.
type PrebuiltSpec struct {
	// Searcher is the backend to serve.
	Searcher fingerprint.Searcher
	// RebuildFunc optionally supplies the drift-triggered retrain hook
	// (e.g. retraining a loaded IVF index with the daemon's options).
	RebuildFunc func(*fingerprint.DB) (fingerprint.Searcher, error)
}

// Kind implements BackendSpec.
func (s PrebuiltSpec) Kind() string { return s.Searcher.Kind() }

// Build implements BackendSpec: the backend already exists, and
// index.Attach makes it db's — refused with index.ErrForeignIndex when
// its entries are not db's first ones, and caught up by Append when db
// holds more.
func (s PrebuiltSpec) Build(db *fingerprint.DB) (fingerprint.Searcher, error) {
	if err := index.Attach(s.Searcher, db); err != nil {
		return nil, err
	}
	return s.Searcher, nil
}

// Rebuild implements BackendSpec.
func (s PrebuiltSpec) Rebuild() func(*fingerprint.DB) (fingerprint.Searcher, error) {
	return s.RebuildFunc
}

// ParseBackend maps a backend's wire/flag name to its Spec — the single
// place the serving tier turns a string into a backend. The daemons'
// -backend flag and the facade both resolve here. opts carries every
// tunable; the exact backends ignore it, "ivf" reads the embedded
// IVFOptions, and "ivfpq" additionally reads M.
func ParseBackend(kind string, opts index.IVFPQOptions) (BackendSpec, error) {
	switch kind {
	case "linear":
		return LinearSpec{}, nil
	case "flat":
		return FlatSpec{}, nil
	case "ivf":
		return IVFSpec{IVFOptions: opts.IVFOptions}, nil
	case "ivfpq":
		return IVFPQSpec{IVFPQOptions: opts}, nil
	default:
		return nil, fmt.Errorf("serve: unknown backend kind %q (want linear, flat, ivf, or ivfpq)", kind)
	}
}
