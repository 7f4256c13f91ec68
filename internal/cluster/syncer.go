package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/ingest"
	"caltrain/internal/obs"
)

// State is the follower state machine's position.
type State int32

const (
	// StateCold: no sync has run; the replica serves whatever its local
	// snapshot + WAL replay restored (possibly nothing).
	StateCold State = iota
	// StateSnapshot: a full resync is fetching and loading the peer's
	// snapshot.
	StateSnapshot
	// StateCatchup: shipping WAL records from the peer until lag
	// reaches zero.
	StateCatchup
	// StateLive: caught up; external writes flow again.
	StateLive
)

// String names the state for /v1/repl/status and logs.
func (s State) String() string {
	switch s {
	case StateCold:
		return "cold"
	case StateSnapshot:
		return "snapshot"
	case StateCatchup:
		return "catchup"
	case StateLive:
		return "live"
	default:
		return fmt.Sprintf("state(%d)", int32(s))
	}
}

// ErrSyncing rejects external writes while a sync runs: accepting them
// would interleave local appends with shipped records and fork the
// replica's sequence history. The router counts the replica degraded
// and retries the batch's entries against it after readmission — via
// the sync itself, which ships them from the peer.
var ErrSyncing = errors.New("cluster: replica is syncing; write it to a live replica")

// errGap marks a WAL catchup that cannot proceed incrementally: the
// peer has compacted records this replica still needs (or their
// histories diverged). The cure is a snapshot bootstrap.
var errGap = errors.New("cluster: wal gap; snapshot bootstrap required")

// Options configures a Syncer.
type Options struct {
	// Peer is the default sync source base URL; empty means this
	// replica only serves (it starts live and syncs only when a nudge
	// names a peer).
	Peer string
	// Service receives the rebuilt searcher on a full resync.
	Service *fingerprint.Service
	// Build trains a serving backend from a fetched snapshot —
	// normally a closure over serve's shard backend builder.
	Build func(db *fingerprint.DB) (fingerprint.Searcher, error)
	// Reopen discards the replica's local WAL state and opens a fresh
	// store over db and its backend — the full-resync handoff. It must
	// wire the same Swapper/Rebuild plumbing the startup store had.
	Reopen func(db *fingerprint.DB, sr fingerprint.Searcher) (*ingest.Store, error)
	// HTTPClient performs replication transfers; nil gets a bounded
	// default.
	HTTPClient *http.Client
	// Logf reports sync outcomes; nil discards.
	Logf func(format string, args ...any)
	// BatchSize bounds one local apply batch during catchup. Default
	// 256 (the wire protocol's default max batch).
	BatchSize int
}

// Syncer is the follower half of a replica: the state machine that
// bootstraps or repairs it from a peer, and the service's long-lived
// Ingester (external writes reject while a sync runs). One Syncer per
// daemon, installed once via Service.SetIngester — it is never
// swapped, so the unsynchronized ingester field is written exactly
// once before serving.
type Syncer struct {
	opts   Options
	client *http.Client
	logf   func(string, ...any)

	store atomic.Pointer[ingest.Store]

	// syncMu serializes sync runs; syncing gates external writes.
	syncMu  sync.Mutex
	syncing atomic.Bool

	state     atomic.Int32
	lag       atomic.Int64
	syncs     atomic.Uint64
	fullSyncs atomic.Uint64
	failures  atomic.Uint64
	lastSync  atomic.Int64
	lastErr   atomic.Value // string

	peerMu sync.Mutex
	peer   string

	closed atomic.Bool
}

// NewSyncer builds the follower. Attach the startup store with
// AttachStore before serving.
func NewSyncer(opts Options) (*Syncer, error) {
	if opts.Service == nil || opts.Build == nil || opts.Reopen == nil {
		return nil, errors.New("cluster: syncer needs Service, Build, and Reopen")
	}
	if opts.BatchSize <= 0 {
		opts.BatchSize = 256
	}
	s := &Syncer{opts: opts, client: opts.HTTPClient, logf: opts.Logf, peer: normalizePeer(opts.Peer)}
	if s.client == nil {
		s.client = defaultHTTPClient()
	}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	s.lastErr.Store("")
	if s.peer == "" {
		// Nothing to follow: this replica is a source from the start.
		s.state.Store(int32(StateLive))
	}
	return s, nil
}

// AttachStore installs the store the daemon opened at startup.
func (s *Syncer) AttachStore(st *ingest.Store) { s.store.Store(st) }

// Store returns the current store — nil only mid-handoff during a
// full resync.
func (s *Syncer) Store() *ingest.Store { return s.store.Load() }

// State returns the state machine's position.
func (s *Syncer) State() State { return State(s.state.Load()) }

// Peer returns the current default sync source.
func (s *Syncer) Peer() string {
	s.peerMu.Lock()
	defer s.peerMu.Unlock()
	return s.peer
}

// IngestBatchCtx implements fingerprint.Ingester by delegating to the
// current store — unless a sync runs, which rejects the write so the
// shipped history stays the only history.
func (s *Syncer) IngestBatchCtx(ctx context.Context, ls []fingerprint.Linkage) (int, error) {
	if s.syncing.Load() {
		return 0, ErrSyncing
	}
	st := s.store.Load()
	if st == nil {
		return 0, ErrSyncing
	}
	return st.IngestBatchCtx(ctx, ls)
}

// IngestStats implements fingerprint.Ingester.
func (s *Syncer) IngestStats() fingerprint.IngestStats {
	st := s.store.Load()
	if st == nil {
		return fingerprint.IngestStats{}
	}
	return st.IngestStats()
}

// Status reports the machine's position for /v1/repl/status.
func (s *Syncer) Status() fingerprint.ReplStatus {
	var head uint64
	if st := s.store.Load(); st != nil {
		head = st.Head()
	}
	lastErr, _ := s.lastErr.Load().(string)
	return fingerprint.ReplStatus{
		State:        s.State().String(),
		LagSeq:       s.lag.Load(),
		Head:         head,
		Peer:         s.Peer(),
		Syncs:        s.syncs.Load(),
		FullSyncs:    s.fullSyncs.Load(),
		LastSyncUnix: s.lastSync.Load(),
		LastError:    lastErr,
	}
}

// MetricFamilies returns the sync gauges for the service registry:
// caltrain_replica_sync_state (0 cold, 1 snapshot, 2 catchup, 3 live)
// and caltrain_replica_sync_lag_seq, plus sync run counters.
func (s *Syncer) MetricFamilies() []*obs.Family {
	return []*obs.Family{
		obs.GaugeFunc("caltrain_replica_sync_state",
			"Replica sync state machine position: 0 cold, 1 snapshot, 2 catchup, 3 live.",
			func() float64 { return float64(s.state.Load()) }),
		obs.GaugeFunc("caltrain_replica_sync_lag_seq",
			"Last observed sequence lag behind the sync peer, in records.",
			func() float64 { return float64(s.lag.Load()) }),
		obs.CounterFunc("caltrain_replica_syncs_total",
			"Completed replica sync runs.",
			func() float64 { return float64(s.syncs.Load()) }),
		obs.CounterFunc("caltrain_replica_full_syncs_total",
			"Sync runs that needed a snapshot bootstrap, not WAL catchup alone.",
			func() float64 { return float64(s.fullSyncs.Load()) }),
		obs.CounterFunc("caltrain_replica_sync_failures_total",
			"Sync runs that failed and will be retried on the next nudge.",
			func() float64 { return float64(s.failures.Load()) }),
	}
}

// HandleSync is POST /v1/repl/sync — the repair nudge. The sync runs
// asynchronously; the 202 body is the status at accept time. A nudge
// while a sync runs is a no-op acknowledgment.
func (s *Syncer) HandleSync(w http.ResponseWriter, r *http.Request) {
	var req fingerprint.ReplSyncRequest
	if r.Body != nil {
		// An empty body is a bare nudge; a malformed one is an error.
		if err := decodeJSON(r.Body, &req); err != nil && err != io.EOF {
			fingerprint.WriteError(w, http.StatusBadRequest, fingerprint.ErrCodeBadRequest,
				"bad sync request: %v", err)
			return
		}
	}
	peer := normalizePeer(req.Peer)
	if peer != "" {
		s.peerMu.Lock()
		s.peer = peer
		s.peerMu.Unlock()
	}
	if s.Peer() == "" {
		fingerprint.WriteError(w, http.StatusBadRequest, fingerprint.ErrCodeBadRequest,
			"no sync peer: configure replication.peer or name one in the nudge")
		return
	}
	if !s.syncing.Load() {
		go func() {
			if err := s.Sync(context.Background()); err != nil {
				s.logf("cluster: nudged sync failed: %v", err)
			}
		}()
	}
	fingerprint.WriteJSON(w, http.StatusAccepted, s.Status())
}

// HandleStatus is GET /v1/repl/status.
func (s *Syncer) HandleStatus(w http.ResponseWriter, _ *http.Request) {
	fingerprint.WriteJSON(w, http.StatusOK, s.Status())
}

// Run performs the startup sync when a peer is configured, retrying
// with backoff until it succeeds or ctx ends — the automatic half of
// self-healing: a restarted replica converges without any operator or
// router involvement.
func (s *Syncer) Run(ctx context.Context) {
	if s.Peer() == "" {
		return
	}
	backoff := 500 * time.Millisecond
	for ctx.Err() == nil && !s.closed.Load() {
		err := s.Sync(ctx)
		if err == nil {
			return
		}
		s.logf("cluster: startup sync: %v (retrying in %v)", err, backoff)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
	}
}

// Sync drives one run of the state machine: incremental WAL catchup
// when the histories allow it, snapshot bootstrap when they do not.
// External writes reject for the duration. Runs serialize; a second
// caller blocks until the first finishes, then syncs again (cheap when
// already caught up).
func (s *Syncer) Sync(ctx context.Context) error {
	peer := s.Peer()
	if peer == "" {
		return errors.New("cluster: no sync peer configured")
	}
	if s.closed.Load() {
		return errors.New("cluster: syncer closed")
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	s.syncing.Store(true)
	defer s.syncing.Store(false)

	started := time.Now()
	full := false
	pc := fingerprint.NewClient(peer, s.client)
	err := s.catchup(ctx, pc)
	if errors.Is(err, errGap) {
		full = true
		err = s.fullResync(ctx, pc)
	}
	if err != nil {
		s.failures.Add(1)
		s.lastErr.Store(err.Error())
		if s.State() != StateLive {
			s.state.Store(int32(StateCold))
		}
		return err
	}
	s.state.Store(int32(StateLive))
	s.lag.Store(0)
	s.syncs.Add(1)
	if full {
		s.fullSyncs.Add(1)
	}
	s.lastSync.Store(time.Now().Unix())
	s.lastErr.Store("")
	kind := "catchup"
	if full {
		kind = "snapshot bootstrap"
	}
	s.logf("cluster: sync from %s via %s reached live in %v (head %d)",
		peer, kind, time.Since(started).Round(time.Millisecond), s.Status().Head)
	return nil
}

// catchup ships WAL records from peer until lag reaches zero,
// applying them through the store's durable, idempotent write path.
// It returns errGap when the peer cannot supply the records this
// replica needs next.
func (s *Syncer) catchup(ctx context.Context, peer *fingerprint.Client) error {
	st := s.store.Load()
	if st == nil {
		return errGap
	}
	s.state.Store(int32(StateCatchup))
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		from := st.Head()
		head, body, err := fetchWAL(ctx, peer, from)
		if err != nil {
			return err
		}
		applied, err := s.applyShipped(ctx, st, from, body)
		body.Close()
		if err != nil {
			return err
		}
		if head <= from {
			// The peer knows no more than we do (head == from), or less
			// (a symmetric peering where we are ahead): caught up.
			s.lag.Store(0)
			return nil
		}
		s.lag.Store(int64(head - st.Head()))
		if applied == 0 {
			// Lag remains but the peer shipped nothing applicable: the
			// records were compacted away. Bootstrap instead.
			return errGap
		}
	}
}

// applyShipped replays one ship stream into the store, returning how
// many records advanced the head. Records below the local head are
// idempotently skipped; a record past it means the stream has a hole
// (compacted peer WAL) and surfaces as errGap.
func (s *Syncer) applyShipped(ctx context.Context, st *ingest.Store, from uint64, body io.Reader) (int, error) {
	sr, err := ingest.NewShipReader(body)
	if err != nil {
		return 0, err
	}
	if sr.Dim() != st.Dim() {
		return 0, errGap
	}
	expect := from
	applied := 0
	batch := make([]fingerprint.Linkage, 0, s.opts.BatchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := st.IngestBatchCtx(ctx, batch); err != nil {
			return fmt.Errorf("cluster: catchup apply: %w", err)
		}
		applied += len(batch)
		batch = batch[:0]
		return nil
	}
	for {
		seq, l, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return applied, err
		}
		switch {
		case seq < expect:
			continue // already applied locally
		case seq > expect:
			return applied, errGap
		}
		batch = append(batch, l)
		expect++
		if len(batch) >= s.opts.BatchSize {
			if err := flush(); err != nil {
				return applied, err
			}
		}
	}
	return applied, flush()
}

// fullResync is the snapshot bootstrap: fetch the peer's snapshot,
// build a serving backend over it, discard local WAL state, hand the
// new world to the service, then catch up the tail.
func (s *Syncer) fullResync(ctx context.Context, peer *fingerprint.Client) error {
	s.state.Store(int32(StateSnapshot))
	db, seq, err := FetchSnapshot(ctx, peer)
	if err != nil {
		return err
	}
	sr, err := s.opts.Build(db)
	if err != nil {
		return fmt.Errorf("cluster: bootstrap build: %w", err)
	}
	// Handoff: writes are already rejected (syncing), so closing the
	// old store strands no acknowledged data the peer does not hold.
	if old := s.store.Swap(nil); old != nil {
		old.Close()
	}
	st, err := s.opts.Reopen(db, sr)
	if err != nil {
		return fmt.Errorf("cluster: bootstrap reopen: %w", err)
	}
	s.store.Store(st)
	s.opts.Service.SetSearcher(sr)
	s.lag.Store(0)
	_ = seq // the store's own head (db.Len()) is the resume point
	return s.catchup(ctx, peer)
}

// Close stops future syncs and closes the current store.
func (s *Syncer) Close() error {
	s.closed.Store(true)
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if st := s.store.Swap(nil); st != nil {
		return st.Close()
	}
	return nil
}
