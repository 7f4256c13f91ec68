package shard

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"caltrain/internal/cluster"
	"caltrain/internal/obs"
)

// Repair loop defaults.
const (
	// DefaultRepairAfter is how long a replica must stay degraded before
	// the repair loop intervenes: long enough that ordinary cooldown +
	// failover absorbs a blip, short enough that a replica that lost
	// writes is driven back to consistency promptly.
	DefaultRepairAfter = 15 * time.Second
	// DefaultRepairInterval is the scan period of the repair loop.
	DefaultRepairInterval = 2 * time.Second
	// DefaultRepairSyncTimeout bounds one repair attempt end to end —
	// nudge through the replica reporting live. Generous: a snapshot
	// bootstrap of a large shard is a bulk transfer.
	DefaultRepairSyncTimeout = 15 * time.Minute
	// defaultRepairPoll is the /v1/repl/status poll period while a
	// nudged sync runs.
	defaultRepairPoll = 250 * time.Millisecond
)

// RepairOptions configures the router's anti-entropy repair loop (see
// WithRepair). Zero fields take the defaults above.
type RepairOptions struct {
	// After is the degradation streak a replica must accumulate before
	// the loop drives a resync.
	After time.Duration
	// Interval is how often the loop scans replica health.
	Interval time.Duration
	// SyncTimeout bounds one repair attempt (nudge + poll to live).
	SyncTimeout time.Duration
	// Poll is the status poll period during an attempt.
	Poll time.Duration
	// Logger receives repair progress lines; nil uses slog.Default.
	Logger *slog.Logger
}

// WithRepair enables the anti-entropy repair loop: when a replica stays
// degraded past RepairOptions.After, the router nudges its sync state
// machine (POST /v1/repl/sync) naming a healthy replica of the same
// shard as the source, polls /v1/repl/status until it reports live, and
// readmits the replica to the rotation. The loop runs in RunRepairLoop.
func WithRepair(o RepairOptions) RouterOption {
	return func(r *Router) {
		cfg := o
		r.repairCfg = &cfg
	}
}

// RepairStats is the "repair" block of the router's GET /stats.
type RepairStats struct {
	// AfterSeconds echoes the configured degradation threshold.
	AfterSeconds float64 `json:"after_seconds"`
	// Attempts counts repairs started; Succeeded those that drove the
	// replica to live, Failed those that errored or timed out.
	Attempts  uint64 `json:"attempts" metric:"caltrain_router_repair_attempts_total" help:"Anti-entropy repairs started by the router's repair loop."`
	Succeeded uint64 `json:"succeeded" metric:"caltrain_router_repair_success_total" help:"Repairs that drove the replica's sync state machine to live."`
	Failed    uint64 `json:"failed" metric:"caltrain_router_repair_failures_total" help:"Repairs that errored or timed out before the replica reached live."`
	// InFlight is how many repairs are running right now.
	InFlight int `json:"in_flight" metric:"caltrain_router_repairs_in_flight" help:"Repairs currently running."`
	// LastReplica/LastPeer/LastUnix/LastError describe the most recently
	// finished attempt.
	LastReplica string `json:"last_replica,omitempty"`
	LastPeer    string `json:"last_peer,omitempty"`
	LastUnix    int64  `json:"last_unix,omitempty"`
	LastError   string `json:"last_error,omitempty"`
}

// repairer is the router's anti-entropy driver: a periodic scan over
// replica health plus one goroutine per in-flight repair.
type repairer struct {
	r   *Router
	cfg RepairOptions

	attempts  atomic.Uint64
	succeeded atomic.Uint64
	failed    atomic.Uint64
	inFlight  atomic.Int64

	mu sync.Mutex
	// retryAt rate-limits attempts per replica: a failed repair (peer
	// also down, replication not enabled on the daemon, timeout) is not
	// retried before its backoff expires, so the loop stays polite
	// against a replica that cannot be repaired.
	retryAt     map[*replicaState]time.Time
	lastReplica string
	lastPeer    string
	lastUnix    int64
	lastError   string
}

func newRepairer(r *Router, cfg RepairOptions) *repairer {
	if cfg.After <= 0 {
		cfg.After = DefaultRepairAfter
	}
	if cfg.Interval <= 0 {
		cfg.Interval = DefaultRepairInterval
	}
	if cfg.SyncTimeout <= 0 {
		cfg.SyncTimeout = DefaultRepairSyncTimeout
	}
	if cfg.Poll <= 0 {
		cfg.Poll = defaultRepairPoll
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &repairer{r: r, cfg: cfg, retryAt: map[*replicaState]time.Time{}}
}

// stats reads the loop's counters and its last attempt; nil when the
// router has no repair loop.
func (rp *repairer) stats() *RepairStats {
	if rp == nil {
		return nil
	}
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return &RepairStats{
		AfterSeconds: rp.cfg.After.Seconds(),
		Attempts:     rp.attempts.Load(),
		Succeeded:    rp.succeeded.Load(),
		Failed:       rp.failed.Load(),
		InFlight:     int(rp.inFlight.Load()),
		LastReplica:  rp.lastReplica,
		LastPeer:     rp.lastPeer,
		LastUnix:     rp.lastUnix,
		LastError:    rp.lastError,
	}
}

// run scans replica health every Interval until ctx is cancelled.
func (rp *repairer) run(ctx context.Context) {
	t := time.NewTicker(rp.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			rp.scan(ctx)
		}
	}
}

// scan starts a repair for every replica degraded past the threshold
// that has a healthy same-shard peer to sync from.
func (rp *repairer) scan(ctx context.Context) {
	now := rp.r.now()
	for sid, states := range rp.r.shards {
		for _, s := range states {
			if s.degradedFor(now) < rp.cfg.After || s.inRepair() {
				continue
			}
			sync, ok := s.r.(SyncableReplica)
			if !ok {
				continue
			}
			rp.mu.Lock()
			wait := now.Before(rp.retryAt[s])
			rp.mu.Unlock()
			if wait {
				continue
			}
			peer := rp.pickPeer(sid, s, now)
			if peer == nil {
				// No healthy source: nothing to repair FROM. The scan
				// returns to this replica once a peer recovers.
				continue
			}
			if !s.beginRepair() {
				continue
			}
			rp.attempts.Add(1)
			rp.inFlight.Add(1)
			go rp.repairOne(ctx, sid, s, sync, peer.r.Addr())
		}
	}
}

// pickPeer chooses a healthy, not-currently-repairing replica of shard
// sid other than s to act as the sync source, in configured preference
// order.
func (rp *repairer) pickPeer(sid int, s *replicaState, now time.Time) *replicaState {
	for _, p := range rp.r.shards[sid] {
		if p == s || !p.healthy(now) || p.inRepair() {
			continue
		}
		// Only daemons running the sync state machine expose the
		// /v1/repl/* source endpoints; symmetric peering means syncable
		// and sourceable are the same property.
		if _, ok := p.r.(SyncableReplica); !ok {
			continue
		}
		return p
	}
	return nil
}

// repairOne drives one replica back to consistency: nudge its sync
// state machine at peer, poll until it reports live, readmit. The whole
// attempt is one root trace ("repair") in the router's tracer, always
// sampled — repairs are rare and every one is worth a look.
func (rp *repairer) repairOne(ctx context.Context, sid int, s *replicaState, sync SyncableReplica, peer string) {
	defer rp.inFlight.Add(-1)
	started := time.Now()
	trace := obs.NewTrace(obs.NewRequestID())
	trace.SetSampled(true)
	tctx := obs.WithTrace(ctx, trace)
	tctx, span := obs.StartSpan(tctx, "repair")
	span.SetAttr("shard", fmt.Sprintf("%d", sid))
	span.SetAttr("replica", s.r.Addr())
	span.SetAttr("peer", peer)
	tctx, cancel := context.WithTimeout(tctx, rp.cfg.SyncTimeout)

	log := rp.cfg.Logger
	log.Info("repair: resyncing degraded replica",
		"shard", sid, "replica", s.r.Addr(), "peer", peer, "request_id", trace.ID())
	err := rp.driveSync(tctx, sync, peer)

	cancel()
	span.SetError(err)
	span.End()
	status := 200
	if err != nil {
		status = 502
	}
	rp.r.front.Observability.Tracer.Finish(trace, status, time.Since(started))

	rp.mu.Lock()
	rp.lastReplica = s.r.Addr()
	rp.lastPeer = peer
	rp.lastUnix = time.Now().Unix()
	if err != nil {
		rp.lastError = err.Error()
		// Back off roughly one threshold before retrying this replica.
		rp.retryAt[s] = rp.r.now().Add(rp.cfg.After)
	} else {
		rp.lastError = ""
		delete(rp.retryAt, s)
	}
	rp.mu.Unlock()

	if err != nil {
		rp.failed.Add(1)
		s.endRepair()
		log.Warn("repair: resync failed",
			"shard", sid, "replica", s.r.Addr(), "peer", peer, "err", err,
			"elapsed", time.Since(started).Round(time.Millisecond))
		return
	}
	rp.succeeded.Add(1)
	// Readmit: the replica is consistent again, clear its cooldown and
	// streak so the read path stops deprioritizing it.
	s.markUp()
	s.endRepair()
	log.Info("repair: replica live again",
		"shard", sid, "replica", s.r.Addr(), "peer", peer,
		"elapsed", time.Since(started).Round(time.Millisecond))
}

// driveSync nudges the replica and polls its status until a sync run
// that completed after the nudge leaves the state machine live, the run
// fails server-side, or ctx expires. Success keys off the Syncs counter
// advancing past its nudge-time value — the accept-time status can
// still read "live" from before the nudged run starts.
func (rp *repairer) driveSync(ctx context.Context, sync SyncableReplica, peer string) error {
	st, err := sync.SyncFrom(ctx, peer)
	if err != nil {
		return fmt.Errorf("sync nudge: %w", err)
	}
	syncs0 := st.Syncs
	t := time.NewTicker(rp.cfg.Poll)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return fmt.Errorf("waiting for live: %w", ctx.Err())
		case <-t.C:
		}
		st, err := sync.SyncStatus(ctx)
		if err != nil {
			// A status fetch can race the daemon restarting mid-repair;
			// keep polling until the deadline rather than giving up on
			// one blip.
			continue
		}
		switch {
		case st.State == cluster.StateLive.String() && st.Syncs > syncs0:
			return nil
		case st.State == cluster.StateCold.String() && st.LastError != "":
			// A failed run parks the machine in cold with the error
			// recorded; retrying immediately would hit the same wall.
			return fmt.Errorf("sync failed on replica: %s", st.LastError)
		}
	}
}
