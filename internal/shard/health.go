package shard

import (
	"context"
	"net/http"
	"sync"
	"time"

	"caltrain/internal/fingerprint"
)

// replicaState tracks one replica's health for failover ordering.
type replicaState struct {
	r  Replica
	mu sync.Mutex
	// fails counts consecutive failures; downUntil is the cooldown end
	// after which the replica is probed again.
	fails     int
	downUntil time.Time
	// downSince marks when the current failure streak began (zero while
	// the streak is clear). It survives cooldown expiry — a flapping
	// replica keeps its streak clock — and only a genuine success resets
	// it, so the repair loop's "degraded past the threshold" test sees
	// sustained trouble, not one blip.
	downSince time.Time
	// repairing marks an anti-entropy repair in flight so the scan loop
	// never starts a second one against the same replica.
	repairing bool
}

func (s *replicaState) healthy(now time.Time) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return now.After(s.downUntil) || s.downUntil.IsZero()
}

func (s *replicaState) markUp() {
	s.mu.Lock()
	s.fails = 0
	s.downUntil = time.Time{}
	s.downSince = time.Time{}
	s.mu.Unlock()
}

func (s *replicaState) markDown(now time.Time, base time.Duration) {
	s.mu.Lock()
	s.fails++
	if s.downSince.IsZero() {
		s.downSince = now
	}
	// Exponential cooldown, capped at 32× the base, so a dead replica
	// costs at most one probe per window instead of one per batch.
	backoff := base << min(s.fails-1, 5)
	s.downUntil = now.Add(backoff)
	s.mu.Unlock()
}

// degradedFor reports how long the replica's current failure streak has
// run, zero when it has none.
func (s *replicaState) degradedFor(now time.Time) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.downSince.IsZero() {
		return 0
	}
	return now.Sub(s.downSince)
}

// beginRepair claims the replica for one repair attempt; false when one
// is already in flight.
func (s *replicaState) beginRepair() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.repairing {
		return false
	}
	s.repairing = true
	return true
}

func (s *replicaState) endRepair() {
	s.mu.Lock()
	s.repairing = false
	s.mu.Unlock()
}

func (s *replicaState) inRepair() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.repairing
}

// replicaOrder returns shard sid's replicas in the order tryReplicas
// walks them: healthy replicas first, configured order preserved within
// each class. Cooling-down replicas stay as a last resort, so a shard
// whose every replica recently failed is still probed rather than
// written off — but a hung replica the read path has already cooled
// down cannot eat the budget ahead of a live one.
func (r *Router) replicaOrder(sid int) []*replicaState {
	states := r.shards[sid]
	now := r.now()
	order := make([]*replicaState, 0, len(states))
	var down []*replicaState
	for _, s := range states {
		if s.healthy(now) {
			order = append(order, s)
		} else {
			down = append(down, s)
		}
	}
	return append(order, down...)
}

// tryReplicas is the router's one failover loop: queries, health probes
// and stats fetches all reach a shard through it. It gives shard sid one
// shard timeout, shared by every attempt, and calls try on the shard's
// replicas in replicaOrder until try reports done — an answer, or an
// error no other replica would change — and returns that call's error.
// Otherwise it moves on to the next replica, unless the timeout is
// spent: further replicas would only fail at once and bury the error of
// the one that burned the budget. It returns the last error when no
// replica finished.
//
// The loop keeps no health state. What an outcome means for a replica is
// the caller's verdict: callShard marks replicas up and down, probes and
// stats fetches must not — a /healthz success clearing downSince would
// starve the repair loop of the replicas it exists to resync.
func (r *Router) tryReplicas(parent context.Context, sid int, try func(ctx context.Context, s *replicaState) (done bool, err error)) error {
	ctx, cancel := context.WithTimeout(parent, r.timeout)
	defer cancel()
	var lastErr error
	for _, s := range r.replicaOrder(sid) {
		done, err := try(ctx, s)
		if done {
			return err
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return lastErr
}

// HealthzResponse is the JSON body of the router's GET /healthz: 200
// when every shard has at least one live replica, 503 otherwise, with
// the dead shards named either way.
type HealthzResponse struct {
	Status            string   `json:"status"` // "ok" or "degraded"
	Shards            int      `json:"shards"`
	UnreachableShards []string `json:"unreachable_shards,omitempty"`
}

func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	dead := make([]bool, len(r.shards))
	eachShard(r.shards, func(sid int, _ []*replicaState) {
		// A shard is alive if any replica answers /healthz.
		dead[sid] = r.tryReplicas(req.Context(), sid, func(ctx context.Context, s *replicaState) (bool, error) {
			err := s.r.Healthz(ctx)
			return err == nil, err
		}) != nil
	})
	resp := HealthzResponse{Status: "ok", Shards: len(r.shards), UnreachableShards: shardNames(dead)}
	if len(resp.UnreachableShards) > 0 {
		resp.Status = "degraded"
		fingerprint.WriteJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, resp)
}
