package serve

import (
	"cmp"
	"fmt"
	"maps"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/shard"
)

// validateTopology is the routed part of validate: a deployment is a
// router or a daemon, never both, and every check of the topology block
// that needs no shard map runs here; Build checks the shard IDs against
// the map it loads.
func (d Deployment) validateTopology() error {
	t := d.Topology
	if d.Backend != (BackendConfig{}) || d.WAL != nil || d.Replication != nil ||
		d.Shards != 0 || d.ReplicasPerShard != 0 || d.VolatileWrites {
		return fmt.Errorf("serve: topology conflicts with daemon fields (backend, wal, replication, shards, replicas_per_shard, volatile_writes): a config is a router or a daemon, not both")
	}
	if d.Limits != nil && d.Limits.MaxK != 0 {
		// The router has no enforcement point for k: it is bounded by the
		// shard daemons, so writing it here is refused rather than ignored.
		return refuse("limits.max_k", "is enforced by the shard daemons, not the router — set it in each daemon's config")
	}
	if t.Map == "" {
		return refuse("topology.map", "is required (the shard map written by caltrain-shard)")
	}
	if len(t.Shards) == 0 {
		return refuse("topology.shards", "is required (shard ID -> replica base URLs)")
	}
	r := cmp.Or(t.Repair, &RepairConfig{})
	if err := cmp.Or(negative("topology.write_quorum", t.WriteQuorum, "= majority"),
		negative("topology.timeout", t.Timeout, "means the default"), negative("topology.cooldown", t.Cooldown, "means the default"),
		negative("topology.response_cache", t.ResponseCache, "= off"), negative("topology.repair.after", r.After, "means the default"),
		negative("topology.repair.interval", r.Interval, "means the default"),
		negative("topology.repair.sync_timeout", r.SyncTimeout, "means the default")); err != nil {
		return err
	}
	for _, key := range slices.Sorted(maps.Keys(t.Shards)) {
		// Build looks shard N up as strconv.Itoa(N): any other spelling
		// of N ("00", "+1") would never be read, and its replicas lost.
		if sid, err := strconv.Atoi(key); err == nil && strconv.Itoa(sid) != key {
			return refuse("topology.shards", "key %q is not a shard ID: write shard %d as %q", key, sid, strconv.Itoa(sid))
		}
		if len(t.Shards[key]) == 0 {
			return refuse("topology.shards", "lists no replicas for shard %q", key)
		}
		for _, a := range t.Shards[key] {
			if strings.TrimSpace(a) == "" {
				return refuse("topology.shards", "has an empty replica address for shard %q", key)
			}
		}
	}
	return nil
}

// buildRouted assembles the caltrain-router shape: the topology's shard
// map and a router over the shard daemons it names, each replica an
// HTTP client of one daemon (a bare host:port means http).
func (d Deployment) buildRouted() (*Server, error) {
	t := d.Topology
	mf, err := os.Open(t.Map)
	if err != nil {
		return nil, err
	}
	m, err := shard.LoadMap(mf)
	mf.Close()
	if err != nil {
		return nil, err
	}
	replicas := make([][]shard.Replica, m.NumShards())
	for sid := range replicas {
		addrs, ok := t.Shards[strconv.Itoa(sid)]
		if !ok {
			return nil, fmt.Errorf("serve: shard map has %d shards but topology.shards[%q] is missing", m.NumShards(), strconv.Itoa(sid))
		}
		for _, a := range addrs {
			a = strings.TrimSpace(a)
			if !strings.Contains(a, "://") {
				a = "http://" + a
			}
			replicas[sid] = append(replicas[sid], shard.NewHTTPReplica(a, nil))
		}
	}
	// A key the map does not cover is a typo'd or stale shard ID.
	var extra []string
	for key := range t.Shards {
		sid, err := strconv.Atoi(key)
		if err != nil || sid < 0 || sid >= m.NumShards() {
			extra = append(extra, key)
		}
	}
	if len(extra) > 0 {
		slices.Sort(extra)
		return nil, fmt.Errorf("serve: topology.shards keys %v are outside the map's %d shards", extra, m.NumShards())
	}
	return d.route(&Server{routes: m.Strategy()}, m, replicas)
}

// route makes srv the scatter-gather router over replicas: the one place
// a shard.Router is made, for in-process shards and shard daemons alike.
// The router takes the request options a daemon's service does (max_k
// is read by the shards only), and the topology's
// knobs when its shards live in other processes. One tracer serves the
// whole topology: the router records the root, and in-process replicas'
// spans flow into the same trace through the request context.
func (d Deployment) route(srv *Server, m *shard.Map, replicas [][]shard.Replica) (*Server, error) {
	srv.tracer = d.Observability.tracer()
	front := append(d.Limits.options(), fingerprint.WithObservability(d.Observability.options("router", srv.tracer)))
	opts := []shard.RouterOption{shard.WithFront(front...)}
	switch t := d.Topology; {
	case t != nil:
		opts = append(opts, shard.WithWriteQuorum(t.WriteQuorum))
		if t.Timeout > 0 {
			opts = append(opts, shard.WithShardTimeout(time.Duration(t.Timeout)))
		}
		if t.Cooldown > 0 {
			opts = append(opts, shard.WithReplicaCooldown(time.Duration(t.Cooldown)))
		}
		if t.ResponseCache > 0 {
			opts = append(opts, shard.WithRouterResponseCache(t.ResponseCache))
		}
		if t.Repair != nil {
			repair := shard.RepairOptions{
				After:       time.Duration(t.Repair.After),
				Interval:    time.Duration(t.Repair.Interval),
				SyncTimeout: time.Duration(t.Repair.SyncTimeout),
			}
			if d.Observability != nil {
				repair.Logger = d.Observability.Logger
			}
			opts = append(opts, shard.WithRepair(repair))
		}
	case d.WAL == nil && !d.VolatileWrites:
		// Every in-process shard service was built read-only; say so on
		// /v1/meta instead of advertising a write path that would only
		// answer 501.
		opts = append(opts, shard.WithIngestCapability(false))
	}
	rt, err := shard.NewRouter(m, replicas, opts...)
	if err != nil {
		srv.Close() // the in-process shards' stores, as on shutdown
		return nil, err
	}
	srv.router, srv.handler = rt, rt.Handler()
	return srv, nil
}
