package serve

import (
	"fmt"
	"log/slog"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"caltrain/internal/obs"
	"caltrain/internal/shard"
)

// RouterPlan is the routed-topology translation of a Config: everything
// caltrain-router -deployment needs to assemble its scatter-gather
// front from the same declarative document format the daemon takes, so
// one config language describes both halves of a deployment.
type RouterPlan struct {
	// Map is the loaded shard map; Replicas the per-shard HTTP replicas
	// in preference order, one row per shard ID.
	Map      *shard.Map
	Replicas [][]shard.Replica
	// Options is the fully assembled router option list: topology knobs,
	// limits, observability, and — when the config has a repair block —
	// the anti-entropy repair loop.
	Options []shard.RouterOption
	// Tracer is the router's tracer, for wiring the debug listener.
	Tracer *obs.Tracer
	// DebugAddr echoes observability.debug_addr (empty = no debug
	// listener).
	DebugAddr string
}

// RouterPlan validates the topology block and translates the config
// into a RouterPlan. Logs (request, slow-query, repair) go to logger;
// nil means slog.Default. Daemon-shape fields (backend, wal,
// replication, shards) conflict with topology: a document is a daemon
// or a router, never both.
func (c Config) RouterPlan(logger *slog.Logger) (*RouterPlan, error) {
	t := c.Topology
	if t == nil {
		return nil, fmt.Errorf("serve: config has no topology block; a router deployment declares topology.map and topology.shards")
	}
	if c.Backend != (BackendConfig{}) || c.WAL != nil || c.Replication != nil ||
		c.Shards != 0 || c.ReplicasPerShard != 0 || c.VolatileWrites {
		return nil, fmt.Errorf("serve: topology conflicts with daemon fields (backend, wal, replication, shards, replicas_per_shard, volatile_writes): a config is a router or a daemon, not both")
	}
	if t.Map == "" {
		return nil, fmt.Errorf("serve: topology.map is required (the shard map written by caltrain-shard)")
	}
	if len(t.Shards) == 0 {
		return nil, fmt.Errorf("serve: topology.shards is required (shard ID -> replica base URLs)")
	}
	if t.WriteQuorum < 0 {
		return nil, fmt.Errorf("serve: topology.write_quorum must be non-negative (0 = majority), got %d", t.WriteQuorum)
	}
	if t.Timeout < 0 || t.Cooldown < 0 {
		return nil, fmt.Errorf("serve: topology.timeout and topology.cooldown must be non-negative (0 means default)")
	}
	if t.ResponseCache < 0 {
		return nil, fmt.Errorf("serve: topology.response_cache must be non-negative (0 = off), got %d", t.ResponseCache)
	}
	if t.Repair != nil && (t.Repair.After < 0 || t.Repair.Interval < 0 || t.Repair.SyncTimeout < 0) {
		return nil, fmt.Errorf("serve: topology.repair durations must be non-negative (0 means default)")
	}

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
		if len(addrs) == 0 {
			return nil, fmt.Errorf("serve: topology.shards[%q] lists no replicas", strconv.Itoa(sid))
		}
		for _, a := range addrs {
			a = strings.TrimSpace(a)
			if a == "" {
				return nil, fmt.Errorf("serve: topology.shards[%q] has an empty replica address", strconv.Itoa(sid))
			}
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
		sort.Strings(extra)
		return nil, fmt.Errorf("serve: topology.shards keys %v are outside the map's %d shards", extra, m.NumShards())
	}

	if err := c.Observability.validate(); err != nil {
		return nil, err
	}
	var oc ObservabilityConfig
	if c.Observability != nil {
		oc = *c.Observability
	}
	if logger != nil {
		oc.Logger = logger
	}
	tracer := oc.tracer()
	opts := []shard.RouterOption{
		shard.WithWriteQuorum(t.WriteQuorum),
		shard.WithObservability(oc.options("router", tracer)),
	}
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
		opts = append(opts, shard.WithRepair(shard.RepairOptions{
			After:       time.Duration(t.Repair.After),
			Interval:    time.Duration(t.Repair.Interval),
			SyncTimeout: time.Duration(t.Repair.SyncTimeout),
			Logger:      oc.Logger,
		}))
	}
	if c.Limits != nil {
		lopts, err := c.Limits.routerOptions()
		if err != nil {
			return nil, err
		}
		opts = append(opts, lopts...)
	}
	return &RouterPlan{
		Map:       m,
		Replicas:  replicas,
		Options:   opts,
		Tracer:    tracer,
		DebugAddr: oc.DebugAddr,
	}, nil
}

// routerOptions is the router-side counterpart of options: the same
// limits block, enforced at the router's door. max_k has no router
// enforcement point (k is bounded by the shard daemons), so writing it
// in a topology config is rejected rather than silently ignored.
func (l *LimitsConfig) routerOptions() ([]shard.RouterOption, error) {
	if err := l.validate(); err != nil {
		return nil, err
	}
	if l.MaxK != 0 {
		return nil, fmt.Errorf("serve: limits.max_k is enforced by the shard daemons, not the router — set it in each daemon's config")
	}
	var opts []shard.RouterOption
	if l.MaxBodyBytes > 0 {
		opts = append(opts, shard.WithRouterMaxBodyBytes(l.MaxBodyBytes))
	}
	if l.MaxBatch > 0 {
		opts = append(opts, shard.WithRouterMaxBatch(l.MaxBatch))
	}
	if b := l.bucketsUS(); b != nil {
		opts = append(opts, shard.WithRouterLatencyBuckets(b))
	}
	return opts, nil
}
