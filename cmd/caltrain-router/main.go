// Command caltrain-router is the scatter-gather front of a sharded
// accountability deployment: it loads the shard map written by
// caltrain-shard, fans POST /v1/query/batch out to the daemons owning each
// query's label, gathers and reassembles the per-query top-k results,
// and serves the exact single-daemon protocol — fingerprint.Client and
// caltrain-query work unchanged against it.
//
//	caltrain-router -map shards/shardmap.ctsm -addr :8790 \
//	    -shard 0=localhost:9000,replica-b:9000 \
//	    -shard 1=localhost:9001 \
//	    -shard 2=localhost:9002 -shard 3=localhost:9003
//
// The router prefers healthy replicas, puts failed ones on an
// exponential cooldown, bounds every shard call (all replica attempts
// combined) with one timeout, and degrades gracefully: when a shard's
// every replica is down, a batch still returns the other shards'
// results, with the dead shard named in unreachable_shards and
// per-result errors on its queries. The response cache keeps the hottest
// single-query responses at the router itself — repeated checks of the
// same fingerprint answer without touching any shard, and a write
// routed to a shard invalidates every response that shard owns.
//
// Writes fan out the other way: POST /v1/ingest routes each new linkage to
// its owning shard and replicates it to ALL of that shard's replicas
// (started with -wal so they accept writes), reporting a shard durable
// once the write quorum of replicas acknowledge. Shards that miss quorum
// come back in failed_shards with their entries counted failed — partial
// degradation, mirroring the read path — and replicas that missed a
// durable batch are named in degraded_replicas.
//
// Endpoints (the versioned wire protocol, the only spelling, with
// structured {code, error} bodies on every failure):
//
//	POST /v1/query        routed to the owning shard (502 if it is down)
//	POST /v1/query/batch  scattered across shards, partial on failures
//	POST /v1/ingest       replicated to the owning shard's replicas, quorum-acked
//	GET  /v1/healthz      200 when every shard has a live replica, else 503
//	GET  /v1/stats        router counters + per-shard stats + rolled-up
//	                      shard latency histograms and ingest state
//	GET  /v1/meta         capability discovery (sharded: true)
//	GET  /v1/metrics      Prometheus exposition: router counters plus
//	                      per-shard entry gauges and the merged shard
//	                      latency histogram
//
// # Configuration
//
// Every routing knob is one field of serve.Config — caltrain-serve's
// document, using its topology block — set by its flag, bound from the
// field's tags by serve.BindFlags, or by its key in a -deployment
// config.json; both take caltrain-serve's path (serve.ResolveDeployment
// → Build). A knob flag beside -deployment is an error. README's router
// knob table and -h list the flags; -shard ID=a[,b…], one per shard,
// fills topology.shards {"ID": ["a","b"]}.
//
// File only, each for the reason at its field:
// topology.repair.sync_timeout, observability.metrics,
// observability.debug_addr. limits.max_k is rejected: k is bounded by
// the shard daemons.
//
//	caltrain-router -deployment router.json
//	{"topology": {"map": "shards/shardmap.ctsm",
//	              "shards": {"0": ["replica-a:9000", "replica-b:9000"]},
//	              "write_quorum": 1, "repair": {"after": "15s"}}}
//
// Process flags (-addr, -grace, -debug-addr, -deployment) say where the
// router runs: no config key, and they compose with -deployment.
//
// Every request carries an X-Request-Id (inbound or generated) that the
// router forwards to the shard daemons it fans out to, so one ID ties a
// client call to its per-shard work in every daemon's request log. The
// router also records every request as a span tree (route, scatter, one
// span per shard attempt, the replica RPCs) and propagates trace
// context to the shard daemons W3C-traceparent-style, so a shard's own
// spans parent under the router's scatter span in one trace; sampling
// and retention match caltrain-serve. Repairs show up as always-sampled
// "repair" traces, the repair block of GET /v1/stats, and
// caltrain_router_repair_* metrics.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/serve"
	"caltrain/internal/shard"
)

func main() {
	if err := run(context.Background(), os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "caltrain-router:", err)
		os.Exit(1)
	}
}

// shardFlag accumulates repeated -shard ID=addr,addr flags straight
// into the topology.shards map of the config. Only what a map cannot
// express is checked here (a repeated ID); IDs and addresses are
// validated, trimmed and scheme-defaulted by the Deployment, for flags
// and config files alike.
type shardFlag map[string][]string

// String spells the shards as flags would, ID=addr,addr each, by ID.
func (s *shardFlag) String() string {
	var ids []string
	for id, addrs := range *s {
		ids = append(ids, id+"="+strings.Join(addrs, ","))
	}
	slices.Sort(ids)
	return strings.Join(ids, " ")
}

func (s *shardFlag) Set(v string) error {
	id, addrs, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want ID=addr[,addr...], got %q", v)
	}
	if _, dup := (*s)[id]; dup {
		return fmt.Errorf("shard %s given twice", id)
	}
	if *s == nil {
		*s = shardFlag{}
	}
	(*s)[id] = strings.Split(addrs, ",")
	return nil
}

// processFlags say where the router runs, not what it routes — the only
// flags that are not bound into serve.Config, and the only ones that
// compose with -deployment.
var processFlags = map[string]bool{"addr": true, "grace": true, "deployment": true, "debug-addr": true}

// options is the parsed command line: the process flags, and every
// routing knob bound straight into cfg — the same serve.Config a
// -deployment file parses into.
type options struct {
	addr, deployment, debugAddr string
	grace                       time.Duration

	cfg serve.Config
}

func parseFlags(args []string) (*flag.FlagSet, *options, error) {
	fs := flag.NewFlagSet("caltrain-router", flag.ContinueOnError)
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8790", "listen address")
	fs.DurationVar(&o.grace, "grace", 10*time.Second, "shutdown drain timeout")
	fs.StringVar(&o.debugAddr, "debug-addr", "", "serve net/http/pprof, expvar, and /v1/debug/traces on this sidecar host:port (empty = no debug listener; never the public address)")
	fs.StringVar(&o.deployment, "deployment", "", "deployment config file (JSON) with a topology block: shard map, replicas, quorum, repair in one document — conflicts with the topology flags")

	// The knobs' flag defaults: BindFlags takes each from its field here.
	one := 1.0
	o.cfg = serve.Config{
		Topology: &serve.TopologyConfig{Map: "shards/shardmap.ctsm", Timeout: serve.Duration(shard.DefaultShardTimeout),
			Cooldown: serve.Duration(shard.DefaultReplicaCooldown), Repair: &serve.RepairConfig{}},
		Limits:        &serve.LimitsConfig{MaxBodyBytes: fingerprint.DefaultMaxBodyBytes, MaxBatch: fingerprint.DefaultMaxBatch},
		Observability: &serve.ObservabilityConfig{Trace: &serve.TraceConfig{SampleRate: &one}},
	}
	// By hand: topology.shards is a map, spelled one -shard ID=a,b each.
	fs.Var((*shardFlag)(&o.cfg.Topology.Shards), "shard", "shard replicas as ID=addr[,addr...]; repeat per shard")
	return fs, o, serve.BindFlags(fs, o.cfg.Topology, o.cfg.Limits, o.cfg.Observability)(args)
}

// run resolves the topology — from the flags or, whole, from the
// -deployment file — into one serve.Config, assembles the router from
// it (like caltrain-serve, through the declarative serving layer: the
// router is a deployment whose shards live in other processes), and
// serves until SIGINT/SIGTERM. Serve also runs the anti-entropy repair
// loop when the config has a repair block.
func run(parent context.Context, args []string, out io.Writer) error {
	fs, o, err := parseFlags(args)
	if err != nil {
		return err
	}
	dep, err := serve.ResolveDeployment(fs, o.cfg, o.deployment, processFlags)
	if err != nil {
		return err
	}
	if dep.Topology == nil {
		return fmt.Errorf("serve: config has no topology block; a router deployment declares topology.map and topology.shards")
	}
	// Request, slow-query and repair logs go to stderr, keeping stdout for
	// the daemon's own startup lines; -debug-addr wins over the config's.
	dep.Observability.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	if o.debugAddr != "" {
		dep.Observability.DebugAddr = o.debugAddr
	}
	built, err := dep.Build(nil)
	if err != nil {
		return err
	}
	if o.deployment != "" {
		fmt.Fprintf(out, "deployment config: %s\n", o.deployment)
	}

	ctx, stop := signal.NotifyContext(parent, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if da := dep.Observability.DebugAddr; da != "" {
		dl, err := serve.ListenDebug(da, built.TraceStore())
		if err != nil {
			return err
		}
		defer dl.Close()
		fmt.Fprintf(out, "debug listener (pprof, expvar, traces) on %s\n", dl.Addr())
	}
	l, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	// Build found every shard of the map in topology.shards, and no other.
	fmt.Fprintf(out, "routing accountability queries on %s across %d shards (%s; POST /v1/query, POST /v1/query/batch, POST /v1/ingest, GET /v1/healthz, GET /v1/stats, GET /v1/meta)\n",
		l.Addr(), len(dep.Topology.Shards), built.IndexOrigin())
	if err := built.Serve(ctx, l, o.grace); err != nil {
		return err
	}
	fmt.Fprintln(out, "drained, bye")
	return nil
}
