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
// Every routing knob is one field of serve.Config — the document format
// caltrain-serve takes, using its topology block, so one config language
// describes both halves of a deployment — reachable two ways: its flag,
// or its field in a -deployment config.json. The flags are an overlay on
// serve.Config — each binds straight into the field beside it in the
// table — so flags and file meet in one value, take the same path
// (Config.RouterPlan → serve.NewRouter) and the same validation: a
// negative bound is rejected at startup, 0 means the default, unknown
// file fields are rejected. A -deployment file declares the whole
// topology, so every flag of this table conflicts with it.
//
//	flag                   config field                       default  meaning
//	-map                   topology.map                       shards/shardmap.ctsm  shard map written by caltrain-shard
//	-shard ID=a[,b…]       topology.shards {"ID": ["a","b"]}  (none)   one shard's replicas in preference order, repeat per
//	                                                                   shard; a bare host:port means http://
//	-timeout               topology.timeout                   5s       per-shard call timeout, all replica attempts combined
//	-cooldown              topology.cooldown                  1s       base cooldown of a failed replica (grows exponentially)
//	-write-quorum          topology.write_quorum              0        replicas that must ack an ingest batch (0 = majority)
//	-response-cache        topology.response_cache            0 (off)  hot single-query responses cached at the router
//	-repair                topology.repair: {}                off      anti-entropy loop: drive a degraded replica through
//	                                                                   POST /v1/repl/sync from a healthy same-shard peer, poll
//	                                                                   /v1/repl/status until live, readmit it (the daemons
//	                                                                   run caltrain-serve -repl)
//	-repair-after          topology.repair.after              default  degradation streak before a repair; implies -repair
//	-repair-interval       topology.repair.interval           default  health scan period; implies -repair
//	-max-body              limits.max_body_bytes              8 MiB    request body limit
//	-max-batch             limits.max_batch                   256      queries per batch request
//	-latency-buckets       limits.latency_buckets             network-scale  router histogram bounds: 5ms,25ms,… / ["5ms","25ms",…]
//	-request-log           observability.request_log          false    one structured stderr line per request
//	-slow-query-threshold  observability.slow_query_threshold 0 (off)  warn about slower requests even without the request log
//	-trace-sample-rate     observability.tracing.sample_rate  1        head-sampling probability in [0,1]
//	-trace-store           observability.tracing.store        0        traces kept for /v1/debug/traces (0 = default, <0 = none)
//	-trace-slow            observability.tracing.slow_always  0 (off)  always keep traces slower than this
//
// File only: topology.repair.sync_timeout, observability.metrics,
// observability.debug_addr. limits.max_k is rejected: k is bounded by
// the shard daemons.
//
//	caltrain-router -deployment router.json
//	{"topology": {"map": "shards/shardmap.ctsm",
//	              "shards": {"0": ["replica-a:9000", "replica-b:9000"]},
//	              "write_quorum": 1, "repair": {"after": "15s"}}}
//
// Process flags say where the router runs; they have no config field and
// compose with -deployment: -addr (listen address), -grace (shutdown
// drain timeout), -debug-addr (pprof/expvar/trace sidecar, wins over
// observability.debug_addr), -deployment.
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
	"strings"
	"syscall"
	"time"

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
// validated, trimmed and scheme-defaulted by serve.Config.RouterPlan,
// for flags and config files alike.
type shardFlag map[string][]string

func (s *shardFlag) String() string { return fmt.Sprint(map[string][]string(*s)) }

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

	t := &serve.TopologyConfig{
		Timeout:  serve.Duration(shard.DefaultShardTimeout),
		Cooldown: serve.Duration(shard.DefaultReplicaCooldown),
		Repair:   &serve.RepairConfig{},
	}
	o.cfg = serve.Config{Topology: t, Limits: &serve.LimitsConfig{}, Observability: &serve.ObservabilityConfig{}}
	fs.StringVar(&t.Map, "map", "shards/shardmap.ctsm", "shard map written by caltrain-shard")
	fs.Var((*shardFlag)(&t.Shards), "shard", "shard replicas as ID=addr[,addr...]; repeat per shard")
	fs.Var(&t.Timeout, "timeout", "per-shard call timeout (all replica attempts combined; 0 = default)")
	fs.Var(&t.Cooldown, "cooldown", "base cooldown for a failed replica (grows exponentially; 0 = default)")
	fs.IntVar(&t.WriteQuorum, "write-quorum", 0, "replicas per shard that must ack an ingest batch (0 = majority)")
	fs.IntVar(&t.ResponseCache, "response-cache", 0, "cache up to N hot single-query responses at the router, invalidated on writes to the owning shard (0 = off)")
	repair := fs.Bool("repair", false, "enable the anti-entropy repair loop: drive degraded replicas through a /v1/repl/sync resync from a healthy same-shard peer and readmit them")
	fs.Var(&t.Repair.After, "repair-after", "degradation streak before a repair starts (0 = default; implies -repair)")
	fs.Var(&t.Repair.Interval, "repair-interval", "repair loop health scan period (0 = default; implies -repair)")
	serve.BindLimitFlags(fs, o.cfg.Limits, "comma-separated router latency bucket bounds as durations (e.g. 5ms,25ms,100ms,1s); empty = network-scale defaults")
	serve.BindObservabilityFlags(fs, o.cfg.Observability)
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	// An optional block's presence is itself a setting (a repair block
	// turns the loop on), so each survives only when one of its flags was
	// given — exactly as a config file would spell it.
	if !*repair && serve.FlagGiven(fs, "repair-after", "repair-interval") == "" {
		t.Repair = nil
	}
	if serve.FlagGiven(fs, "trace-sample-rate", "trace-store", "trace-slow") == "" {
		o.cfg.Observability.Trace = nil
	}
	return fs, o, nil
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
	cfg, err := serve.ResolveConfig(fs, o.cfg, o.deployment, processFlags)
	if err != nil {
		return err
	}
	// Request, slow-query and repair logs go to stderr, keeping stdout for
	// the daemon's own startup lines.
	plan, err := cfg.RouterPlan(slog.New(slog.NewTextHandler(os.Stderr, nil)))
	if err != nil {
		return err
	}
	built, err := serve.NewRouter(plan.Map, plan.Replicas, plan.Options...)
	if err != nil {
		return err
	}
	if o.deployment != "" {
		fmt.Fprintf(out, "deployment config: %s\n", o.deployment)
	}

	ctx, stop := signal.NotifyContext(parent, syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	debugAddr := plan.DebugAddr
	if o.debugAddr != "" {
		debugAddr = o.debugAddr
	}
	if debugAddr != "" {
		dl, err := serve.ListenDebug(debugAddr, plan.Tracer.Store())
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
	fmt.Fprintf(out, "routing accountability queries on %s across %d shards (%s map; POST /v1/query, POST /v1/query/batch, POST /v1/ingest, GET /v1/healthz, GET /v1/stats, GET /v1/meta)\n",
		l.Addr(), plan.Map.NumShards(), plan.Map.Strategy())
	if err := built.Serve(ctx, l, o.grace); err != nil {
		return err
	}
	fmt.Fprintln(out, "drained, bye")
	return nil
}
