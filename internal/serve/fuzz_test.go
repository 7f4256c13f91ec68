package serve

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseConfig drives the one door every serving knob — flag or
// file — enters through. The Go value is the document: whatever parses
// marshals back into a document that parses to the same Config, and
// Config.Deployment hands its backend and limits blocks over as they
// are. And whatever bytes arrive, Config.Deployment (which runs the one
// validation Build runs, without building) and RouterPlan return a
// value or an error and never panic. The seeds are the documents the
// config tests already use.
func FuzzParseConfig(f *testing.F) {
	for _, doc := range []string{
		`{}`,
		`{"backend": {"kind": "ivf", "nlist": 8, "nprobe": 4, "iters": 3, "seed": 9},
		  "shards": 4, "replicas_per_shard": 2,
		  "wal": {"dir": "wal/", "fsync": "interval", "fsync_every": "25ms", "segment_bytes": 1048576, "drift_threshold": 0.5},
		  "limits": {"max_body_bytes": 4096, "max_k": 16, "max_batch": 8, "latency_buckets": ["100us", "1ms", "10ms"]}}`,
		`{"backend": {"kind": "ivfpq", "nlist": 8, "nprobe": 4, "seed": 9, "m": 4}}`,
		`{"backend": {"kind": "flat"}, "shards": 3, "volatile_writes": true, "limits": {"max_k": 32}}`,
		`{"wal": {"dir": "w"}, "replication": {"peer": "replica-a:8791"}}`,
		`{"wal": {"dir": "w", "drift_threshold": 0}}`,
		`{"observability": {"metrics": false, "request_log": true, "slow_query_threshold": "250ms", "debug_addr": "localhost:6060",
		  "tracing": {"sample_rate": 0.05, "store": 512, "slow_always": "100ms"}}}`,
		`{"topology": {"map": "map.ctsm", "shards": {"0": ["replica-a:9000"], "1": ["http://replica-b:9001", "replica-c:9001"]},
		  "write_quorum": 1, "timeout": "2s", "cooldown": "1s", "response_cache": 8,
		  "repair": {"after": "5s", "interval": "1s", "sync_timeout": "30s"}},
		  "limits": {"max_batch": 16}, "observability": {"debug_addr": "localhost:0"}}`,
		`{"limits": {"max_k": 8}, "topology": {"map": "map.ctsm", "shards": {"0": ["a:1"], "1": ["b:1"], "5": ["c:1"]}}}`,
		`{"backend": {"kind": "flat"}} {"shards": 2}`,
		// A store size the tracer would try to allocate up front.
		`{"topology": {"map": "map.ctsm", "shards": {"0": ["a:1"], "1": ["b:1"]}}, "observability": {"tracing": {"store": 4611686018427387904}}}`,
		`{"observability": {"tracing": {"store": 1048577}}}`,
		// A kind that names no backend, and a bucket under the microsecond
		// the histograms count in.
		`{"backend": {"kind": "annoy", "nlist": 4}}`,
		`{"limits": {"latency_buckets": ["500ns", "1ms"]}}`,
		// Empty and null collections are values of their own.
		`{"limits": {"latency_buckets": []}, "observability": {"metrics": null, "tracing": {"sample_rate": 0}}}`,
		`{"topology": {"map": "", "shards": {}}}`,
	} {
		f.Add(doc)
	}
	// RouterPlan opens topology.map; point every non-empty path at one
	// real 2-shard map so the fuzzer exercises the validation behind the
	// open instead of probing the file system.
	mapPath := writeShardMap(f, 2)
	f.Fuzz(func(t *testing.T, doc string) {
		cfg, err := ParseConfig(strings.NewReader(doc))
		if err != nil {
			return
		}
		b, err := json.Marshal(cfg)
		if err != nil {
			t.Fatalf("%s parses but does not marshal: %v", doc, err)
		}
		if again, err := ParseConfig(bytes.NewReader(b)); err != nil || !reflect.DeepEqual(again, cfg) {
			t.Fatalf("%s parses to a Config that marshals to %s, which parses to %+v (%v)", doc, b, again, err)
		}
		if dep, err := cfg.Deployment(); err == nil && (dep.Backend != cfg.Backend || dep.Limits != cfg.Limits) {
			t.Fatalf("Deployment() did not hand the backend and limits blocks over as they are for %s", doc)
		}
		if cfg.Topology != nil && cfg.Topology.Map != "" {
			cfg.Topology.Map = mapPath
		}
		if plan, err := cfg.RouterPlan(nil); err == nil && (plan == nil || plan.Map == nil) {
			t.Fatalf("RouterPlan() returned neither a plan nor an error for %s", doc)
		}
	})
}
