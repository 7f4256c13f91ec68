package caltrain

import (
	"fmt"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestRepositoryInvariants holds the tree to its "one X" rules: each
// names a single place some kind of code may live, so that a second copy
// growing back fails tier-1 instead of review. New rules of this kind go
// here.
func TestRepositoryInvariants(t *testing.T) {
	t.Run("one wire client", func(t *testing.T) {
		// fingerprint.Client is the only code that builds an HTTP request
		// to a daemon: the router's shard hop and the replication peer are
		// that type, so tracing, deadlines and error typing enter in one
		// place. A second request builder is a second HTTP stack.
		hits := grep(t, `http\.NewRequest`, sources(t, nonTestGo, "internal", "cmd"))
		delete(hits, "internal/fingerprint/client.go")
		if len(hits) > 0 {
			t.Errorf("http.NewRequest outside internal/fingerprint/client.go: %v", where(hits))
		}
	})

	t.Run("one request front", func(t *testing.T) {
		// fingerprint.Front is the only code that bounds and decodes a
		// request body, counts and times a request, declares the families
		// both HTTP tiers export, and counts an error: the daemon and the
		// router each hold one over themselves and only answer the verbs
		// it serves, so /v1/stats and /v1/metrics read the same counters
		// and neither tier counts a rule the other skips. A second
		// MaxBytesReader, decode, request counter, latency observation,
		// family declaration or error increment is a second front.
		const front = "internal/fingerprint/front.go"
		files := sources(t, nonTestGo, "internal")
		for _, pat := range []string{
			`http\.MaxBytesReader`, `"caltrain_queries_total"`, `"caltrain_batch_requests_total"`,
			`"caltrain_ingest_requests_total"`, `"caltrain_request_errors_total"`,
			`"caltrain_uptime_seconds"`, `"caltrain_query_latency_seconds"`,
		} {
			if hits := grep(t, pat, files); len(hits) != 1 || hits[front] != 1 {
				t.Errorf("%s must appear once, in %s: %v", pat, front, where(hits))
			}
		}
		for _, pat := range []string{`errCodes\.Inc|\.errs\.Add`, `(?i)\b(queries|batches|ingests)\.Add\(|latency\.Observe\(`} {
			hits := grep(t, pat, files)
			delete(hits, front)
			if len(hits) > 0 {
				t.Errorf("%s outside %s: %v", pat, front, where(hits))
			}
		}
		// The serving packages decode a request only in the front, and a
		// reply only in the client.
		hits := grep(t, `\.Decode\(`, sources(t, nonTestGo, "internal/fingerprint", "internal/shard"))
		delete(hits, front)
		delete(hits, "internal/fingerprint/client.go")
		if len(hits) > 0 {
			t.Errorf(".Decode( outside %s and the client: %v", front, where(hits))
		}
	})

	t.Run("one declaration per stat", func(t *testing.T) {
		// A stat that a JSON status body reports and the scrape exports is
		// declared once, by a struct field tagged metric:"<name>" that
		// obs.Fields renders: its family name appears quoted nowhere else,
		// so no hand-written family copies the field again.
		files := sources(t, nonTestGo, "internal", "cmd")
		var names []string
		for f := range grep(t, `metric:"`, files) {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range regexp.MustCompile(`metric:"(\w+)`).FindAllSubmatch(b, -1) {
				names = append(names, string(m[1]))
			}
		}
		if len(names) == 0 {
			t.Fatal("no metric-tagged field: the rule would hold vacuously")
		}
		for _, name := range names {
			hits := grep(t, `"`+name+`[",]`, files)
			if n := sum(hits); n != 1 {
				t.Errorf("%q is declared %d times, want once, by its tag: %v", name, n, where(hits))
			}
		}
	})

	t.Run("a loaded index is a trained index", func(t *testing.T) {
		// index.Load reads a saved index over its database and returns it
		// in the state training leaves one in. An index without a
		// database — attached later, answering from the codes meanwhile —
		// is the state that went away; its spellings must not come back.
		if hits := grep(t, `AttachDB|loaded\(\)|x\.db == nil`, sources(t, nonTestGo, "internal/index")); len(hits) > 0 {
			t.Errorf("internal/index grew an index without a database again: %v", where(hits))
		}
	})

	t.Run("one write path", func(t *testing.T) {
		// ingest.Store is the only code that applies linkages to a
		// database and its index: a volatile deployment is a Store without
		// a log, and cluster.Syncer's IngestBatchCtx only hands the batch
		// to its current Store. A second IngestBatchCtx — the write method
		// of fingerprint.Ingester — is a second write path.
		hits := grep(t, `(?m)^func \([^)]*\) IngestBatchCtx\(`, sources(t, nonTestGo, "internal", "cmd"))
		for _, f := range []string{"internal/ingest/store.go", "internal/cluster/syncer.go"} {
			if hits[f] != 1 {
				t.Errorf("%s defines IngestBatchCtx %d times, want once", f, hits[f])
			}
			delete(hits, f)
		}
		if len(hits) > 0 {
			t.Errorf("a second write path: %v", where(hits))
		}
	})

	t.Run("one WAL reader", func(t *testing.T) {
		// ingest.Cursor is the one reader of WAL segments: Replay is a
		// cursor from sequence 0, so replay and WAL shipping tell a torn
		// tail from a lost record by one rule. ShipReader decodes the
		// ship stream, whose framing is a segment's. A second caller of
		// readWALRecord is a second torn-tail rule.
		files := sources(t, nonTestGo, "internal", "cmd")
		if hits := grep(t, `\breplaySegment\b`, files); len(hits) > 0 {
			t.Errorf("replaySegment is back: %v", where(hits))
		}
		// Its definition in wal.go, and one call each in Cursor.Next and
		// ShipReader.Next.
		hits := grep(t, `\breadWALRecord\(`, files)
		want := map[string]int{"internal/ingest/wal.go": 1, "internal/ingest/cursor.go": 1, "internal/ingest/wire.go": 1}
		if !maps.Equal(hits, want) {
			t.Errorf("readWALRecord( appears in %v, want only %v", where(hits), want)
		}
	})

	t.Run("facade has callers", func(t *testing.T) {
		// Every exported name of this package earns its place: a program
		// under examples/ or cmd/, or the package example, names it, or
		// it is kept below for its reason — the paper's pipeline, or a
		// kept name needs it (a type in a kept signature or field, a value
		// a kept field documents, an error a kept function returns). A
		// re-export nothing calls is a second spelling to maintain.
		keep := map[string]string{}
		for reason, names := range map[string][]string{
			"paper pipeline": {
				"Augmentation", "Dataset", "Record", "EpochStats", "ExposureReport", "Federation",
				"Match", "Measurement", "ReleasedModel", "Session", "Trigger",
				"Session.DB", "Session.Evaluate", "Session.Repartition", "Session.Split",
				"Session.TrainEpoch", "Session.WarmStart",
			},
			"a type in a kept signature or field": {
				"DeploymentServer", "IngestStore", "LimitsConfig", "QueryService",
				"Searcher", "ShardMap", "TraceConfig",
			},
			"an error or code a kept function returns": {
				"APIError", "ErrorCodeOf", "ErrCorrupt", "ErrVersionMismatch",
				"ErrCodeBadRequest", "ErrCodeBodyTooLarge", "ErrCodeIngestDisabled", "ErrCodeInternal",
				"ErrCodeLimitExceeded", "ErrCodeMethodNotAllowed", "ErrCodeNotFound", "ErrCodeShardUnreachable",
			},
		} {
			for _, n := range names {
				keep[n] = reason
			}
		}
		var callers strings.Builder
		for _, f := range append(sources(t, nonTestGo, "examples", "cmd"), "example_test.go") {
			b, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			callers.Write(b)
		}
		text := callers.String()
		decl := regexp.MustCompile(`^(?:(?:const|var|type) (\w+)|func (?:\(\w+ \*?(\w+)\) )?(\w+))`)
		api := map[string]bool{}
		for _, line := range strings.Split(strings.TrimSpace(renderAPISurface(t)), "\n") {
			m := decl.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("unparsed API line %q", line)
			}
			name, ref := m[1]+m[3], `\bcaltrain\.`+m[1]+m[3]+`\b`
			if m[2] != "" {
				name, ref = m[2]+"."+m[3], `\.`+m[3]+`\(`
			}
			api[name] = true
			if keep[name] == "" && !regexp.MustCompile(ref).MatchString(text) {
				t.Errorf("%s has no caller in examples/, cmd/ or example_test.go and no reason to stay: delete it, or keep it with its reason", name)
			}
		}
		for name := range keep {
			if !api[name] {
				t.Errorf("the keep list names %s, which the API no longer has", name)
			}
		}
	})

	t.Run("one way to serve", func(t *testing.T) {
		// Deployment → Build → Server.Serve is how code outside
		// internal/serve assembles and runs a query service, a router or
		// a write path: internal/serve alone makes a service or opens a
		// store, serve.Server alone has a Serve method, and an
		// http.Server is made only where a handler is served
		// (fingerprint.ServeHandler) or the debug sidecar listens
		// (serve.ListenDebug). A second assembly is a second set of
		// defaults — the daemon that once served with no drain and no
		// limits block.
		var root []string
		for _, f := range sources(t, nonTestGo, ".") {
			if !strings.Contains(f, "/") {
				root = append(root, f)
			}
		}
		files := append(sources(t, nonTestGo, "internal", "cmd", "examples"), root...)
		inServe := func(hits map[string]int) map[string]int {
			for f := range hits {
				if strings.HasPrefix(f, "internal/serve/") {
					delete(hits, f)
				}
			}
			return hits
		}
		if hits := inServe(grep(t, `\.NewSearcherService\(|ingest\.Open\(`, files)); len(hits) > 0 {
			t.Errorf("a query service or write path assembled outside internal/serve: %v", where(hits))
		}
		if hits := grep(t, `(?m)^func \([^)]*\) Serve\(`, files); len(hits) != 1 || hits["internal/serve/deployment.go"] != 1 {
			t.Errorf("a Serve method beside serve.Server's, in internal/serve/deployment.go: %v", where(hits))
		}
		hits := grep(t, `http\.Server\{`, files)
		for _, f := range []string{"internal/fingerprint/service.go", "internal/serve/deployment.go"} {
			if hits[f] != 1 {
				t.Errorf("%s makes %d http.Server, want one", f, hits[f])
			}
			delete(hits, f)
		}
		if len(hits) > 0 {
			t.Errorf("an http.Server outside fingerprint.ServeHandler and serve.ListenDebug: %v", where(hits))
		}
	})

	t.Run("one backend type", func(t *testing.T) {
		// serve.BackendConfig is the backend: the -backend flag, the
		// backend block of a file and a Deployment's field are one value,
		// and its methods are the one switch on its kind. A spec type, a
		// name-to-spec parser, a prebuilt wrapper or an Unwrap to see
		// through a wrapped backend is a second backend type.
		files := sources(t, nonTestGo, "internal", "cmd")
		if hits := grep(t, `BackendSpec|ParseBackend|PrebuiltSpec|Unwrap\(\) \*?(\w+\.)?(BackendConfig|Searcher)\b`, files); len(hits) > 0 {
			t.Errorf("a second backend type: %v", where(hits))
		}
		if hits := grep(t, `case "ivfpq"`, files); len(hits) != 1 || hits["internal/serve/config.go"] != 1 {
			t.Errorf(`case "ivfpq" must appear once, in internal/serve/config.go: %v`, where(hits))
		}
	})

	t.Run("one router builder", func(t *testing.T) {
		// Deployment.route in internal/serve makes every shard.Router a
		// daemon serves, in-process shards and shard daemons alike, from
		// the deployment's blocks: a second caller is a second translation
		// of them, and one of the two drifts (the in-process router once
		// never saw the limits block).
		files := sources(t, nonTestGo, "internal", "cmd")
		hits := grep(t, `shard\.NewRouter\(`, files)
		if len(hits) != 1 || hits["internal/serve/router_config.go"] != 1 {
			t.Errorf("shard.NewRouter( must appear once, in internal/serve/router_config.go: %v", where(hits))
		}
		if hits := grep(t, `\bRouterPlan\b`, files); len(hits) > 0 {
			t.Errorf("a router plan beside the Deployment: %v", where(hits))
		}
	})

	t.Run("one knob declaration", func(t *testing.T) {
		// A serving knob is declared once, by its tagged serve.Config
		// field: serve.BindFlags binds its flag from the tags. A flag bound
		// by hand into a config block is a second declaration, its name,
		// default and help text free to drift from the field's. Three stay
		// by hand, each with its reason beside it: -backend and
		// caltrain-shard's -index (one field, two spellings), -max-k (the
		// daemon's alone) and the router's -shard map syntax.
		hits := grep(t, `\.\w*Var\([^,]*\.(cfg|Backend|backend|WAL|Limits|Observability|Trace|Replication|Topology|Repair)\.`,
			sources(t, nonTestGo, "internal", "cmd"))
		want := map[string]int{"cmd/caltrain-serve/main.go": 2, "cmd/caltrain-shard/main.go": 1, "cmd/caltrain-router/main.go": 1}
		if !maps.Equal(hits, want) {
			t.Errorf("flags bound by hand into a serve.Config block: %v, want only %v", where(hits), want)
		}
	})

	t.Run("docs within budget", func(t *testing.T) {
		// The prose docs were cut to what a reader needs; each may shrink,
		// and growing past its cap is a decision to state in CHANGES.md
		// with the raised cap, not drift.
		for doc, limit := range map[string]int64{
			"README.md":                      12003,
			"ARCHITECTURE.md":                14403,
			".claude/skills/verify/SKILL.md": 13231,
		} {
			fi, err := os.Stat(doc)
			if err != nil {
				t.Fatal(err)
			}
			if fi.Size() > limit {
				t.Errorf("%s is %d B, over its cap of %d B", doc, fi.Size(), limit)
			}
		}
	})

	t.Run("docs name real files", func(t *testing.T) {
		// A path the docs name in backticks is a file of the tree, named
		// from the repository root or by a unique suffix of its path: a
		// doc that names a deleted or moved file describes a system that
		// is gone.
		files := trackedFiles(t)
		token := regexp.MustCompile("`([^`\\s]*/[^`\\s]*\\.(go|md|json|sh|yml|s|golden))`")
		for _, doc := range docs {
			b, err := os.ReadFile(doc)
			if err != nil {
				t.Fatal(err)
			}
			prose := regexp.MustCompile("(?s)```.*?```").ReplaceAll(b, nil)
			for _, m := range token.FindAllSubmatch(prose, -1) {
				name, n := string(m[1]), 0
				for _, f := range files {
					if f == name || strings.HasSuffix(f, "/"+name) {
						n++
					}
				}
				if !slices.Contains(files, name) && n != 1 {
					t.Errorf("%s names `%s`, which is %d files of the tree, want one", doc, name, n)
				}
			}
		}
	})

	t.Run("one float codec", func(t *testing.T) {
		// f32le.Append and f32le.Decode are the one spelling of "a float32
		// is stored as its little-endian bits": a format that loops over
		// its floats itself misses the bulk copy a little-endian host
		// takes. kerneltest.FromBytes keeps its loop because f32le's
		// parity fuzz is seeded through kerneltest.
		hits := grep(t, `math\.Float32frombits\(binary\.|Uint32\([^)]*math\.Float32bits`, sources(t, nonTestGo, "internal", "cmd"))
		for _, f := range []string{"internal/f32le/f32le.go", "internal/kernel/kerneltest/kerneltest.go"} {
			delete(hits, f)
		}
		if len(hits) > 0 {
			t.Errorf("a float32 byte codec outside internal/f32le: %v", where(hits))
		}
	})

	t.Run("one argmin kernel", func(t *testing.T) {
		// kernel.ArgminPlanarBatch over planar tables is the one argmin, and
		// planarScreenAsm its one screen per architecture: every centroid
		// table an argmin reads is resident dimension-major. The row-major
		// screen and its entry points must not come back.
		all := func(name string) bool { return strings.HasSuffix(name, ".go") || strings.HasSuffix(name, ".s") }
		if hits := grep(t, `\b(screenAsm|ArgminRows|ArgminBatch)\b`, sources(t, all, "internal", "cmd")); len(hits) > 0 {
			t.Errorf("a second argmin kernel: %v", where(hits))
		}
	})
}

// docs are the prose documents that describe the system.
var docs = []string{"README.md", "ARCHITECTURE.md", ".claude/skills/verify/SKILL.md"}

// trackedFiles lists the files git tracks, as slash-separated paths
// from the repository root; outside a git work tree (an exported copy)
// every file of the tree.
func trackedFiles(t *testing.T) []string {
	t.Helper()
	if out, err := exec.Command("git", "ls-files", "-z").Output(); err == nil && len(out) > 0 {
		return strings.Split(strings.TrimSuffix(string(out), "\x00"), "\x00")
	}
	var out []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			out = append(out, filepath.ToSlash(path))
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func nonTestGo(name string) bool {
	return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
}

// sources lists the files under the roots, testdata excluded, whose
// names keep accepts, as slash-separated paths from the repository root.
func sources(t *testing.T, keep func(name string) bool, roots ...string) []string {
	t.Helper()
	var out []string
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			switch {
			case err != nil:
				return err
			case d.IsDir() && d.Name() == "testdata":
				return filepath.SkipDir
			case !d.IsDir() && keep(d.Name()):
				out = append(out, filepath.ToSlash(path))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(out) == 0 {
		t.Fatalf("no sources under %v: the rule would hold vacuously", roots)
	}
	return out
}

// grep counts the matches of pattern in each file, keeping the files it
// matches.
func grep(t *testing.T, pattern string, files []string) map[string]int {
	t.Helper()
	re := regexp.MustCompile(pattern)
	hits := map[string]int{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(re.FindAllIndex(b, -1)); n > 0 {
			hits[f] = n
		}
	}
	return hits
}

// sum totals the match counts of hits.
func sum(hits map[string]int) int {
	var n int
	for _, c := range hits {
		n += c
	}
	return n
}

// where renders hits as sorted file names, each with its match count.
func where(hits map[string]int) []string {
	out := make([]string, 0, len(hits))
	for f, n := range hits {
		out = append(out, fmt.Sprintf("%s (%d)", f, n))
	}
	sort.Strings(out)
	return out
}
