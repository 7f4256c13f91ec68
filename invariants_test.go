package caltrain

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
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
		// request body, declares the families both HTTP tiers export, and
		// counts an error: the daemon and the router each hold one, so
		// /v1/stats and /v1/metrics read the same counters and neither
		// tier enforces a rule the other skips. A second MaxBytesReader,
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
		hits := grep(t, `errCodes\.Inc|\.errs\.Add`, files)
		delete(hits, front)
		if len(hits) > 0 {
			t.Errorf("an error counter outside %s: %v", front, where(hits))
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
				"DeploymentServer", "FlatIndex", "IngestStore", "LimitsConfig", "QueryService",
				"Searcher", "ShardMap", "ShardRouter", "ShardRouterOption", "TraceConfig",
				"WALOptions", "WALSyncPolicy",
			},
			"a value a kept field documents": {
				"WALSyncAlways", "WALSyncInterval", "WALSyncNever",
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

// where renders hits as sorted file names, each with its match count.
func where(hits map[string]int) []string {
	out := make([]string, 0, len(hits))
	for f, n := range hits {
		out = append(out, fmt.Sprintf("%s (%d)", f, n))
	}
	sort.Strings(out)
	return out
}
