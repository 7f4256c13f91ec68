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
