// Package obstest reads values out of a Prometheus text exposition for
// tests that hold a scrape to another source of the same numbers.
package obstest

import (
	"strconv"
	"strings"
	"testing"
)

// samples returns the values of the sample lines of series — a metric
// name, optionally followed by the start of a label set — skipping
// longer metric names that merely share the prefix.
func samples(t testing.TB, exposition, series string) []float64 {
	t.Helper()
	var out []float64
	for _, line := range strings.Split(exposition, "\n") {
		rest, ok := strings.CutPrefix(line, series)
		if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		out = append(out, v)
	}
	return out
}

// Value returns the value of the first sample of series, failing t when
// the exposition has none.
func Value(t testing.TB, exposition, series string) float64 {
	t.Helper()
	vs := samples(t, exposition, series)
	if len(vs) == 0 {
		t.Fatalf("exposition has no series %q:\n%s", series, exposition)
	}
	return vs[0]
}

// Sum returns the sum over every sample of series — 0 when there is
// none, as for a labeled counter no label value has touched yet.
func Sum(t testing.TB, exposition, series string) float64 {
	t.Helper()
	var sum float64
	for _, v := range samples(t, exposition, series) {
		sum += v
	}
	return sum
}
