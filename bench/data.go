package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
)

// dataShape is the shape of the synthetic linkage database. The labels
// split 4 + 4 over the two shards (range strategy); every query scans one
// label's class.
type dataShape struct {
	dim      int
	labels   int
	perLabel int
	sources  int
	modes    int     // SynthFingerprints modes per label
	sigma    float64 // SynthFingerprints per-coordinate noise around a mode
	group    int     // near-duplicate entries per linkage group
	jitter   float64 // per-coordinate noise of a member around its group
	probes   int     // queries of the recall check; each costs an exact scan of the whole mirror
}

var (
	fullShape  = dataShape{dim: 64, labels: 8, perLabel: 25000, sources: 16, modes: 32, sigma: 0.15, group: 12, jitter: 0.05, probes: 200}
	shortShape = dataShape{dim: 64, labels: 8, perLabel: 250, sources: 16, modes: 8, sigma: 0.15, group: 12, jitter: 0.05, probes: 200}
)

func sourceName(i int) string { return fmt.Sprintf("participant-%02d", i) }

// genDB builds the seeded linkage database. Each label holds perLabel
// fingerprints in tight linkage groups: group centres come from
// index.SynthFingerprints (the label's own modes), and each entry
// jitters around its group's centre — near-duplicates tracing back to
// one contribution, the structure accountability queries look for and
// the one the product-quantized backend's recall floor is stated on.
// A query drawn as a fresh group member has its siblings as exact
// nearest neighbours with a real margin. Sources are assigned at random
// and content hashes drawn from the same stream.
func genDB(seed uint64, shape dataShape) (*fingerprint.DB, error) {
	db, err := fingerprint.NewDB(shape.dim)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(seed, 0x6c696e6b616765)) // "linkage"
	for y := 0; y < shape.labels; y++ {
		ngroups := (shape.perLabel + shape.group - 1) / shape.group
		centres := index.SynthFingerprints(rng, ngroups, shape.dim, shape.modes, shape.sigma)
		for i := 0; i < shape.perLabel; i++ {
			l := fingerprint.Linkage{F: perturb(rng, centres[i%ngroups], shape.jitter), Y: y,
				S: sourceName(rng.IntN(shape.sources)), H: randHash(rng)}
			if err := db.Add(l); err != nil {
				return nil, err
			}
		}
	}
	return db, nil
}

// randHash draws a content digest: unique per linkage, so that checks can
// tell linkages apart across shards, whose indices overlap.
func randHash(rng *rand.Rand) (h [32]byte) {
	for i := 0; i < len(h); i += 8 {
		binary.LittleEndian.PutUint64(h[i:], rng.Uint64())
	}
	return h
}

func saveDB(db *fingerprint.DB, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.Save(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// perturb returns a unit-norm copy of f moved by per-coordinate Gaussian
// noise: a query near, but never equal to, a stored entry — the shape of
// a misprediction's fingerprint next to the training instances that
// caused it.
func perturb(rng *rand.Rand, f fingerprint.Fingerprint, sigma float64) fingerprint.Fingerprint {
	out := make(fingerprint.Fingerprint, len(f))
	var s float64
	for j := range f {
		out[j] = f[j] + float32(sigma*rng.NormFloat64())
		s += float64(out[j]) * float64(out[j])
	}
	inv := float32(1 / math.Sqrt(s))
	for j := range out {
		out[j] *= inv
	}
	return out
}
