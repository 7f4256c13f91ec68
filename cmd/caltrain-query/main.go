// Command caltrain-query queries the accountability linkage database
// (the query stage of Figure 2). It investigates one test input: it
// loads the released model, fingerprints the input (by index into a
// freshly generated test set), and prints the closest same-class
// training instances with provenance:
//
//	caltrain-query -db linkage.db -model model.ctnn -index 3 -k 9
//
// To serve the same database over HTTP, run the query daemon:
//
//	caltrain-serve -db linkage.db
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"

	"caltrain"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "caltrain-query:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		dbPath    = flag.String("db", "linkage.db", "linkage database path")
		modelPath = flag.String("model", "model.ctnn", "released model path")
		index     = flag.Int("index", 0, "test-set record index to investigate")
		k         = flag.Int("k", 9, "number of neighbours (the paper's figures show 9)")
		seed      = flag.Uint64("seed", 7, "seed of the session whose test data to regenerate")
		perClass  = flag.Int("per-class", 40, "per-class size of the original session")
	)
	flag.Parse()

	dbf, err := os.Open(*dbPath)
	if err != nil {
		return err
	}
	db, err := caltrain.LoadLinkageDB(dbf)
	dbf.Close()
	if err != nil {
		return err
	}
	fmt.Printf("linkage database: %d entries, fingerprint dim %d\n", db.Len(), db.Dim())

	mf, err := os.Open(*modelPath)
	if err != nil {
		return err
	}
	_, net, err := caltrain.LoadModel(mf)
	mf.Close()
	if err != nil {
		return err
	}
	all := caltrain.SynthCIFAR(caltrain.DataOptions{Classes: 10, PerClass: *perClass + 10, Seed: *seed})
	_, test := all.Split(float64(10)/float64(*perClass+10), rand.New(rand.NewPCG(*seed, 1)))
	if *index < 0 || *index >= test.Len() {
		return fmt.Errorf("index %d out of range for %d test records", *index, test.Len())
	}
	rec := test.Records[*index]
	f, label, err := caltrain.QueryFingerprint(net, rec.Image)
	if err != nil {
		return err
	}
	fmt.Printf("test record %d: true label %d, predicted %d", *index, rec.Label, label)
	if rec.Label != label {
		fmt.Printf("  << misprediction, investigating")
	}
	fmt.Println()
	matches, err := db.Query(f, label, *k)
	if err != nil {
		return err
	}
	fmt.Printf("%-4s %10s %-16s %s\n", "#", "L2 dist", "source", "content hash")
	for i, m := range matches {
		fmt.Printf("%-4d %10.4f %-16s %x…\n", i+1, m.Distance, m.Source, m.Hash[:8])
	}
	fmt.Println("demand the listed sources disclose these instances; verify hashes before forensic analysis (§IV-C)")
	return nil
}
