// Command caltrain-train runs a complete confidential collaborative
// training session on the synthetic CIFAR-10 stand-in: participants seal
// their shards, attest the training enclave, provision keys, and the
// partitioned model is trained and released. The trained model and the
// fingerprint linkage database are written to disk for caltrain-query.
//
// Usage:
//
//	caltrain-train -arch 10L -epochs 12 -split 2 -out model.ctnn -db linkage.db
package main

import (
	"flag"
	"fmt"
	"io"
	"math/rand/v2"
	"os"

	"caltrain"
	"caltrain/internal/ingest"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "caltrain-train:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		arch     = flag.String("arch", "10L", `architecture: "10L" (Table I) or "18L" (Table II)`)
		scale    = flag.Int("scale", 4, "architecture scale divisor (1 = exact paper network)")
		split    = flag.Int("split", 2, "FrontNet size (layers inside the enclave)")
		epochs   = flag.Int("epochs", 12, "training epochs")
		batch    = flag.Int("batch", 32, "mini-batch size")
		parties  = flag.Int("participants", 4, "number of participants")
		perClass = flag.Int("per-class", 40, "training images per class")
		seed     = flag.Uint64("seed", 7, "session seed")
		outPath  = flag.String("out", "model.ctnn", "released model output path (alice's copy, decrypted)")
		dbPath   = flag.String("db", "linkage.db", "fingerprint linkage database output path")
	)
	flag.Parse()

	var model caltrain.ModelConfig
	switch *arch {
	case "10L":
		model = caltrain.TableI(*scale)
	case "18L":
		model = caltrain.TableII(*scale)
	default:
		return fmt.Errorf("unknown architecture %q", *arch)
	}

	aug := caltrain.DefaultAugmentation()
	cfg := caltrain.SessionConfig{
		Model:     model,
		Split:     *split,
		Epochs:    *epochs,
		BatchSize: *batch,
		SGD:       caltrain.DefaultSGD(),
		Augment:   &aug,
		Seed:      *seed,
	}
	sess, err := caltrain.NewSession(cfg)
	if err != nil {
		return err
	}

	all := caltrain.SynthCIFAR(caltrain.DataOptions{Classes: 10, PerClass: *perClass + 10, Seed: *seed})
	train, test := all.Split(float64(10)/float64(*perClass+10), rand.New(rand.NewPCG(*seed, 1)))
	shards := train.PartitionAmong(*parties)
	var first *caltrain.Participant
	for i, shard := range shards {
		p := caltrain.NewParticipant(fmt.Sprintf("participant-%c", 'A'+i), shard, *seed+uint64(i))
		n, err := sess.AddParticipant(p)
		if err != nil {
			return err
		}
		fmt.Printf("%s: attested enclave, provisioned key, %d sealed records accepted\n", p.ID, n)
		if first == nil {
			first = p
		}
	}

	for e := 1; e <= *epochs; e++ {
		st, err := sess.TrainEpoch()
		if err != nil {
			return err
		}
		top1, top2, err := sess.Evaluate(test, 2)
		if err != nil {
			return err
		}
		fmt.Printf("epoch %2d: loss %.4f  top1 %5.1f%%  top2 %5.1f%%\n", st.Epoch, st.MeanLoss, 100*top1, 100*top2)
	}

	rm, err := sess.Release(first.ID)
	if err != nil {
		return err
	}
	net, modelCfg, err := first.AssembleModel(rm)
	if err != nil {
		return err
	}
	if err := ingest.WriteFile(*outPath, func(w io.Writer) error {
		return caltrain.SaveModel(w, modelCfg, net)
	}); err != nil {
		return err
	}
	fmt.Printf("released model (decrypted by %s) written to %s\n", first.ID, *outPath)

	db, err := sess.Fingerprint()
	if err != nil {
		return err
	}
	if err := ingest.WriteFile(*dbPath, db.Save); err != nil {
		return err
	}
	fmt.Printf("linkage database (%d entries, dim %d) written to %s\n", db.Len(), db.Dim(), *dbPath)
	return nil
}
