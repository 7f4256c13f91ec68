// Quickstart: the shortest end-to-end CalTrain program.
//
// Two hospitals hold private image shards. Neither will share raw data,
// but both want a jointly trained model. The program runs the full
// pipeline at toy scale: attested provisioning, encrypted submission,
// partitioned in-enclave training, per-participant release, fingerprint
// generation, and one accountability query.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand/v2"
	"net/http/httptest"

	"caltrain"
)

func main() {
	// 1. The consensus config every participant validates via remote
	//    attestation: architecture, hyperparameters, partition.
	aug := caltrain.DefaultAugmentation()
	cfg := caltrain.SessionConfig{
		Model:     caltrain.TableI(8), // Table I at 1/8 filter scale
		Split:     2,                  // first two layers inside the enclave (§VI-A)
		Epochs:    12,
		BatchSize: 32,
		SGD:       caltrain.DefaultSGD(),
		Augment:   &aug,
		Seed:      42,
	}
	sess, err := caltrain.NewSession(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// 2. Private data: one synthetic distribution, split between two
	//    distrusting participants plus a held-out test set.
	all := caltrain.SynthCIFAR(caltrain.DataOptions{Classes: 10, PerClass: 30, Seed: 42})
	train, test := all.Split(0.2, rand.New(rand.NewPCG(1, 2)))
	shards := train.PartitionAmong(2)
	hospitalA := caltrain.NewParticipant("hospital-a", shards[0], 100)
	hospitalB := caltrain.NewParticipant("hospital-b", shards[1], 200)

	// 3. Each participant attests the enclave, provisions its key, and
	//    submits sealed records. Raw images never leave the hospital.
	for _, p := range []*caltrain.Participant{hospitalA, hospitalB} {
		n, err := sess.AddParticipant(p)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: enclave attested, %d encrypted records accepted\n", p.ID, n)
	}

	// 4. Confidential partitioned training.
	for epoch := 1; epoch <= cfg.Epochs; epoch++ {
		st, err := sess.TrainEpoch()
		if err != nil {
			log.Fatal(err)
		}
		top1, top2, err := sess.Evaluate(test, 2)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("epoch %d: loss %.3f, top1 %.1f%%, top2 %.1f%%\n", st.Epoch, st.MeanLoss, 100*top1, 100*top2)
	}

	// 5. Release: hospital A receives the model with a FrontNet only its
	//    key can decrypt.
	rm, err := sess.Release(hospitalA.ID)
	if err != nil {
		log.Fatal(err)
	}
	net, _, err := hospitalA.AssembleModel(rm)
	if err != nil {
		log.Fatal(err)
	}
	top1, _, err := caltrain.Accuracy(net, test, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hospital-a assembled the released model locally: top1 %.1f%%\n", 100*top1)

	// 6. Fingerprinting stage: the linkage database Ω = [F, Y, S, H].
	db, err := sess.Fingerprint()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("linkage database: %d entries (fingerprint dim %d)\n", db.Len(), db.Dim())

	// 7. Accountability query: fingerprint a test input and find its
	//    closest same-class training instances and their contributors.
	f, label, err := caltrain.QueryFingerprint(net, test.Records[0].Image)
	if err != nil {
		log.Fatal(err)
	}
	matches, err := db.Query(f, label, 5)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("closest training instances to test record 0 (predicted class %d):\n", label)
	for i, m := range matches {
		fmt.Printf("  %d. distance %.4f, contributed by %s\n", i+1, m.Distance, m.Source)
	}

	// 8. The same query served over HTTP: the zero Deployment builds an
	// exact Flat-indexed query service that speaks the versioned /v1
	// wire protocol, and the client discovers what it is talking to on
	// /v1/meta before querying.
	built, err := caltrain.Deployment{}.Build(db)
	if err != nil {
		log.Fatal(err)
	}
	srv := httptest.NewServer(built.Handler())
	defer srv.Close()
	client := caltrain.NewQueryClient(srv.URL)
	meta, err := client.Meta()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("query service online: protocol %s, backend %s, ingest=%v\n",
		meta.Protocol, meta.Backend, meta.Capabilities.Ingest)
	remote, err := client.Query(f, label, 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("top remote match: %s at distance %.4f\n", remote.Matches[0].Source, remote.Matches[0].Distance)
}
