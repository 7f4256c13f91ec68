package caltrain

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http/httptest"
	"testing"
)

func quickConfig() SessionConfig {
	return SessionConfig{
		Model: ModelConfig{
			Name: "facade-test", InC: 3, InH: 12, InW: 12, Classes: 3,
			Layers: []LayerSpec{
				{Kind: "conv", Filters: 6, Size: 3, Stride: 1, Pad: 1, Activation: "leaky"},
				{Kind: "max", Size: 2, Stride: 2},
				{Kind: "conv", Filters: 3, Size: 1, Stride: 1, Pad: 0, Activation: "linear"},
				{Kind: "avg"},
				{Kind: "softmax"},
				{Kind: "cost"},
			},
		},
		Split:     1,
		Epochs:    3,
		BatchSize: 16,
		SGD:       SGD{LearningRate: 0.05, Momentum: 0.9},
		Seed:      21,
	}
}

func TestSessionEndToEnd(t *testing.T) {
	cfg := quickConfig()
	sess, err := NewSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	all := SynthCIFAR(DataOptions{Classes: 3, H: 12, W: 12, PerClass: 24, Seed: 9, Noise: 0.04})
	train, test := all.Split(0.2, rand.New(rand.NewPCG(1, 1)))
	shards := train.PartitionAmong(2)
	alice := NewParticipant("alice", shards[0], 31)
	bob := NewParticipant("bob", shards[1], 32)
	for _, p := range []*Participant{alice, bob} {
		n, err := sess.AddParticipant(p)
		if err != nil {
			t.Fatal(err)
		}
		if n != p.Data().Len() {
			t.Fatalf("%s: accepted %d of %d", p.ID, n, p.Data().Len())
		}
	}
	hist, err := sess.Train()
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != cfg.Epochs {
		t.Fatalf("history has %d epochs", len(hist))
	}
	if !(hist[len(hist)-1].MeanLoss < hist[0].MeanLoss) {
		t.Fatalf("loss did not fall: %+v", hist)
	}

	// Release + assemble + accuracy via the facade.
	rm, err := sess.Release("alice")
	if err != nil {
		t.Fatal(err)
	}
	net, _, err := alice.AssembleModel(rm)
	if err != nil {
		t.Fatal(err)
	}
	top1, top2, err := Accuracy(net, test, 2)
	if err != nil {
		t.Fatal(err)
	}
	if top2 < top1 {
		t.Fatalf("top2 %v < top1 %v", top2, top1)
	}

	// Fingerprint stage + HTTP query service: the session's database
	// served through a Deployment (Flat by default).
	db, err := sess.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if db.Len() != train.Len() {
		t.Fatalf("db %d entries, want %d", db.Len(), train.Len())
	}
	serve := func(d Deployment) *httptest.Server {
		t.Helper()
		built, err := d.Build(sess.DB())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { built.Close() })
		return httptest.NewServer(built.Handler())
	}
	srv := serve(Deployment{})
	defer srv.Close()

	f, label, err := QueryFingerprint(net, test.Records[0].Image)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(map[string]any{"fingerprint": f, "label": label, "k": 3})
	resp, err := srv.Client().Post(srv.URL+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr struct {
		Matches []struct {
			Source   string  `json:"source"`
			Distance float64 `json:"distance"`
		} `json:"matches"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Matches) != 3 {
		t.Fatalf("query returned %d matches", len(qr.Matches))
	}

	// The same session serves through an IVF backend with limits.
	srv2 := serve(Deployment{
		Backend: BackendConfig{Kind: "ivf", Nlist: 4, Nprobe: 4, Seed: 9},
		Limits:  &LimitsConfig{MaxK: 16},
	})
	defer srv2.Close()
	client := NewQueryClient(srv2.URL)
	resp2, err := client.Query(f, label, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp2.Matches) != 3 {
		t.Fatalf("IVF-backed query returned %d matches", len(resp2.Matches))
	}
	if _, err := client.Query(f, label, 17); err == nil {
		t.Fatal("k over service limit accepted")
	}

	// The same session serves sharded: the in-process scatter-gather
	// router answers the single-daemon protocol with identical matches.
	srv3 := serve(Deployment{Shards: 2, VolatileWrites: true})
	defer srv3.Close()
	routed := NewQueryClient(srv3.URL)
	resp3, err := routed.Query(f, label, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp3.Matches) != 3 {
		t.Fatalf("routed query returned %d matches", len(resp3.Matches))
	}
	for i := range resp3.Matches {
		if resp3.Matches[i].Distance != resp2.Matches[i].Distance || resp3.Matches[i].Source != resp2.Matches[i].Source {
			t.Fatalf("routed match %d diverges from single daemon: %+v vs %+v", i, resp3.Matches[i], resp2.Matches[i])
		}
	}
	batch, err := routed.QueryBatch([]QueryRequest{{Fingerprint: f, Label: label, K: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if batch.Results[0].Error != "" || len(batch.Results[0].Matches) != 2 {
		t.Fatalf("routed batch: %+v", batch.Results[0])
	}

	// The in-process sharded deployment carries the write path: a new
	// linkage POSTed to the router lands on the shard owning its label
	// and serves immediately.
	meta, err := routed.Meta()
	if err != nil || !meta.Capabilities.Sharded || !meta.Capabilities.Ingest {
		t.Fatalf("router meta: %+v %v", meta, err)
	}
	newF := make([]float32, len(f))
	newF[0] = 25
	ir, err := routed.Ingest([]IngestEntry{{Fingerprint: newF, Label: label, Source: "late-participant"}})
	if err != nil || ir.Accepted != 1 {
		t.Fatalf("routed ingest: %+v %v", ir, err)
	}
	qi, err := routed.Query(Fingerprint(newF), label, 1)
	if err != nil || len(qi.Matches) != 1 || qi.Matches[0].Source != "late-participant" {
		t.Fatalf("ingested linkage not served by owning shard: %+v %v", qi, err)
	}
}

func TestSessionRepartition(t *testing.T) {
	sess, err := NewSession(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sess.Split() != 1 {
		t.Fatalf("initial split %d", sess.Split())
	}
	if err := sess.Repartition(2); err != nil {
		t.Fatal(err)
	}
	if sess.Split() != 2 {
		t.Fatalf("split after repartition %d", sess.Split())
	}
}

// TestQueryHandlerBeforeFingerprint: a session has no linkage database
// before Fingerprint, and a single-service Deployment refuses to build a
// query handler over none.
func TestQueryHandlerBeforeFingerprint(t *testing.T) {
	sess, err := NewSession(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Deployment{}).Build(sess.DB()); err == nil {
		t.Fatal("single deployment built before Fingerprint")
	}
}

// TestRouterHandlerBeforeFingerprint: the sharded shape refuses the same way.
func TestRouterHandlerBeforeFingerprint(t *testing.T) {
	sess, err := NewSession(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (Deployment{Shards: 2}).Build(sess.DB()); err == nil {
		t.Fatal("sharded deployment built before Fingerprint")
	}
}

func TestFacadeBuildersAndPresets(t *testing.T) {
	for _, cfg := range []ModelConfig{TableI(8), TableII(8), FaceNet(5, 16, 8)} {
		net, err := BuildModel(cfg, 3)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if net.NumLayers() != len(cfg.Layers) {
			t.Fatalf("%s: %d layers built, want %d", cfg.Name, net.NumLayers(), len(cfg.Layers))
		}
	}
}

func TestAssessExposureFacade(t *testing.T) {
	ds := SynthCIFAR(DataOptions{Classes: 3, H: 12, W: 12, PerClass: 6, Seed: 3})
	cfg := quickConfig().Model
	model, err := BuildModel(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := BuildModel(cfg, 6)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AssessExposure(model, oracle, ds, 2, ExposureOptions{MaxMapsPerLayer: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Layers) == 0 || rep.UniformKL < 0 {
		t.Fatalf("bad report: %+v", rep)
	}
}

func TestTrojanFacade(t *testing.T) {
	ds := SynthFace(FaceOptions{Identities: 3, H: 16, W: 16, PerID: 20, Seed: 7, Noise: 0.03})
	net, err := BuildModel(FaceNet(3, 8, 16), 9)
	if err != nil {
		t.Fatal(err)
	}
	// FaceNet preset expects 24x24; build a custom small model instead.
	cfg := ModelConfig{
		Name: "tf", InC: 3, InH: 16, InW: 16, Classes: 3,
		Layers: []LayerSpec{
			{Kind: "conv", Filters: 6, Size: 3, Stride: 1, Pad: 1, Activation: "leaky"},
			{Kind: "max", Size: 2, Stride: 2},
			{Kind: "connected", Filters: 8, Activation: "leaky"},
			{Kind: "connected", Filters: 3, Activation: "linear"},
			{Kind: "softmax"},
			{Kind: "cost"},
		},
	}
	net, err = BuildModel(cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := TrainLocal(net, ds, 6, 16, SGD{LearningRate: 0.02, Momentum: 0.9}, 11); err != nil {
		t.Fatal(err)
	}
	tr, err := OptimizeTrigger(net, 0, 12)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Target != 0 || len(tr.Patch) == 0 {
		t.Fatalf("bad trigger: %+v", tr)
	}
}
