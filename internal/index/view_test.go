package index

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
	"caltrain/internal/ingest"
	"caltrain/internal/kernel"
)

// viewDigests pins, per backend and database origin, one SHA-256 over
// the CTFP bytes and the trained state (trainedDigest) every step of
// TestIndexIsAView leaves behind: where a linkage is resident must not
// show in any file or training. They were recorded on the commit before
// CTIX files held trained state only, whose run of this test matched
// the CTFP and CTIX bytes of the commit before an index became a view.
var viewDigests = map[string]string{
	"flat/loaded":  "65d733b22dc33cdd0c42683a4f7fe0b2df72525b0da038bcbf41ca11c025e1ef",
	"flat/added":   "65d733b22dc33cdd0c42683a4f7fe0b2df72525b0da038bcbf41ca11c025e1ef",
	"ivf/loaded":   "0c65aa21666dae8942a6e9ef29405138947841754eaa60083d3f178c8cc34662",
	"ivf/added":    "0c65aa21666dae8942a6e9ef29405138947841754eaa60083d3f178c8cc34662",
	"ivfpq/loaded": "9eb01a57b3270d8d20ccc1dcda0ad42ba313693f07cd03e330a11a91536fabb9",
	"ivfpq/added":  "9eb01a57b3270d8d20ccc1dcda0ad42ba313693f07cd03e330a11a91536fabb9",
}

// viewKinds are the backends the model runs, each small enough to
// retrain a few times per step: IVF and IVFPQ probe half their lists.
var viewKinds = []struct {
	name  string
	train func(*fingerprint.DB) (Searcher, error)
}{
	{"flat", func(db *fingerprint.DB) (Searcher, error) { return NewFlat(db), nil }},
	{"ivf", func(db *fingerprint.DB) (Searcher, error) {
		return TrainIVF(db, IVFOptions{Nlist: 4, Nprobe: 2, Seed: 5})
	}},
	{"ivfpq", func(db *fingerprint.DB) (Searcher, error) {
		return TrainIVFPQ(db, IVFPQOptions{IVFOptions: IVFOptions{Nlist: 4, Nprobe: 2, Seed: 5}, M: 4})
	}},
}

// viewModel is one seeded run: a database, the index serving it, and
// the digest of every file the run has written.
type viewModel struct {
	t     *testing.T
	kind  string
	train func(*fingerprint.DB) (Searcher, error)
	db    *fingerprint.DB
	x     Searcher
	rng   *rand.Rand
	sum   []byte
}

// TestIndexIsAView runs seeded sequences of every step that moves
// linkages between a database and its index — ingest through the write
// path, a drift retrain whose swap catches up a batch ingested while it
// trained, a Snapshot grown by Add and an index rebased onto it, Save →
// Load of both files, and an index trained over a prefix rebased onto
// the whole — over Flat, IVF and IVFPQ, each on a loaded and on an
// Add-built database. After every step each match must be the
// database's entry at its index (source, hash, label, exact distance),
// Flat must answer DB.Query exactly, and the database files written and
// the indexes trained must hash to what the commit before the change
// wrote and trained.
func TestIndexIsAView(t *testing.T) {
	const dim, n, classes = 8, 240, 3
	for _, k := range viewKinds {
		for _, origin := range []string{"loaded", "added"} {
			name := k.name + "/" + origin
			t.Run(name, func(t *testing.T) {
				added, loaded, _ := addedAndLoaded(t, dim, n, classes, false, 31)
				m := &viewModel{t: t, kind: k.name, train: k.train, db: loaded, rng: rand.New(rand.NewPCG(7, 7))}
				if origin == "added" {
					m.db = added
				}
				m.x = m.trained(m.db)
				h := sha256.New()
				for step := range 15 {
					what := m.step(step%5, classes)
					h.Write(m.files(m.db, m.x))
					m.check(m.db, m.x, what, classes)
				}
				got := hex.EncodeToString(h.Sum(nil))
				if want := viewDigests[name]; got != want {
					t.Errorf("files digest %s, pinned %s", got, want)
				}
			})
		}
	}
}

func (m *viewModel) trained(db *fingerprint.DB) Searcher {
	m.t.Helper()
	x, err := m.train(db)
	if err != nil {
		m.t.Fatal(err)
	}
	return x
}

// batch draws n linkages, one label in every classes+1 new to the
// database the first time it is drawn.
func (m *viewModel) batch(n, classes int) []fingerprint.Linkage {
	out := make([]fingerprint.Linkage, n)
	for i := range out {
		var h [32]byte
		h[0], h[1] = byte(m.rng.UintN(256)), byte(i)
		out[i] = fingerprint.Linkage{F: randomFP(m.rng, m.db.Dim()), Y: m.rng.IntN(classes + 1), S: []string{"dave", "erin"}[m.rng.IntN(2)], H: h}
	}
	return out
}

// step runs step kind s and names it.
func (m *viewModel) step(s, classes int) string {
	t := m.t
	t.Helper()
	switch s {
	case 0:
		st := m.open(-1, nil)
		m.ingest(st, m.batch(5+m.rng.IntN(20), classes))
		m.close(st)
		return "ingest"
	case 1:
		// The retrain is held until a second batch has landed in the old
		// index, so its swap must catch that batch up.
		started, release := make(chan struct{}, 1), make(chan struct{})
		st := m.open(0.05, func(snap *fingerprint.DB) (fingerprint.Searcher, error) {
			started <- struct{}{}
			<-release
			return m.train(snap)
		})
		m.ingest(st, m.batch(40, classes))
		if m.kind != "flat" { // Flat never drifts
			select {
			case <-started:
			case <-time.After(30 * time.Second):
				t.Fatal("drift past the threshold did not retrain")
			}
		}
		m.ingest(st, m.batch(1+m.rng.IntN(10), classes))
		close(release)
		m.close(st)
		if got := st.IngestStats().Retrains; m.kind != "flat" && got != 1 {
			t.Fatalf("%s: %d retrains, want 1", m.kind, got)
		}
		return "drift retrain"
	case 2:
		cut := 1 + m.rng.IntN(m.db.Len())
		snap := m.db.Snapshot(cut)
		xs := m.trained(snap)
		for _, l := range m.batch(1+m.rng.IntN(8), classes) {
			if err := snap.Add(l); err != nil {
				t.Fatal(err)
			}
		}
		rebase(t, xs, snap)
		m.sum = append(m.sum, m.files(snap, xs)...)
		m.check(snap, xs, "the grown snapshot's", classes)
		return "snapshot + add"
	case 3:
		var buf bytes.Buffer
		if err := m.db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		db, err := fingerprint.LoadDB(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		x, err := Load(bytes.NewReader(savedBytes(t, m.x)), db)
		if err != nil {
			t.Fatal(err)
		}
		m.db, m.x = db, x
		return "save → load"
	default:
		saved := savedBytes(t, m.x)
		st := m.open(-1, nil)
		m.ingest(st, m.batch(1+m.rng.IntN(10), classes))
		m.close(st)
		lagging, err := Load(bytes.NewReader(saved), m.db)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(savedBytes(t, lagging), savedBytes(t, m.x)) {
			t.Fatal("an index loaded before an ingest and caught up saves other bytes than the one the ingest grew")
		}
		prefix := m.trained(m.db.Snapshot(1 + m.rng.IntN(m.db.Len())))
		rebase(t, prefix, m.db)
		m.x = prefix
		return "rebase catch-up"
	}
}

// open starts a volatile write path over the model's database and
// index; swaps land in the model.
func (m *viewModel) open(drift float64, rebuild func(*fingerprint.DB) (fingerprint.Searcher, error)) *ingest.Store {
	m.t.Helper()
	st, err := ingest.Open("", m.db, m.x, ingest.Options{DriftThreshold: drift, Rebuild: rebuild, Swapper: (*viewSwap)(m)})
	if err != nil {
		m.t.Fatal(err)
	}
	return st
}

// viewSwap receives a drift retrain's swap for the model.
type viewSwap viewModel

func (v *viewSwap) SetSearcher(s fingerprint.Searcher) { v.x = s }

func (m *viewModel) ingest(st *ingest.Store, ls []fingerprint.Linkage) {
	m.t.Helper()
	if _, err := st.IngestBatch(ls); err != nil {
		m.t.Fatal(err)
	}
}

// close waits for a retrain the store started, and its swap.
func (m *viewModel) close(st *ingest.Store) {
	m.t.Helper()
	if err := st.Close(); err != nil {
		m.t.Fatal(err)
	}
}

// files returns the digest of db's and x's saved bytes, chained to the
// digests of the files the step wrote before them.
func (m *viewModel) files(db *fingerprint.DB, x Searcher) []byte {
	m.t.Helper()
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		m.t.Fatal(err)
	}
	h := sha256.New()
	h.Write(m.sum)
	h.Write(buf.Bytes())
	h.Write([]byte(trainedDigest(m.t, x)))
	m.sum = nil
	return h.Sum(nil)
}

// check holds every answer of x to db: each match is the database's
// entry at its index, at its exact distance, and Flat is DB.Query.
func (m *viewModel) check(db *fingerprint.DB, x Searcher, when string, classes int) {
	t := m.t
	t.Helper()
	if x.Len() != db.Len() {
		t.Fatalf("%s after %s: index holds %d entries, the database %d", m.kind, when, x.Len(), db.Len())
	}
	for y := 0; y <= classes+1; y++ {
		for _, k := range []int{1, 5, 1000} {
			q := randomFP(m.rng, db.Dim())
			got, err := x.Search(q, y, k)
			if err != nil {
				t.Fatal(err)
			}
			for _, g := range got {
				e := db.Entry(g.Index)
				d := math.Sqrt(kernel.SqDist(q, e.F))
				if g.Source != e.S || g.Hash != e.H || g.Label != e.Y || e.Y != y || g.Distance != d {
					t.Fatalf("%s after %s: match %+v is not the database's entry %d (%q, label %d, distance %v)", m.kind, when, g, g.Index, e.S, e.Y, d)
				}
			}
			if m.kind != "flat" {
				continue
			}
			want, err := db.Query(q, y, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != 0 || len(want) != 0 {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("flat after %s: label %d k %d answers %v, DB.Query %v", when, y, k, got, want)
				}
			}
		}
	}
}
