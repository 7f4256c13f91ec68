package serve

import (
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"caltrain/internal/fingerprint"
	"caltrain/internal/index"
	"caltrain/internal/ingest"
)

// A write path with a log keeps the index its spec trains in the log
// directory, as index-<kind>-<digest>.ctix: the digest covers the knobs
// that decide the saved bytes, nprobe included, so a restart over the
// same database and knobs loads the file instead of training again. The
// file holds a training of a prefix of -db: a load catches it up with
// Append, which counts the caught-up entries as drift, as they were
// before the restart. The file is derived state: one that is missing,
// corrupt, of another version, of another database or of other knobs is
// refused and the index trained, and one that cannot be written costs
// the next start a training, never this start or a snapshot.
const (
	indexFilePrefix = "index-"
	indexFileSuffix = ".ctix"
)

// indexKeep is where one write path keeps the index its spec trains.
type indexKeep struct {
	kind string
	file string // dir/index-<kind>-<digest>.ctix
}

// training returns the options spec trains with, false when it does not
// train: flat and linear build in one pass, and a prebuilt index is the
// operator's. A spec wrapped by a caller is asked through its Unwrap.
func training(spec BackendSpec) (index.IVFPQOptions, bool) {
	switch s := spec.(type) {
	case IVFSpec:
		return index.IVFPQOptions{IVFOptions: s.IVFOptions}, true
	case IVFPQSpec:
		return s.IVFPQOptions, true
	case interface{ Unwrap() BackendSpec }:
		return training(s.Unwrap())
	}
	return index.IVFPQOptions{}, false
}

// keepIndex returns where the write path logging to dir keeps spec's
// trained index; false without a log or when spec does not train.
func keepIndex(dir string, spec BackendSpec) (indexKeep, bool) {
	o, ok := training(spec)
	if dir == "" || !ok {
		return indexKeep{}, false
	}
	knobs := fmt.Sprintf("%s nlist=%d nprobe=%d iters=%d sample=%d seed=%d", spec.Kind(), o.Nlist, o.Nprobe, o.Iters, o.SampleCap, o.Seed)
	if spec.Kind() == "ivfpq" {
		knobs += fmt.Sprintf(" m=%d", o.M)
	}
	sum := sha256.Sum256([]byte(knobs))
	name := fmt.Sprintf("%s%s-%x%s", indexFilePrefix, spec.Kind(), sum[:8], indexFileSuffix)
	return indexKeep{kind: spec.Kind(), file: filepath.Join(dir, name)}, true
}

// indexOrigin says where a write path's serving index came from.
type indexOrigin struct {
	kind    string
	trained bool   // the spec trained it (else it was built or loaded)
	loaded  string // the index file it was loaded from
	refused string // the index file that was refused, and why
}

func (o indexOrigin) String() string {
	switch {
	case o.loaded != "":
		return fmt.Sprintf("loaded %s index from %s", o.kind, o.loaded)
	case o.refused != "":
		return fmt.Sprintf("index file %s; trained %s index", o.refused, o.kind)
	case o.trained:
		return fmt.Sprintf("trained %s index", o.kind)
	}
	return fmt.Sprintf("built %s index", o.kind)
}

// summarize is a build's origin in one phrase: its one index's, or a
// sharded build's count (each refusal is logged as it happens); "" for
// a router over remote shards.
func summarize(origins []indexOrigin) string {
	switch len(origins) {
	case 0:
		return ""
	case 1:
		return origins[0].String()
	}
	loaded := 0
	for _, o := range origins {
		if o.loaded != "" {
			loaded++
		}
	}
	return fmt.Sprintf("built %d %s shard indexes (%d loaded from their log directories)", len(origins), origins[0].kind, loaded)
}

// backend builds spec's backend over db for the write path logging to
// dir, through build when it must be built. When the path keeps its
// index (keepIndex), the file there is loaded over db with index.Load —
// the checks and catch-up of -load-index; when it is refused the index
// is trained and written there before the log replays, so the file
// holds exactly db's entries.
func (d Deployment) backend(dir string, db *fingerprint.DB, spec BackendSpec, build func(BackendSpec, *fingerprint.DB) (fingerprint.Searcher, error)) (fingerprint.Searcher, indexOrigin, error) {
	origin := indexOrigin{kind: spec.Kind()}
	keep, ok := keepIndex(dir, spec)
	if ok {
		sr, err := LoadIndexFile(keep.file, db)
		if err == nil && sr.Kind() != keep.kind {
			err = fmt.Errorf("it holds a %s index", sr.Kind())
		}
		if err == nil {
			origin.loaded = keep.file
			return sr, origin, nil
		}
		if !os.IsNotExist(err) {
			origin.refused = fmt.Sprintf("%s refused (%v)", keep.file, err)
		}
		for _, other := range otherIndexFiles(keep) {
			if origin.refused == "" && !strings.HasSuffix(other, ".tmp") {
				origin.refused = other + " refused (trained with other knobs)"
			}
		}
		if origin.refused != "" {
			d.logf("index: index file %s; training", origin.refused)
		}
	}
	sr, err := build(spec, db)
	if err != nil {
		return nil, origin, err
	}
	_, trains := training(spec)
	origin.trained = trains && sr.Kind() == spec.Kind()
	if ok {
		d.saveIndex(keep, sr)
		for _, other := range otherIndexFiles(keep) {
			os.Remove(other)
		}
	}
	return sr, origin, nil
}

// LoadIndexFile reads the index file at path as db's index (index.Load):
// every entry is checked against db, and an index of a prefix of it
// catches up. A missing file answers os.IsNotExist.
func LoadIndexFile(path string, db *fingerprint.DB) (fingerprint.Searcher, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return index.Load(f, db)
}

// SaveIndexFile writes sr to path through ingest.WriteFile, as
// ingest.Store.Snapshot does the database: a crash, a full disk or a
// failed Save leaves the previous file whole.
func SaveIndexFile(path string, sr fingerprint.Searcher) error {
	return ingest.WriteFile(path, func(w io.Writer) error { return index.Save(w, sr) })
}

// saveIndex writes sr to keep's file (SaveIndexFile); a failure is
// logged, never returned — the file is derived state. A backend of
// another kind (an empty shard's exact fallback) is not the spec's
// index and is not kept.
func (d Deployment) saveIndex(keep indexKeep, sr fingerprint.Searcher) {
	if sr.Kind() != keep.kind {
		return
	}
	err := os.MkdirAll(filepath.Dir(keep.file), 0o755)
	if err == nil {
		err = SaveIndexFile(keep.file, sr)
	}
	if err != nil {
		d.logf("index: keeping %s: %v", keep.file, err)
	}
}

// persist is a snapshot's half of keeping: sr is a serving index that
// replaced the one whose training the file holds (a drift retrain, or a
// full resync that wiped the file), so the file goes. A training no
// entry has been appended to since covers exactly the new -db and is
// written in its place; one that has drifted is not, because CTIX does
// not say which entries were appended and the file would load with its
// drift reset — the next start trains. Snapshots that find the kept
// training still serving write nothing: the file is a prefix of the new
// -db, and a load catches it up.
func (d Deployment) persist(keep indexKeep, sr fingerprint.Searcher) {
	if err := os.Remove(keep.file); err != nil && !os.IsNotExist(err) {
		d.logf("index: dropping %s: %v", keep.file, err)
	}
	if dr, ok := sr.(index.Drifter); ok && dr.Drift() == 0 {
		d.saveIndex(keep, sr)
	}
}

// otherIndexFiles lists the index files, and temporaries of them, that
// keep's directory holds besides keep's own: other knobs' or kinds'.
func otherIndexFiles(keep indexKeep) []string {
	dir := filepath.Dir(keep.file)
	entries, _ := os.ReadDir(dir)
	var out []string
	for _, e := range entries {
		path := filepath.Join(dir, e.Name())
		if strings.HasPrefix(e.Name(), indexFilePrefix) && strings.HasSuffix(strings.TrimSuffix(e.Name(), ".tmp"), indexFileSuffix) &&
			path != keep.file && path != keep.file+".tmp" {
			out = append(out, path)
		}
	}
	return out
}
