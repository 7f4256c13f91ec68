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

// A deployment whose backend trains keeps the index it trained as
// index-<kind>-<digest>.ctix in a write path's log directory or, for
// a single service without a log, beside the database file it was
// loaded from, named after it: linkage.db keeps
// linkage.db.index-ivf-<digest>.ctix. The digest covers the knobs that decide the saved bytes,
// nprobe included, so a restart over the same database and knobs loads
// the file instead of training again, and one with other knobs trains.
// The file holds a training of a prefix of the database: a load catches
// it up with Append, which counts the caught-up entries as drift, as
// they were before the restart. The file is derived state: one that is
// missing, corrupt, of another version, of another database or of other
// knobs is refused and the index trained, and one that cannot be
// written costs the next start a training, never this start or a
// snapshot.
const (
	indexFilePrefix = "index-"
	indexFileSuffix = ".ctix"
)

// indexKeep is where one deployment keeps the index its backend trains.
type indexKeep struct {
	kind string
	base string // what every index file of this place starts with
	file string // base + <kind>-<digest>.ctix
}

// keepBase is the base of the index files a write path keeps: in its
// log directory dir, else beside the database file db; "" keeps none.
func keepBase(dir, db string) string {
	switch {
	case dir != "":
		return filepath.Join(dir, indexFilePrefix)
	case db != "":
		return db + "." + indexFilePrefix
	}
	return ""
}

// KeptIndexFile is the file a deployment without a log keeps b's
// trained index in when its database was loaded from db (see
// Deployment.DBFile); false when b does not train. caltrain-shard
// writes each shard's training there, so a daemon serving the shard
// with the same knobs loads it on its first start.
func KeptIndexFile(db string, b BackendConfig) (string, bool) {
	keep, ok := keepIndex(keepBase("", db), b)
	return keep.file, ok
}

// keepIndex returns where b's trained index is kept under base
// (keepBase); false without a base or when b does not train. The digest
// spells a sample cap the serving tier never sets as sample=0, so the
// names of files kept before it stopped being a knob still load.
func keepIndex(base string, b BackendConfig) (indexKeep, bool) {
	if base == "" || !b.trains() {
		return indexKeep{}, false
	}
	kind := b.kind()
	knobs := fmt.Sprintf("%s nlist=%d nprobe=%d iters=%d sample=0 seed=%d", kind, b.Nlist, b.Nprobe, b.Iters, b.Seed)
	if kind == "ivfpq" {
		knobs += fmt.Sprintf(" m=%d", b.M)
	}
	sum := sha256.Sum256([]byte(knobs))
	return indexKeep{kind: kind, base: base, file: fmt.Sprintf("%s%s-%x%s", base, kind, sum[:8], indexFileSuffix)}, true
}

// indexOrigin says where a write path's serving index came from.
type indexOrigin struct {
	kind    string
	trained bool   // the backend trained it (else it was built or loaded)
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

// backend builds the deployment's backend over db. When it trains and
// base names a place (keepBase), the file kept there is loaded over db
// with index.Load; when it is refused the index is trained and written
// there before a log replays, so the file holds exactly db's entries.
func (d Deployment) backend(base string, db *fingerprint.DB) (fingerprint.Searcher, indexOrigin, error) {
	origin := indexOrigin{kind: d.Backend.kind()}
	keep, ok := keepIndex(base, d.Backend)
	if ok {
		sr, err := loadIndexFile(keep.file, db)
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
	sr, err := d.Backend.build(db)
	if err != nil {
		return nil, origin, err
	}
	origin.trained = d.Backend.trains()
	if ok {
		d.saveIndex(keep, sr)
		for _, other := range otherIndexFiles(keep) {
			os.Remove(other)
		}
	}
	return sr, origin, nil
}

// loadIndexFile reads the index file at path as db's index (index.Load):
// it must be bound to db's first entries, and an index of a prefix of
// db catches up. A missing file answers os.IsNotExist.
func loadIndexFile(path string, db *fingerprint.DB) (fingerprint.Searcher, error) {
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
// another kind (an empty shard's exact fallback) is not the deployment's
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

// otherIndexFiles lists the index files, and temporaries of them, kept
// under keep's base besides keep's own: other knobs' or kinds'. Files
// of another base in the same directory — another database's — are not
// keep's to refuse or remove.
func otherIndexFiles(keep indexKeep) []string {
	dir, prefix, own := filepath.Dir(keep.base), filepath.Base(keep.base), filepath.Base(keep.file)
	entries, _ := os.ReadDir(dir)
	var out []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, prefix) && strings.HasSuffix(strings.TrimSuffix(name, ".tmp"), indexFileSuffix) &&
			name != own && name != own+".tmp" {
			out = append(out, filepath.Join(dir, name))
		}
	}
	return out
}
