package index

import (
	"errors"
	"fmt"
	"math"

	"caltrain/internal/fingerprint"
)

// ErrForeignIndex marks an index that is not its database's: an entry
// the database does not hold at that index (label, source, hash, and for
// Flat and IVF the row's bits), an index outside the database's first
// Len() entries or held twice, or more entries than the database has.
// Branch with errors.Is.
var ErrForeignIndex = errors.New("index: not the database's index")

// Attach makes s — typically read by Load — the index of db. Every entry
// of s must be db's entry at its database index, and together they must
// be db's first s.Len() entries; otherwise Attach refuses with
// ErrForeignIndex and leaves s as it was. An IVFPQ then takes db for its
// exact stage (AttachDB), and the entries db holds past s's are
// appended in database order, as the write path would have appended
// them: an index saved before its database grew — a snapshot that
// landed the database file but not the index file — catches up instead
// of being refused. A searcher other than Flat, IVF and IVFPQ is left
// alone.
func Attach(s Searcher, db *fingerprint.DB) error {
	switch x := s.(type) {
	case *IVFPQ:
		if err := x.AttachDB(db); err != nil {
			return err
		}
	case *Flat, *IVF:
		if err := checkPrefix(s, db); err != nil {
			return err
		}
	default:
		return nil
	}
	ap := s.(Appender)
	for i := s.Len(); i < db.Len(); i++ {
		if err := ap.Append(i, db.Entry(i)); err != nil {
			return fmt.Errorf("index: attach: catching up entry %d: %w", i, err)
		}
	}
	return nil
}

// checkPrefix reports whether the entries of s are db's first s.Len()
// entries, each the database's at its index: one pass over the index in
// whatever order it keeps its runs, each database index marked once.
func checkPrefix(s Searcher, db *fingerprint.DB) error {
	if db.Dim() != s.Dim() {
		return fmt.Errorf("%w: database has %d dims, index %d", fingerprint.ErrDimMismatch, db.Dim(), s.Dim())
	}
	n := s.Len()
	if n > db.Len() {
		return fmt.Errorf("%w: %d entries, the database %d", ErrForeignIndex, n, db.Len())
	}
	seen := make([]uint64, (n+63)/64)
	check := func(y int, e *entries, vecs *rows) error {
		for pos, idx := range e.idx {
			i := int(idx)
			if i < 0 || i >= n || seen[i/64]&(1<<(i%64)) != 0 {
				return fmt.Errorf("%w: entry %d of label %d is outside the database's first %d or held twice", ErrForeignIndex, i, y, n)
			}
			seen[i/64] |= 1 << (i % 64)
			src, hash := e.provenance(pos)
			l := db.Entry(i)
			if l.Y != y || l.S != src || l.H != hash {
				return fmt.Errorf("%w: entry %d (label %d, source %q) is not the database's (label %d, source %q)", ErrForeignIndex, i, y, src, l.Y, l.S)
			}
			if vecs != nil && !sameRow(vecs.at(pos), l.F) {
				return fmt.Errorf("%w: entry %d's row is not the database's", ErrForeignIndex, i)
			}
		}
		return nil
	}
	switch x := s.(type) {
	case *Flat:
		x.mu.RLock()
		defer x.mu.RUnlock()
		for y, b := range x.buckets {
			if err := check(y, &b.entries, &b.vecs); err != nil {
				return err
			}
		}
	case *IVF:
		x.mu.RLock()
		defer x.mu.RUnlock()
		for y, c := range x.labels {
			if err := check(y, &c.b.entries, &c.b.vecs); err != nil {
				return err
			}
		}
	case *IVFPQ:
		x.mu.RLock()
		defer x.mu.RUnlock()
		for y, c := range x.labels {
			for _, l := range c.lists {
				if err := check(y, &l.entries, nil); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// sameRow reports whether two rows hold the same float32 bits.
func sameRow(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for j, v := range a {
		if math.Float32bits(v) != math.Float32bits(b[j]) {
			return false
		}
	}
	return true
}
