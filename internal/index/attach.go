package index

import (
	"errors"
	"fmt"

	"caltrain/internal/fingerprint"
)

// ErrForeignIndex marks an index that is not its database's: one whose
// entries are not the database's first ones, by Digest — another
// database's, or more entries than the database has — or whose labels'
// counts are not theirs. Branch with errors.Is.
var ErrForeignIndex = errors.New("index: not the database's index")

// Attach makes s the index of db. The entries of s, its own database's
// first s.Len(), must be db's first s.Len(): the same Digest, the
// binding Save writes and Load checks; otherwise Attach refuses with
// ErrForeignIndex and leaves s as it was. s is then a view of db
// (Rebase), and the entries db holds past s's are appended in database
// order, as the write path would have appended them. A searcher other
// than Flat, IVF and IVFPQ is left alone.
func Attach(s Searcher, db *fingerprint.DB) error {
	x, ok := s.(interface{ prefix() (*fingerprint.DB, int) })
	if !ok {
		return nil
	}
	if db.Dim() != s.Dim() {
		return fmt.Errorf("%w: database has %d dims, index %d", fingerprint.ErrDimMismatch, db.Dim(), s.Dim())
	}
	own, n := x.prefix()
	if n > db.Len() {
		return fmt.Errorf("%w: %d entries, the database %d", ErrForeignIndex, n, db.Len())
	}
	if own != db && own.Digest(n) != db.Digest(n) {
		return fmt.Errorf("%w: the database's first %d entries are not the index's", ErrForeignIndex, n)
	}
	s.(Appender).Rebase(db)
	return catchUp(s.(Appender), db)
}

// catchUp appends to s, in database order, the entries db holds past
// s's: an index saved before its database grew — a snapshot that landed
// the database file but not the index file — catches up instead of
// being refused.
func catchUp(s Appender, db *fingerprint.DB) error {
	for i := s.Len(); i < db.Len(); i++ {
		if err := s.Append(i); err != nil {
			return fmt.Errorf("index: catching up entry %d: %w", i, err)
		}
	}
	return nil
}
