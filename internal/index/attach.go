package index

import (
	"errors"
	"fmt"

	"caltrain/internal/f32le"
	"caltrain/internal/fingerprint"
)

// ErrForeignIndex marks an index that is not its database's: an entry
// the database does not hold at that index (label, source, hash, and the
// row's bits), an index outside the database's first Len() entries or
// held twice, or more entries than the database has. Branch with
// errors.Is.
var ErrForeignIndex = errors.New("index: not the database's index")

// Attach makes s the index of db. Every entry of s must be db's entry at
// its database index, and together they must be db's first s.Len()
// entries; otherwise Attach refuses with ErrForeignIndex and leaves s as
// it was. s is then a view of db (Rebase), and the entries db holds past
// s's are appended in database order, as the write path would have
// appended them. A searcher other than Flat, IVF and IVFPQ is left
// alone.
func Attach(s Searcher, db *fingerprint.DB) error {
	switch s.(type) {
	case *Flat, *IVF, *IVFPQ:
		if err := checkPrefix(s, db); err != nil {
			return err
		}
		s.(Appender).Rebase(db)
		return catchUp(s.(Appender), db)
	}
	return nil
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

// checkPrefix reports whether the entries of s, as the database it is a
// view of holds them, are db's first s.Len() entries, each the
// database's at its index: one pass over the index in whatever order it
// keeps its runs.
func checkPrefix(s Searcher, db *fingerprint.DB) error {
	if db.Dim() != s.Dim() {
		return fmt.Errorf("%w: database has %d dims, index %d", fingerprint.ErrDimMismatch, db.Dim(), s.Dim())
	}
	if n := s.Len(); n > db.Len() {
		return fmt.Errorf("%w: %d entries, the database %d", ErrForeignIndex, n, db.Len())
	}
	chk := newEntryCheck(db)
	var own *fingerprint.DB
	var row []byte
	run := func(y int, idx []int32) error {
		for _, i := range idx {
			l := own.Entry(int(i))
			row = f32le.Append(row[:0], l.F)
			if err := chk.entry(int(i), y, []byte(l.S), l.H[:], row); err != nil {
				return err
			}
		}
		return nil
	}
	switch x := s.(type) {
	case *Flat:
		x.mu.RLock()
		defer x.mu.RUnlock()
		own = x.db
		for y, b := range x.buckets {
			if err := run(y, b.idx); err != nil {
				return err
			}
		}
	case *IVF:
		x.mu.RLock()
		defer x.mu.RUnlock()
		own = x.db
		for y, c := range x.labels {
			if err := run(y, c.b.idx); err != nil {
				return err
			}
		}
	case *IVFPQ:
		x.mu.RLock()
		defer x.mu.RUnlock()
		own = x.db
		for y, c := range x.labels {
			for _, l := range c.lists {
				if err := run(y, l.idx); err != nil {
					return err
				}
			}
		}
	}
	return chk.prefix()
}

// entryCheck holds an index's entries, one at a time, to a database:
// each must be db's entry at its index — label, source, hash and, where
// the caller has it, the row's bits — below the Len() db had when the
// check began, and no index may be held twice. Load runs it on each
// entry as it reads it, checkPrefix on each entry an index holds.
type entryCheck struct {
	db   *fingerprint.DB
	recs fingerprint.Records // db's entries when the check began
	n    int
	seen []uint64 // the indices held so far
	held int
	top  int // one past the highest index held
}

func newEntryCheck(db *fingerprint.DB) *entryCheck {
	recs := db.Records()
	n := recs.Len()
	return &entryCheck{db: db, recs: recs, n: n, seen: make([]uint64, (n+63)/64)}
}

// entry checks that database index i holds an entry of label y with
// this source, hash and (unless row is nil) row, as a file stores them:
// a compare with the database's columns in place (Records.Holds).
func (c *entryCheck) entry(i, y int, src, hash, row []byte) error {
	if i < 0 || i >= c.n || c.seen[i/64]&(1<<(i%64)) != 0 {
		return fmt.Errorf("%w: entry %d of label %d is outside the database's %d or held twice", ErrForeignIndex, i, y, c.n)
	}
	c.seen[i/64] |= 1 << (i % 64)
	c.held, c.top = c.held+1, max(c.top, i+1)
	if c.recs.Holds(i, y, src, hash, row) {
		return nil
	}
	if l := c.db.Entry(i); l.Y != y || string(src) != l.S || [32]byte(hash) != l.H {
		return fmt.Errorf("%w: entry %d of label %d is not the database's (label %d, source %q)", ErrForeignIndex, i, y, l.Y, l.S)
	}
	return fmt.Errorf("%w: entry %d's row is not the database's", ErrForeignIndex, i)
}

// prefix reports whether the entries held so far are the database's
// first ones: as many as one past the highest of them.
func (c *entryCheck) prefix() error {
	if c.top != c.held {
		return fmt.Errorf("%w: its %d entries are not the database's first %d (it holds entry %d)", ErrForeignIndex, c.held, c.held, c.top-1)
	}
	return nil
}
