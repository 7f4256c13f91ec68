package ingest

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"caltrain/internal/fingerprint"
)

// Cursor streams WAL records with sequence numbers at or past a
// starting point — the read side of WAL shipping (GET /v1/repl/wal).
// It captures a consistent view at open time: the set of segments then
// on disk and the acknowledged byte length of the active segment.
// Appends and rotations after open are simply not seen (the follower
// loops and opens a new cursor); a Truncate after open cannot delete
// the captured segments out from under the cursor, because open
// cursors pin them (see WAL.Truncate).
//
// A short or CRC-failing record ends its segment: a crash cut it, and
// its bytes were never acknowledged, so the restart after the crash
// logged that sequence number again. The next good record must not skip
// past it: its seq may be at most the damaged record's, when that
// record's header survived, or else one past the last good record (the
// lowest such bound, after damaged records in a row). A record that
// skips past is ErrCorrupt: acknowledged records were lost, not just a
// torn write. This one rule serves WAL shipping and Replay alike. Close
// releases the pin; a cursor must be closed or retired segments are
// never deleted.
type Cursor struct {
	w      *WAL
	from   uint64
	dim    int
	segs   []int
	active int   // segment number of the active segment at open time
	limit  int64 // acknowledged bytes in the active segment at open time

	i       int // next index into segs
	f       *os.File
	r       *bufio.Reader
	payload []byte
	next    uint64 // one past the last good record's seq; noSeq before the first
	bound   uint64 // the highest seq the next record may carry; noSeq for any
	closed  bool
}

// OpenCursor opens a cursor over every record with seq >= from that
// the log still retains. The caller must Close it.
func (w *WAL) OpenCursor(from uint64) (*Cursor, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil, errors.New("ingest: wal: cursor after Close")
	}
	segs, _, err := listSegments(w.dir)
	if err != nil {
		return nil, err
	}
	live := make([]int, 0, len(segs))
	for _, n := range segs {
		if !w.pending[n] {
			live = append(live, n)
		}
	}
	c := &Cursor{w: w, from: from, dim: w.dim, segs: live, active: w.active, limit: w.size, next: noSeq, bound: noSeq}
	w.cursors++
	return c, nil
}

// Next returns the next retained record with seq >= from, or io.EOF
// once the captured view is exhausted.
func (c *Cursor) Next() (uint64, fingerprint.Linkage, error) {
	if c.closed {
		return 0, fingerprint.Linkage{}, errors.New("ingest: wal: cursor read after Close")
	}
	for {
		if c.r == nil {
			if c.i >= len(c.segs) {
				return 0, fingerprint.Linkage{}, io.EOF
			}
			if err := c.openNext(); err != nil {
				return 0, fingerprint.Linkage{}, err
			}
		}
		seq, l, err := readWALRecord(c.r, c.dim, &c.payload)
		switch {
		case errors.Is(err, errTorn):
			if seq == noSeq {
				seq = c.next
			}
			c.bound = min(c.bound, seq)
			fallthrough
		case err == io.EOF:
			c.f.Close()
			c.f, c.r = nil, nil
			continue
		case err != nil:
			return 0, fingerprint.Linkage{}, fmt.Errorf("ingest: wal cursor: %w", err)
		case seq > c.bound:
			return 0, fingerprint.Linkage{}, fmt.Errorf("ingest: wal cursor %s: record %d skips past a damaged record (want seq <= %d): acknowledged records lost: %w",
				filepath.Base(segmentPath(c.w.dir, c.segs[c.i-1])), seq, c.bound, ErrCorrupt)
		}
		c.next, c.bound = seq+1, noSeq
		if seq < c.from {
			continue
		}
		return seq, l, nil
	}
}

// openNext opens the segment at c.segs[c.i], bounding the active one
// to the byte length captured at open time (bytes past it belong to
// appends after the cursor's view).
func (c *Cursor) openNext() error {
	n := c.segs[c.i]
	c.i++
	path := segmentPath(c.w.dir, n)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("ingest: wal cursor: %w", err)
	}
	var r io.Reader = f
	if n == c.active {
		r = io.LimitReader(f, c.limit)
	}
	br := bufio.NewReaderSize(r, 64<<10)
	dim, err := readWALHeader(br)
	if err != nil {
		f.Close()
		return fmt.Errorf("ingest: wal cursor %s: %w", filepath.Base(path), err)
	}
	if dim != c.dim {
		f.Close()
		return fmt.Errorf("ingest: wal cursor %s: log dim %d, want %d: %w", filepath.Base(path), dim, c.dim, ErrCorrupt)
	}
	c.f, c.r = f, br
	return nil
}

// Close releases the cursor's pin on retired segments; the last open
// cursor deletes any segments a Truncate deferred.
func (c *Cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	if c.f != nil {
		c.f.Close()
		c.f, c.r = nil, nil
	}
	w := c.w
	w.mu.Lock()
	defer w.mu.Unlock()
	w.cursors--
	if w.cursors == 0 && len(w.pending) > 0 {
		// Best-effort: a segment that survives this unlink attempt is
		// retried by the next Truncate, and is harmless meanwhile (its
		// records are snapshot-covered, so replay skips them).
		for n := range w.pending {
			os.Remove(segmentPath(w.dir, n))
		}
		w.pending = nil
		if w.opts.Sync != SyncNever {
			syncDir(w.dir)
		}
	}
	return nil
}
