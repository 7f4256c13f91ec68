// Package ingest is the durable online write path of CalTrain's
// accountability serving tier (§IV-C): every collaborative training
// round mints new instance→model linkages, and this package lets a
// running query daemon absorb them without a retrain-and-restart cycle.
//
// The pieces, bottom up:
//
//   - WAL: a CRC-framed, segment-rotating write-ahead log. A linkage
//     batch is acknowledged only after it is framed, written, and (per
//     the configured SyncPolicy) fsynced, so an acknowledged write
//     survives SIGKILL.
//   - Store: ties the WAL to the linkage database and an appendable
//     index backend (index.Appender). On restart it replays the WAL on
//     top of the last database snapshot; at runtime it applies batches
//     WAL-first, tracks approximate-index drift, and retrains + hot-swaps
//     the serving backend in the background once drift crosses a
//     threshold. Snapshot persists the database and truncates the WAL
//     (compaction). Opened without a log directory, the same Store is
//     a deployment's volatile write path: everything but the log.
//
// The Store implements fingerprint.Ingester, so a fingerprint.Service
// exposes it as POST /ingest with counters on /stats; internal/shard
// fans the same batches out to every replica of the owning shard.
package ingest

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"caltrain/internal/f32le"
	"caltrain/internal/fingerprint"
	"caltrain/internal/obs"
)

// WAL corruption sentinels, shared with the other format loaders (see
// internal/fingerprint): branch with errors.Is.
var (
	// ErrCorrupt marks a WAL segment that fails structural validation
	// somewhere other than the torn tail of the final segment.
	ErrCorrupt = fingerprint.ErrCorrupt
	// ErrVersionMismatch marks a WAL segment written by an incompatible
	// format version.
	ErrVersionMismatch = fingerprint.ErrVersionMismatch
)

// SyncPolicy selects when the WAL fsyncs.
type SyncPolicy uint8

const (
	// SyncAlways fsyncs every Append before acknowledging it: an
	// acknowledged batch survives power loss. The default.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs on a background timer (WALOptions.SyncEvery):
	// a crash loses at most one interval of acknowledged writes.
	SyncInterval
	// SyncNever leaves syncing to the OS page cache: a process crash
	// loses nothing (the data is in kernel buffers), a machine crash can
	// lose everything since the last natural writeback.
	SyncNever
)

// String names the policy for flags and logs.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("syncpolicy(%d)", uint8(p))
	}
}

// ParseSyncPolicy turns a -fsync flag value into a SyncPolicy; the
// empty string is the default, SyncAlways.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always", "":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("ingest: unknown fsync policy %q (want always, interval, or never)", s)
	}
}

// WALOptions tunes the log.
type WALOptions struct {
	// Sync is the fsync policy. Default SyncAlways.
	Sync SyncPolicy
	// SyncEvery is the SyncInterval flush period. Default 50ms.
	SyncEvery time.Duration
	// SegmentBytes rotates to a fresh segment file once the active one
	// exceeds this size. Default 64MB.
	SegmentBytes int64
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SyncEvery <= 0 {
		o.SyncEvery = 50 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// Serialized WAL format, little-endian, versioned like the other
// CalTrain formats. Each segment file (wal-XXXXXXXX.seg) starts with
//
//	"CTWL" | version u8 | dim u32
//
// followed by records, one linkage each:
//
//	seq u64 | paylen u32 | crc32(payload) u32 | payload
//	payload: label i32 | srclen u16 | src | hash[32] | dim × f32
//
// seq is the linkage's index in the backing database, which makes
// replay idempotent across snapshots: records already covered by the
// loaded snapshot (seq < db.Len()) are skipped without a manifest file.
const (
	walMagic     = "CTWL"
	walVersion   = 1
	walHeaderLen = 4 + 1 + 4
	walSuffix    = ".seg"
	walPrefix    = "wal-"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// WAL is a CRC-framed, segment-rotating write-ahead log of linkages.
// Open replays nothing by itself: call Replay before the first Append.
// Safe for one writer at a time; Append serializes internally.
type WAL struct {
	dir  string
	dim  int
	opts WALOptions

	mu      sync.Mutex
	f       *os.File
	active  int    // active segment number
	size    int64  // bytes in the active segment
	total   int64  // bytes across all live segments
	buf     []byte // record scratch
	stopSyn chan struct{}
	synWG   sync.WaitGroup
	closed  bool
	// failed is why appends stopped (fail-stop): a torn write that could
	// not be rolled back, or a failed fsync — after which the kernel may
	// have dropped the dirty pages and cleared the error, so a later fsync
	// could report success over records that never reached the disk.
	// Either way the damage stays at the stream's tail, which replay
	// tolerates.
	failed error
	// cursors counts open replication cursors (OpenCursor). While any
	// are open, Truncate defers segment unlinking into pending instead
	// of deleting files a reader still holds mid-stream.
	cursors int
	// pending names segments logically deleted by Truncate while a
	// cursor pinned them; the last cursor Close unlinks them. A crash
	// before that point leaves the files behind harmlessly: their
	// records are covered by the snapshot that triggered the Truncate,
	// so the next restart's idempotent replay skips every one.
	pending map[int]bool
}

// OpenWAL opens (creating if needed) the log directory and starts a
// fresh active segment after any existing ones — earlier segments are
// never appended to, so a torn tail from a crash stays confined to the
// end of the stream. Existing records are read back with Replay.
func OpenWAL(dir string, dim int, opts WALOptions) (*WAL, error) {
	if dim <= 0 {
		return nil, fmt.Errorf("ingest: wal dimension must be positive, got %d", dim)
	}
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: wal: %w", err)
	}
	segs, total, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next := 1
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
	}
	w := &WAL{dir: dir, dim: dim, opts: opts, total: total, stopSyn: make(chan struct{})}
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	if opts.Sync == SyncInterval {
		w.synWG.Add(1)
		go w.syncLoop()
	}
	return w, nil
}

// listSegments returns the segment numbers in dir ascending plus their
// total byte size.
func listSegments(dir string) ([]int, int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, 0, fmt.Errorf("ingest: wal: %w", err)
	}
	var segs []int
	var total int64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, walPrefix) || !strings.HasSuffix(name, walSuffix) {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(name, walPrefix+"%08d"+walSuffix, &n); err != nil || n < 1 {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, total, nil
}

func segmentPath(dir string, n int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", walPrefix, n, walSuffix))
}

// openSegment creates segment n, writes its header, and fsyncs the
// directory so the file itself survives a crash. Callers hold w.mu or
// have exclusive access.
func (w *WAL) openSegment(n int) error {
	path := segmentPath(w.dir, n)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ingest: wal: %w", err)
	}
	// Any failure past this point removes the file: a partially-headered
	// segment left behind would poison the next restart's replay (and
	// block the O_EXCL retry).
	fail := func(err error) error {
		f.Close()
		os.Remove(path)
		return err
	}
	hdr := appendWALHeader(make([]byte, 0, walHeaderLen), w.dim)
	if _, err := f.Write(hdr); err != nil {
		return fail(fmt.Errorf("ingest: wal: %w", err))
	}
	if w.opts.Sync != SyncNever {
		if err := f.Sync(); err != nil {
			return fail(fmt.Errorf("ingest: wal: %w", err))
		}
		if err := syncDir(w.dir); err != nil {
			return fail(fmt.Errorf("ingest: wal: %w", err))
		}
	}
	w.f, w.active, w.size = f, n, walHeaderLen
	w.total += walHeaderLen
	return nil
}

// syncDir fsyncs a directory, so the files created, renamed or removed
// in it stay that way across a crash. It is a variable so a test can
// see where a sync falls among the renames and removals around it.
var syncDir = func(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sync dir: %w", err)
	}
	return nil
}

func (w *WAL) syncLoop() {
	defer w.synWG.Done()
	t := time.NewTicker(w.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			w.mu.Lock()
			if !w.closed && w.failed == nil {
				// A failure fails the log stop: the next Append reports it.
				_ = w.syncLocked()
			}
			w.mu.Unlock()
		case <-w.stopSyn:
			return
		}
	}
}

// appendWALHeader frames the CTWL segment header into buf — shared by
// segment files and the /v1/repl/wal ship stream, which reuses the
// segment framing byte for byte.
func appendWALHeader(buf []byte, dim int) []byte {
	buf = append(buf, walMagic...)
	buf = append(buf, walVersion)
	return binary.LittleEndian.AppendUint32(buf, uint32(dim))
}

// appendWALRecord frames one linkage record into buf — the shared
// encoder behind WAL.Append and the replication ship stream.
func appendWALRecord(buf []byte, dim int, seq uint64, l fingerprint.Linkage) []byte {
	payLen := 4 + 2 + len(l.S) + 32 + 4*dim
	buf = binary.LittleEndian.AppendUint64(buf, seq)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(payLen))
	payStart := len(buf) + 4 // past the CRC slot
	buf = append(buf, 0, 0, 0, 0)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(int32(l.Y)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(l.S)))
	buf = append(buf, l.S...)
	buf = append(buf, l.H[:]...)
	buf = f32le.Append(buf, l.F)
	crc := crc32.Checksum(buf[payStart:], crcTable)
	binary.LittleEndian.PutUint32(buf[payStart-4:payStart], crc)
	return buf
}

// errTorn tags a record that ends short or fails its CRC — the
// signature of a write interrupted mid-record. Whether that is fatal
// depends on the reader: replay tolerates it only at the stream's
// tail, a cursor skips to the next segment (the bytes were never
// acknowledged), and a ship-stream reader treats it as a truncated
// transfer.
var errTorn = errors.New("torn record")

// readWALHeader reads and validates a CTWL header, returning the
// stream's fingerprint dimension.
func readWALHeader(r io.Reader) (int, error) {
	hdr := make([]byte, walHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, fmt.Errorf("header: %w: %w", err, ErrCorrupt)
	}
	if string(hdr[:4]) != walMagic {
		return 0, fmt.Errorf("bad magic %q: %w", hdr[:4], ErrCorrupt)
	}
	if hdr[4] != walVersion {
		return 0, fmt.Errorf("unsupported version %d: %w", hdr[4], ErrVersionMismatch)
	}
	dim := int(binary.LittleEndian.Uint32(hdr[5:]))
	if dim <= 0 {
		return 0, fmt.Errorf("implausible dimension %d: %w", dim, ErrCorrupt)
	}
	return dim, nil
}

// readWALRecord decodes the next record from r. It returns io.EOF at a
// clean record boundary, an errTorn-tagged error for a short or
// CRC-failing record, and an ErrCorrupt-tagged error for damage the
// CRC vouched for (which no torn write can produce). *payload is the
// caller's reusable scratch buffer.
func readWALRecord(r io.Reader, dim int, payload *[]byte) (uint64, fingerprint.Linkage, error) {
	var recHdr [8 + 4 + 4]byte
	if _, err := io.ReadFull(r, recHdr[:]); err != nil {
		if err == io.EOF {
			return 0, fingerprint.Linkage{}, io.EOF
		}
		return 0, fingerprint.Linkage{}, fmt.Errorf("record header: %w: %w", err, errTorn)
	}
	seq := binary.LittleEndian.Uint64(recHdr[:])
	payLen := int(binary.LittleEndian.Uint32(recHdr[8:]))
	crc := binary.LittleEndian.Uint32(recHdr[12:])
	if payLen < 4+2+32+4*dim || payLen > 4+2+65535+32+4*dim {
		return 0, fingerprint.Linkage{}, fmt.Errorf("implausible record length %d: %w", payLen, errTorn)
	}
	buf, err := readBody(r, payload, payLen)
	if err != nil {
		return 0, fingerprint.Linkage{}, fmt.Errorf("record body: %w: %w", err, errTorn)
	}
	if crc32.Checksum(buf, crcTable) != crc {
		return 0, fingerprint.Linkage{}, fmt.Errorf("record %d CRC mismatch: %w", seq, errTorn)
	}
	l := fingerprint.Linkage{Y: int(int32(binary.LittleEndian.Uint32(buf)))}
	slen := int(binary.LittleEndian.Uint16(buf[4:]))
	if 4+2+slen+32+4*dim != payLen {
		return 0, fingerprint.Linkage{}, fmt.Errorf("record %d source length %d inconsistent: %w", seq, slen, ErrCorrupt)
	}
	l.S = string(buf[6 : 6+slen])
	copy(l.H[:], buf[6+slen:6+slen+32])
	l.F = make(fingerprint.Fingerprint, dim)
	f32le.Decode(l.F, buf[6+slen+32:])
	return seq, l, nil
}

// readBody reads a record's n-byte payload into the caller's scratch,
// growing it only as the bytes arrive — by at most what it already
// holds, from 64 KiB — so a length field that lies (a stream header can
// claim any dimension, and the length may match it) costs memory in
// proportion to the bytes the stream really carries.
func readBody(r io.Reader, scratch *[]byte, n int) ([]byte, error) {
	buf := (*scratch)[:0]
	for len(buf) < n {
		step := min(n-len(buf), max(len(buf), 64<<10))
		if cap(buf)-len(buf) < step {
			grown := make([]byte, len(buf), len(buf)+step)
			copy(grown, buf)
			buf = grown
			*scratch = buf
		}
		got, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+got]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Append logs a batch of linkages, the first at sequence number seq and
// the rest consecutive. It returns once the batch is written — and,
// under SyncAlways, fsynced: the acknowledgment is the durability
// guarantee. The segment rotates once it exceeds SegmentBytes.
func (w *WAL) Append(seq uint64, ls []fingerprint.Linkage) error {
	return w.AppendCtx(context.Background(), seq, ls)
}

// AppendCtx is Append with a caller-supplied context: the SyncAlways
// fsync is recorded as its own "fsync" span on the context's trace, so
// a trace of a slow write separates disk-flush time from framing and
// buffer-write time.
func (w *WAL) AppendCtx(ctx context.Context, seq uint64, ls []fingerprint.Linkage) error {
	if len(ls) == 0 {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("ingest: wal: append after Close")
	}
	if w.failed != nil {
		return fmt.Errorf("ingest: wal: log closed to appends until restart: %w", w.failed)
	}
	w.buf = w.buf[:0]
	for i, l := range ls {
		if len(l.F) != w.dim {
			return fmt.Errorf("%w: wal append: %d dims, log %d", fingerprint.ErrDimMismatch, len(l.F), w.dim)
		}
		w.buf = appendWALRecord(w.buf, w.dim, seq+uint64(i), l)
	}
	n, err := w.f.Write(w.buf)
	if err != nil {
		// Roll the torn record back so later acknowledged batches are
		// not appended after mid-segment garbage — replay tolerates
		// damage only at the stream's tail. If the rollback itself
		// fails, fail stop: refusing further appends keeps the torn
		// bytes at the tail, where the next restart's replay skips them
		// (they were never acknowledged).
		if !w.rollback() {
			w.failed = fmt.Errorf("torn write not rolled back: %w", err)
			return fmt.Errorf("ingest: wal: %w (rollback failed; log closed to appends until restart)", err)
		}
		return fmt.Errorf("ingest: wal: %w", err)
	}
	w.size += int64(n)
	w.total += int64(n)
	if w.opts.Sync == SyncAlways {
		_, span := obs.StartSpan(ctx, "fsync")
		err := w.syncLocked()
		span.SetError(err)
		span.End()
		if err != nil {
			// The batch is not durable and is reported failed, so it must
			// not come back at replay: roll it back as a torn write is. The
			// log stays failed whatever the rollback returns.
			w.size -= int64(n)
			w.total -= int64(n)
			w.rollback()
			return fmt.Errorf("%w (log closed to appends until restart)", err)
		}
	}
	if w.size >= w.opts.SegmentBytes {
		// The batch is already durable; a rotation failure must not fail
		// it (the caller would report "failed" for records replay will
		// resurrect). The size check re-fires on the next Append, so
		// rotation simply retries then.
		_ = w.rotateLocked()
	}
	return nil
}

// rollback truncates the active segment back to w.size, the end of its
// last logged batch, and repositions the write offset there; it reports
// whether both succeeded. Callers hold w.mu.
func (w *WAL) rollback() bool {
	if w.f.Truncate(w.size) != nil {
		return false
	}
	pos, err := w.f.Seek(w.size, io.SeekStart)
	return err == nil && pos == w.size
}

// syncLocked fsyncs the active segment; a failure fails the log stop
// (see failed). Callers hold w.mu.
func (w *WAL) syncLocked() error {
	if err := w.f.Sync(); err != nil {
		w.failed = fmt.Errorf("fsync failed: %w", err)
		return fmt.Errorf("ingest: wal: %w", w.failed)
	}
	return nil
}

// rotateLocked switches to the next segment. The old segment stays
// open (and appendable) until the new one is fully created, so a failed
// rotation leaves the log in a working state.
func (w *WAL) rotateLocked() error {
	old := w.f
	if err := w.openSegment(w.active + 1); err != nil {
		w.f = old
		return err
	}
	old.Close()
	return nil
}

// Sync flushes the active segment to stable storage regardless of
// policy. A failure fails the log stop, as under the policies.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	return w.syncLocked()
}

// Bytes returns the total size of all live segments — the wal_bytes
// stat, and the operator's cue that a Snapshot is overdue.
func (w *WAL) Bytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total
}

// Segments counts the live segments on disk — the wal_segments stat.
// Segments a Truncate has already retired but a cursor still pins are
// not counted: logically they are gone.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	segs, _, err := listSegments(w.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, s := range segs {
		if !w.pending[s] {
			n++
		}
	}
	return n
}

// Truncate retires every segment and starts a fresh one — the
// compaction step after the backing database has been snapshotted, at
// which point every logged record is covered by the snapshot. Callers
// must guarantee no concurrent Append (the Store holds its write lock).
//
// Segments pinned by an open replication cursor are not unlinked —
// they move to the pending set and the last cursor's Close deletes
// them — so compaction racing a follower's WAL fetch cannot yank
// segment files out from under the reader mid-stream.
func (w *WAL) Truncate() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return errors.New("ingest: wal: truncate after Close")
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("ingest: wal: %w", err)
	}
	segs, _, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	for _, n := range segs {
		if w.cursors > 0 {
			if w.pending == nil {
				w.pending = make(map[int]bool)
			}
			w.pending[n] = true
			continue
		}
		if err := os.Remove(segmentPath(w.dir, n)); err != nil {
			return fmt.Errorf("ingest: wal: %w", err)
		}
	}
	if w.cursors == 0 {
		w.pending = nil
	}
	if w.opts.Sync != SyncNever {
		if err := syncDir(w.dir); err != nil {
			return fmt.Errorf("ingest: wal: %w", err)
		}
	}
	w.total = 0
	return w.openSegment(w.active + 1)
}

// Close flushes and closes the active segment.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	close(w.stopSyn)
	w.mu.Unlock()
	w.synWG.Wait()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.opts.Sync != SyncNever {
		w.f.Sync()
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("ingest: wal: %w", err)
	}
	return nil
}

// Replay streams every record logged before this WAL's active segment
// through fn in sequence order. A torn tail — a short or CRC-failing
// record at the end of the final pre-existing segment, the signature of
// a crash mid-write — ends replay silently: those bytes were never
// acknowledged. The same damage anywhere else is ErrCorrupt. Call
// before the first Append.
func (w *WAL) Replay(fn func(seq uint64, l fingerprint.Linkage) error) error {
	segs, _, err := listSegments(w.dir)
	if err != nil {
		return err
	}
	// Only segments older than the active one hold pre-crash records.
	var live []int
	for _, n := range segs {
		if n < w.active {
			live = append(live, n)
		}
	}
	for i, n := range live {
		if err := replaySegment(segmentPath(w.dir, n), w.dim, i == len(live)-1, fn); err != nil {
			return err
		}
	}
	return nil
}

// replaySegment reads one segment. tornOK tolerates a damaged tail
// (final pre-existing segment only).
func replaySegment(path string, dim int, tornOK bool, fn func(uint64, fingerprint.Linkage) error) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("ingest: wal replay: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 64<<10)
	got, err := readWALHeader(br)
	if err != nil {
		return fmt.Errorf("ingest: wal replay %s: %w", filepath.Base(path), err)
	}
	if got != dim {
		return fmt.Errorf("ingest: wal replay %s: log dim %d, database dim %d: %w", filepath.Base(path), got, dim, ErrCorrupt)
	}
	var payload []byte
	for {
		seq, l, err := readWALRecord(br, dim, &payload)
		switch {
		case err == io.EOF:
			return nil // clean end
		case errors.Is(err, errTorn):
			if tornOK {
				return nil
			}
			return fmt.Errorf("ingest: wal replay %s: %w: %w", filepath.Base(path), err, ErrCorrupt)
		case err != nil:
			return fmt.Errorf("ingest: wal replay %s: %w", filepath.Base(path), err)
		}
		if err := fn(seq, l); err != nil {
			return err
		}
	}
}
