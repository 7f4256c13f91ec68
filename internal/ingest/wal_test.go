package ingest

import (
	"errors"
	"math/rand/v2"
	"os"
	"strings"
	"testing"
	"time"

	"caltrain/internal/fingerprint"
)

func testLinkages(seed uint64, n, dim int) []fingerprint.Linkage {
	rng := rand.New(rand.NewPCG(seed, 1))
	out := make([]fingerprint.Linkage, n)
	for i := range out {
		f := make(fingerprint.Fingerprint, dim)
		for j := range f {
			f[j] = float32(rng.NormFloat64())
		}
		var h [32]byte
		h[0], h[1] = byte(i), byte(i>>8)
		out[i] = fingerprint.Linkage{F: f, Y: i % 5, S: "participant-" + string(rune('a'+i%3)), H: h}
	}
	return out
}

func replayAll(t *testing.T, dir string, dim int) map[uint64]fingerprint.Linkage {
	t.Helper()
	w, err := OpenWAL(dir, dim, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got := map[uint64]fingerprint.Linkage{}
	if err := w.Replay(func(seq uint64, l fingerprint.Linkage) error {
		got[seq] = l
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestWALAppendReplay: every acknowledged record comes back, in
// sequence, bit-for-bit.
func TestWALAppendReplay(t *testing.T) {
	dir := t.TempDir()
	ls := testLinkages(3, 40, 8)
	w, err := OpenWAL(dir, 8, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, ls[:25]); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(25, ls[25:]); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	got := replayAll(t, dir, 8)
	if len(got) != len(ls) {
		t.Fatalf("replayed %d of %d records", len(got), len(ls))
	}
	for i, want := range ls {
		l, ok := got[uint64(i)]
		if !ok {
			t.Fatalf("record %d missing", i)
		}
		if l.Y != want.Y || l.S != want.S || l.H != want.H {
			t.Fatalf("record %d metadata: %+v vs %+v", i, l, want)
		}
		for j := range want.F {
			if l.F[j] != want.F[j] {
				t.Fatalf("record %d dim %d: %v vs %v", i, j, l.F[j], want.F[j])
			}
		}
	}
}

// TestWALTornTail: bytes lost from the final segment's tail — the
// signature of a crash mid-write — silently end replay; the same damage
// in an earlier segment is ErrCorrupt.
func TestWALTornTail(t *testing.T) {
	dir := t.TempDir()
	ls := testLinkages(5, 10, 4)
	w, err := OpenWAL(dir, 4, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, ls); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segmentPath(dir, 1)
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, blob[:len(blob)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, dir, 4)
	if len(got) != len(ls)-1 {
		t.Fatalf("torn tail: replayed %d records, want %d", len(got), len(ls)-1)
	}

	// A CRC flip in a non-final segment must be ErrCorrupt, not a
	// silent stop: later segments hold acknowledged records.
	dir2 := t.TempDir()
	w2, err := OpenWAL(dir2, 4, WALOptions{SegmentBytes: 1}) // rotate after every batch
	if err != nil {
		t.Fatal(err)
	}
	for i := range ls {
		if err := w2.Append(uint64(i), ls[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	blob, err = os.ReadFile(segmentPath(dir2, 1))
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff
	if err := os.WriteFile(segmentPath(dir2, 1), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	w3, err := OpenWAL(dir2, 4, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w3.Close()
	err = w3.Replay(func(uint64, fingerprint.Linkage) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-stream corruption: %v, want ErrCorrupt", err)
	}
}

// TestWALRotationAndTruncate: segments rotate at the size bound, replay
// spans them, and Truncate compacts to one fresh segment.
func TestWALRotationAndTruncate(t *testing.T) {
	dir := t.TempDir()
	ls := testLinkages(7, 30, 16)
	w, err := OpenWAL(dir, 16, WALOptions{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	for i := range ls {
		if err := w.Append(uint64(i), ls[i:i+1]); err != nil {
			t.Fatal(err)
		}
	}
	segs, _, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected rotation, got %d segments", len(segs))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir, 16); len(got) != len(ls) {
		t.Fatalf("replayed %d of %d across segments", len(got), len(ls))
	}

	w2, err := OpenWAL(dir, 16, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	before := w2.Bytes()
	if err := w2.Truncate(); err != nil {
		t.Fatal(err)
	}
	if w2.Bytes() >= before || w2.Bytes() != walHeaderLen {
		t.Fatalf("truncate left %d bytes (was %d)", w2.Bytes(), before)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, dir, 16); len(got) != 0 {
		t.Fatalf("replay after truncate found %d records", len(got))
	}
}

// TestWALVersionMismatch: a future-version segment is
// ErrVersionMismatch, distinct from corruption.
func TestWALVersionMismatch(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 4, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, testLinkages(9, 2, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := segmentPath(dir, 1)
	blob, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	blob[4] = 99
	if err := os.WriteFile(seg, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, 4, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	err = w2.Replay(func(uint64, fingerprint.Linkage) error { return nil })
	if !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("future version: %v, want ErrVersionMismatch", err)
	}
	if errors.Is(err, ErrCorrupt) {
		t.Fatalf("version mismatch must not read as corruption: %v", err)
	}
}

// TestWALDimMismatch: a log written for another database dimension must
// refuse to replay rather than hand back garbage vectors.
func TestWALDimMismatch(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, 8, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, testLinkages(11, 2, 8)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, 16, WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	err = w2.Replay(func(uint64, fingerprint.Linkage) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("dim mismatch: %v, want ErrCorrupt", err)
	}
}

// TestWALFailStopOnFsyncError: once an fsync fails the log takes no more
// appends until restart, under both policies that sync — SyncAlways,
// where the Append that saw the failure is refused, and SyncInterval,
// where the timer saw it. The kernel may have dropped the dirty pages and
// cleared the error, so a later fsync could succeed over lost records:
// every later Append must write nothing and return an error naming the
// failed sync. The active segment is swapped for a pipe, on which fsync
// fails (EINVAL on Linux) while writes succeed.
func TestWALFailStopOnFsyncError(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncInterval} {
		t.Run(policy.String(), func(t *testing.T) {
			w, err := OpenWAL(t.TempDir(), 4, WALOptions{Sync: policy, SyncEvery: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			r, pw, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			w.mu.Lock()
			seg := w.f
			w.f = pw
			w.mu.Unlock()
			defer seg.Close()
			defer w.Close()
			// drain empties the pipe and returns how many bytes it held.
			drain := func() int {
				n, buf := 0, make([]byte, 4096)
				for {
					r.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
					k, err := r.Read(buf)
					n += k
					if err != nil {
						return n
					}
				}
			}

			ls := testLinkages(9, 2, 4)
			deadline := time.Now().Add(5 * time.Second)
			for seq := uint64(0); ; seq += 2 {
				err := w.Append(seq, ls)
				if err != nil {
					if !strings.Contains(err.Error(), "fsync failed") {
						t.Fatalf("the failing Append: %v, want it to name the failed fsync", err)
					}
					break
				}
				if policy == SyncAlways {
					t.Fatal("an Append whose fsync failed was acknowledged")
				}
				if time.Now().After(deadline) {
					t.Fatal("the interval fsync's failure never surfaced")
				}
				drain() // a full pipe would block the next write
			}
			drain()
			for i := 0; i < 3; i++ {
				err := w.Append(100+uint64(i), ls)
				if err == nil || !strings.Contains(err.Error(), "fsync failed") || !strings.Contains(err.Error(), "closed to appends") {
					t.Fatalf("Append %d after the failed fsync: %v, want the fail-stop error naming the fsync", i, err)
				}
				if n := drain(); n != 0 {
					t.Fatalf("Append %d after the failed fsync wrote %d bytes", i, n)
				}
			}
		})
	}
}

// TestWALCloseReportsFinalFsync: under -fsync interval an acknowledged
// record may still be unsynced when the log closes, so the final
// fsync's failure is Close's error — a daemon must not report a clean
// shutdown over records it may have lost. The active segment is
// swapped for a pipe, on which fsync fails, and the timer is too slow
// to run first.
func TestWALCloseReportsFinalFsync(t *testing.T) {
	w, err := OpenWAL(t.TempDir(), 4, WALOptions{Sync: SyncInterval, SyncEvery: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	r, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	w.mu.Lock()
	seg := w.f
	w.f = pw
	w.mu.Unlock()
	defer seg.Close()
	if err := w.Append(0, testLinkages(10, 1, 4)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil || !strings.Contains(err.Error(), "final fsync") {
		t.Fatalf("Close over a failing final fsync: %v, want its error", err)
	}
	if _, err := pw.Write([]byte{0}); err == nil {
		t.Fatal("Close left the segment open")
	}
}
