package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"caltrain/internal/fingerprint"
)

// FuzzShipReader holds the CTWL ship-stream decoder (the body of GET
// /v1/repl/wal, framed like a WAL segment) to its contract on arbitrary
// bytes: it never panics; io.EOF comes only at a record boundary, so a
// stream cut inside a record, or one whose record fails its CRC, ends in
// an ErrCorrupt-tagged error; every record it returns re-frames through
// AppendShipRecord to exactly the bytes it consumed; and its payload
// scratch never exceeds the largest legal payload (4+2+65535+32+4·dim
// bytes) nor outgrows the stream that fed it. The seeds are
// AppendShipRecord frames — empty, long and non-ASCII sources, negative
// labels, NaN, ±Inf and −0 coordinates — whole, cut at every kind of
// boundary, and with a payload byte flipped.
func FuzzShipReader(f *testing.F) {
	for _, dim := range []int{1, 4, 64} {
		var buf bytes.Buffer
		if err := WriteShipHeader(&buf, dim); err != nil {
			f.Fatal(err)
		}
		stream := buf.Bytes()
		for i, l := range shipSeedLinkages(dim) {
			var err error
			if stream, err = AppendShipRecord(stream, dim, uint64(7*i), l); err != nil {
				f.Fatal(err)
			}
		}
		f.Add(stream)
		f.Add(stream[:walHeaderLen])    // no records
		f.Add(stream[:walHeaderLen+10]) // cut inside the first record header
		f.Add(stream[:walHeaderLen+20]) // cut inside the first payload
		f.Add(stream[:len(stream)-1])   // cut inside the last record
		flipped := bytes.Clone(stream)
		flipped[walHeaderLen+16] ^= 0x40 // the first payload's label: CRC fails
		f.Add(flipped)
	}
	// A header and a record length that agree on a 4 MiB payload the
	// stream does not carry.
	lie := appendWALHeader(nil, 1<<20)
	lie = binary.LittleEndian.AppendUint64(lie, 0)
	lie = binary.LittleEndian.AppendUint32(lie, 4+2+32+4<<20)
	f.Add(append(lie, 0, 0, 0, 0, 1, 2, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := NewShipReader(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrVersionMismatch) {
				t.Fatalf("header error %v is neither ErrCorrupt nor ErrVersionMismatch", err)
			}
			return
		}
		dim := s.Dim()
		limit := 4 + 2 + 65535 + 32 + 4*dim
		for off := walHeaderLen; ; {
			seq, l, err := s.Next()
			if c := cap(s.payload); c > limit || c > 64<<10+2*len(data) {
				t.Fatalf("payload scratch of %d bytes (dim %d, %d input bytes)", c, dim, len(data))
			}
			switch {
			case err == io.EOF:
				if off != len(data) {
					t.Fatalf("io.EOF at byte %d of %d: inside a record", off, len(data))
				}
				return
			case err != nil:
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("record error %v is not ErrCorrupt", err)
				}
				if off == len(data) {
					t.Fatalf("error %v at the stream's clean end", err)
				}
				return
			}
			frame, err := AppendShipRecord(nil, dim, seq, l)
			if err != nil {
				t.Fatalf("decoded record does not re-frame: %v", err)
			}
			if end := off + len(frame); end > len(data) || !bytes.Equal(frame, data[off:end]) {
				t.Fatalf("record %d at byte %d re-frames to %d bytes that are not the ones it consumed", seq, off, len(frame))
			}
			off += len(frame)
		}
	})
}

// shipSeedLinkages are the linkages the ship-stream seeds frame.
func shipSeedLinkages(dim int) []fingerprint.Linkage {
	special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
		float32(math.Copysign(0, -1)), math.SmallestNonzeroFloat32, math.MaxFloat32}
	var out []fingerprint.Linkage
	for i, src := range []string{"", "participant-a", strings.Repeat("s", 300), "zoë→ß"} {
		f := make(fingerprint.Fingerprint, dim)
		for j := range f {
			f[j] = special[(i+j)%len(special)]
			if (i+j)%3 == 0 {
				f[j] = float32(i*dim+j) / 7
			}
		}
		var h [32]byte
		h[0], h[31] = byte(i), 0xff
		out = append(out, fingerprint.Linkage{F: f, Y: []int{0, -3, math.MaxInt32, math.MinInt32}[i], S: src, H: h})
	}
	return out
}

// FuzzWALCrashRestart runs a fuzz-chosen crash schedule against the log
// and holds every restart to the durability contract: Replay returns
// exactly the records logged whole, in order, and no error — every
// acknowledged one, plus those a crash left whole before its cut. The
// input's first byte sizes the segments (rotation every one to a dozen
// records); then each pair of bytes is one step, its first byte picking
// the kind and its second the argument:
//
//	0: append a batch of 1–4 records, acknowledged
//	1: crash while writing a batch of 1–4 records: the frame is cut at a
//	   fuzz-chosen byte, with the rest of it zero-filled when bit 2 of
//	   the kind is set (a file extended before its data landed)
//	2: crash between batches (no Close)
//	3: clean shutdown (Close)
//
// Every crash or shutdown is followed by a restart, as is the end. Each
// batch is logged at the count of records logged whole, as a Store over
// the log's database would, so a torn record's sequence number is
// logged again. The first seed is the restart after a torn tail that
// once refused to open: ten acknowledged records, a torn crash, a
// restart, five more, a second restart.
func FuzzWALCrashRestart(f *testing.F) {
	const add, torn, crash, shutdown = 0, 1, 2, 3
	f.Add([]byte{11, add, 3, add, 3, add, 1, torn, 50, add, 3, add, 0, crash, 0})
	f.Add([]byte{0, add, 3, torn, 0, add, 0, torn | 4, 9, add, 2, shutdown, 0, add, 1})
	f.Add([]byte{3, torn | 4, 0, torn, 17, crash, 0, add, 3, torn, 200, torn | 4, 100})
	f.Add([]byte{11, add, 3, torn | 4, 0, add, 0}) // an all-zero header hides its seq
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 129 {
			return
		}
		const dim = 2
		dir := t.TempDir()
		opts := WALOptions{Sync: SyncNever, SegmentBytes: walHeaderLen + 64*int64(1+data[0]%12)}
		var logged []fingerprint.Linkage
		batch := func(n int) []fingerprint.Linkage {
			out := make([]fingerprint.Linkage, n)
			for i := range out {
				seq := len(logged) + i
				out[i] = fingerprint.Linkage{F: fingerprint.Fingerprint{float32(seq), -float32(seq)}, Y: seq % 3, S: fmt.Sprint("p", seq)}
				out[i].H[0] = byte(seq)
			}
			return out
		}
		restart := func() *WAL {
			w, err := OpenWAL(dir, dim, opts)
			if err != nil {
				t.Fatal(err)
			}
			var got []fingerprint.Linkage
			if err := w.Replay(func(seq uint64, l fingerprint.Linkage) error {
				if seq != uint64(len(got)) {
					return fmt.Errorf("record %d replayed at position %d", seq, len(got))
				}
				got = append(got, l)
				return nil
			}); err != nil {
				t.Fatalf("replay after %d records logged: %v", len(logged), err)
			}
			if !reflect.DeepEqual(got, logged) {
				t.Fatalf("replayed %d records, want the %d logged", len(got), len(logged))
			}
			return w
		}
		w := restart()
		for ops := data[1:]; len(ops) >= 2; ops = ops[2:] {
			kind, arg := ops[0], int(ops[1])
			switch kind % 4 {
			case add:
				ls := batch(1 + arg%4)
				if err := w.Append(uint64(len(logged)), ls); err != nil {
					t.Fatal(err)
				}
				logged = append(logged, ls...)
				continue
			case torn:
				var frame []byte
				var ends []int
				ls := batch(1 + arg%4)
				for i, l := range ls {
					frame = appendWALRecord(frame, dim, uint64(len(logged)+i), l)
					ends = append(ends, len(frame))
				}
				cut := arg * len(frame) / 256
				// Records the cut leaves whole are in the log: replay
				// returns them, and a Store's next batch follows them.
				for i := 0; ends[i] <= cut; i++ {
					logged = append(logged, ls[i])
				}
				if kind&4 != 0 {
					clear(frame[cut:])
					cut = len(frame)
				}
				if _, err := w.f.Write(frame[:cut]); err != nil {
					t.Fatal(err)
				}
				w.f.Close()
			case crash:
				w.f.Close()
			case shutdown:
				if err := w.Close(); err != nil {
					t.Fatal(err)
				}
			}
			w = restart()
		}
		w.Close()
		restart().Close()
	})
}
