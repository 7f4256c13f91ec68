package ingest

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
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
