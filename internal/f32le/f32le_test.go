package f32le

import (
	"bytes"
	"math"
	"testing"

	"caltrain/internal/kernel/kerneltest"
)

// FuzzFloatCodecParity holds the bulk copy to the per-float loop:
// fuzz-chosen bytes decode to the same bits both ways, those floats
// encode, behind a prefix, to the same bytes both ways — the bytes they
// were decoded from — and Words gives those bytes both ways. The seeds are kerneltest's specials (NaN payloads,
// subnormals, ±0, ±Inf), the values an arithmetic float conversion on
// the way would quiet, flush or fold. On a little-endian host this is
// what keeps the loop, the big-endian path, checked.
func FuzzFloatCodecParity(f *testing.F) {
	f.Add(appendLoop(nil, kerneltest.Specials()))
	f.Add([]byte{0, 0, 0x80, 0x7f, 0x01, 0x00, 0xc0, 0xff, 0x55}) // +Inf, a negative quiet NaN, a ragged tail
	f.Add([]byte(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 4
		got, want := make([]float32, n), make([]float32, n)
		Decode(got, data)
		decodeLoop(want, data)
		for i := range want {
			if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
				t.Fatalf("float %d: Decode %#08x, the loop %#08x", i, g, w)
			}
		}
		prefix := []byte("CTFP")
		enc, ref := Append(bytes.Clone(prefix), got), appendLoop(bytes.Clone(prefix), want)
		if !bytes.Equal(enc, ref) {
			t.Fatalf("Append % x, the loop % x", enc, ref)
		}
		if !bytes.HasPrefix(enc, prefix) || !bytes.Equal(enc[len(prefix):], data[:4*n]) {
			t.Fatalf("Append % x does not re-encode % x", enc, data[:4*n])
		}
		var scratch []byte
		if w, l := Words(got, &scratch), wordsLoop(nil, want); !bytes.Equal(w, data[:4*n]) || !bytes.Equal(l, data[:4*n]) {
			t.Fatalf("Words % x, the loop % x, of the floats % x decodes to", w, l, data[:4*n])
		}
	})
}
