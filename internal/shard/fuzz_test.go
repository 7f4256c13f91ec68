package shard

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"caltrain/internal/fingerprint"
)

// FuzzLoadMap holds the CTSM decoder to "a map or a typed sentinel,
// never a panic, never more memory than the input's own size class":
// seeded from saved hash and range maps, their truncations, a range
// header that claims a million shards with no boundaries behind it, and
// boundaries that do not ascend. A map that loads must assign every
// label to a shard in range and re-save as the bytes it was read from.
func FuzzLoadMap(f *testing.F) {
	for _, m := range []*Map{mustHashMap(f, 3), mustRangeMap(f, []int64{-10, 0, 50, 51})} {
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		f.Add(raw[:len(raw)-3])
		lying := append([]byte(nil), raw...)
		binary.LittleEndian.PutUint32(lying[6:], maxPlausibleShards)
		f.Add(lying)
	}
	descending := []byte("CTSM\x01\x01\x02\x00\x00\x00")
	descending = binary.LittleEndian.AppendUint64(descending, 9)
	descending = binary.LittleEndian.AppendUint64(descending, 3)
	f.Add(descending)
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := LoadMap(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<16); grew > limit {
			t.Fatalf("LoadMap allocated %d bytes for a %d-byte input (limit %d)", grew, len(data), limit)
		}
		if err != nil {
			if !errors.Is(err, fingerprint.ErrCorrupt) && !errors.Is(err, fingerprint.ErrVersionMismatch) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		for _, y := range []int{-1 << 40, -11, -10, 0, 49, 50, 51, 1 << 40} {
			if s := m.Shard(y); s < 0 || s >= m.NumShards() {
				t.Fatalf("label %d assigned to shard %d of %d", y, s, m.NumShards())
			}
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, buf.Bytes()) {
			t.Fatalf("re-saved map %x is not the %x it was read from", buf.Bytes(), data)
		}
	})
}
