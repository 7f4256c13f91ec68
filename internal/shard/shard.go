// Package shard is the distributed tier of CalTrain's accountability
// serving path (§IV-C at VGG-Face scale, §VI: 2.6M entries): it splits
// one linkage database into per-label shards served by independent
// query daemons, and fronts them with a scatter-gather Router that
// speaks the exact same HTTP protocol as a single daemon, so clients
// (fingerprint.Client, caltrain-query) work unchanged.
//
// The topology mirrors the hierarchical hub federation the paper
// sketches for training (§IV-B, internal/hub), applied to the query
// side:
//
//	caltrain-shard  splits linkage.db → shard-000.db … shard-N.db + shardmap
//	caltrain-serve  one daemon per shard DB (replicas serve copies)
//	caltrain-router one Router fanning /query/batch out to the owners
//
// Labels — not entries — are the sharding unit, because every
// accountability query restricts to one class label (Y = Ytest): a
// query touches exactly one shard, and a batch scatters into per-shard
// sub-batches that run concurrently. The Map assigns labels to shards
// deterministically (hash or balanced contiguous ranges) and is
// serialized and versioned like the index files, so the splitter, the
// shard daemons, and the router provably agree on ownership.
package shard

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"sort"

	"caltrain/internal/fingerprint"
)

// Strategy selects how a Map assigns class labels to shards.
type Strategy uint8

const (
	// StrategyHash assigns label y to shard FNV-1a(y) mod nshards:
	// stateless, uniform in expectation, no label census needed.
	StrategyHash Strategy = iota
	// StrategyRange assigns contiguous label ranges to shards via sorted
	// boundaries — the right choice when label IDs encode locality (e.g.
	// identities enrolled per participant) or when ranges were balanced
	// against a measured per-label entry census (RangeMapForCounts).
	StrategyRange
)

// String names the strategy for logs and CLI flags.
func (s Strategy) String() string {
	switch s {
	case StrategyHash:
		return "hash"
	case StrategyRange:
		return "range"
	default:
		return fmt.Sprintf("strategy(%d)", uint8(s))
	}
}

// maxPlausibleShards bounds deserialized shard counts so hostile map
// files error instead of exhausting memory.
const maxPlausibleShards = 1_000_000

// Map deterministically assigns class labels to shards. It is immutable
// after construction and safe for concurrent use; the splitter, every
// shard daemon, and the router share one serialized Map so ownership
// never disagrees.
type Map struct {
	strategy Strategy
	n        int
	starts   []int64 // StrategyRange only: ascending; shard i owns [starts[i], starts[i+1])
}

// NewHashMap creates a hash-sharded map over nshards shards.
func NewHashMap(nshards int) (*Map, error) {
	if nshards < 1 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", nshards)
	}
	return &Map{strategy: StrategyHash, n: nshards}, nil
}

// NewRangeMap creates a range-sharded map from explicit shard start
// boundaries, ascending: shard i owns labels in [starts[i], starts[i+1]),
// the last shard is unbounded above, and labels below starts[0] fall to
// shard 0.
func NewRangeMap(starts []int64) (*Map, error) {
	if len(starts) < 1 {
		return nil, fmt.Errorf("shard: range map needs at least one start boundary")
	}
	for i := 1; i < len(starts); i++ {
		if starts[i] <= starts[i-1] {
			return nil, fmt.Errorf("shard: range starts must ascend, got %d after %d", starts[i], starts[i-1])
		}
	}
	cp := append([]int64(nil), starts...)
	return &Map{strategy: StrategyRange, n: len(cp), starts: cp}, nil
}

// RangeMapForCounts builds a range map over nshards shards balanced
// against a per-label entry census (label → entry count), greedily
// closing each shard once it holds ≈1/nshards of the remaining entries.
// It needs at least nshards distinct labels.
func RangeMapForCounts(counts map[int]int, nshards int) (*Map, error) {
	if nshards < 1 {
		return nil, fmt.Errorf("shard: shard count must be positive, got %d", nshards)
	}
	if len(counts) < nshards {
		return nil, fmt.Errorf("shard: %d distinct labels cannot fill %d shards", len(counts), nshards)
	}
	labels := make([]int, 0, len(counts))
	total := 0
	for y, c := range counts {
		labels = append(labels, y)
		total += c
	}
	sort.Ints(labels)
	starts := make([]int64, 0, nshards)
	starts = append(starts, int64(labels[0]))
	acc, remaining := 0, total
	for i, y := range labels {
		// Keep exactly enough labels to give every unopened shard one.
		shardsLeft := nshards - len(starts)
		labelsLeft := len(labels) - i - 1
		if shardsLeft == 0 {
			break
		}
		acc += counts[y]
		if acc*shardsLeft >= remaining-acc || labelsLeft == shardsLeft {
			starts = append(starts, int64(labels[i+1]))
			remaining -= acc
			acc = 0
		}
	}
	return NewRangeMap(starts)
}

// NumShards returns how many shards the map assigns across.
func (m *Map) NumShards() int { return m.n }

// Strategy returns the assignment strategy.
func (m *Map) Strategy() Strategy { return m.strategy }

// Shard returns the shard that owns label y, always in [0, NumShards).
func (m *Map) Shard(y int) int {
	switch m.strategy {
	case StrategyRange:
		// Largest i with starts[i] <= y; labels below every boundary fall
		// to shard 0.
		i := sort.Search(len(m.starts), func(i int) bool { return m.starts[i] > int64(y) })
		return max(0, i-1)
	default:
		h := fnv.New64a()
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(int64(y)))
		h.Write(b[:])
		return int(h.Sum64() % uint64(m.n))
	}
}

// SplitDB partitions a linkage database into m.NumShards() per-shard
// databases, preserving per-shard insertion order. Match.Index values
// returned by a shard daemon are positions within that shard's database,
// not the original one — provenance (Source, Hash), the fields the
// accountability investigation acts on, are unchanged.
func SplitDB(db *fingerprint.DB, m *Map) ([]*fingerprint.DB, error) {
	parts := make([]*fingerprint.DB, m.NumShards())
	for i := range parts {
		p, err := fingerprint.NewDB(db.Dim())
		if err != nil {
			return nil, err
		}
		parts[i] = p
	}
	for i, n := 0, db.Len(); i < n; i++ {
		e := db.Entry(i)
		if err := parts[m.Shard(e.Y)].Add(e); err != nil {
			return nil, fmt.Errorf("shard: split entry %d: %w", i, err)
		}
	}
	return parts, nil
}

// Serialized shard-map format, little-endian, versioned like the index
// files ("CTIX") and, since its version 2, the linkage database ("CTFP"):
//
//	"CTSM" | version u8 | strategy u8 | nshards u32
//	StrategyRange only: nshards × start i64
const (
	mapMagic   = "CTSM"
	mapVersion = 1
)

// Save serializes the map.
func (m *Map) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(mapMagic); err != nil {
		return fmt.Errorf("shard: save map: %w", err)
	}
	bw.WriteByte(mapVersion)
	bw.WriteByte(byte(m.strategy))
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(m.n))
	bw.Write(u32[:])
	for _, s := range m.starts {
		var u64 [8]byte
		binary.LittleEndian.PutUint64(u64[:], uint64(s))
		bw.Write(u64[:])
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("shard: save map: %w", err)
	}
	return nil
}

// LoadMap deserializes a map written by Save, rejecting unknown
// versions, strategies, implausible shard counts and range boundaries
// that do not ascend — every refusal wraps fingerprint.ErrCorrupt or
// ErrVersionMismatch. A range map's boundaries are read as they arrive,
// so a header claiming a million shards costs what the file holds, not
// 8 MB. Bytes past the map are left unread.
func LoadMap(r io.Reader) (*Map, error) {
	head := make([]byte, 4+1+1+4)
	if _, err := io.ReadFull(r, head); err != nil {
		return nil, fmt.Errorf("shard: load map: %w: %w", err, fingerprint.ErrCorrupt)
	}
	if string(head[:4]) != mapMagic {
		return nil, fmt.Errorf("shard: load map: bad magic %q: %w", head[:4], fingerprint.ErrCorrupt)
	}
	if head[4] != mapVersion {
		return nil, fmt.Errorf("shard: load map: unsupported version %d: %w", head[4], fingerprint.ErrVersionMismatch)
	}
	strategy := Strategy(head[5])
	n := int(binary.LittleEndian.Uint32(head[6:]))
	if n < 1 || n > maxPlausibleShards {
		return nil, fmt.Errorf("shard: load map: implausible shard count %d: %w", n, fingerprint.ErrCorrupt)
	}
	switch strategy {
	case StrategyHash:
		return NewHashMap(n)
	case StrategyRange:
		buf, err := io.ReadAll(io.LimitReader(r, 8*int64(n)))
		if err == nil && len(buf) < 8*n {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return nil, fmt.Errorf("shard: load map: %w: %w", err, fingerprint.ErrCorrupt)
		}
		starts := make([]int64, n)
		for i := range starts {
			starts[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
		}
		m, err := NewRangeMap(starts)
		if err != nil {
			return nil, fmt.Errorf("shard: load map: %w: %w", err, fingerprint.ErrCorrupt)
		}
		return m, nil
	default:
		return nil, fmt.Errorf("shard: load map: unknown strategy %d: %w", strategy, fingerprint.ErrCorrupt)
	}
}
