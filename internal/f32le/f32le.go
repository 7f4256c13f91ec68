// Package f32le holds the rule every caltrain file and wire format
// shares for a float32: its IEEE-754 bits, little-endian, four bytes
// each. Append and Decode are the one pair of helpers that apply it, and
// Words applies it to any 4-byte word's bits. On a little-endian host the
// bytes already are the words' memory, so all three copy or view them in
// bulk; a big-endian host takes the per-word loop, which is also the
// reference FuzzFloatCodecParity holds the bulk path to.
package f32le

import (
	"encoding/binary"
	"math"
	"slices"
	"unsafe"
)

// littleEndian selects the bulk copy: the host lays a float32 out in
// memory the way the formats store it.
var littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// Append appends the encoding of v to b and returns the extended slice.
func Append(b []byte, v []float32) []byte {
	if littleEndian {
		return append(b, bytesOf(v)...)
	}
	return appendLoop(b, v)
}

// Decode fills dst from the first 4·len(dst) bytes of b; a shorter b
// panics.
func Decode(dst []float32, b []byte) {
	b = b[:4*len(dst)]
	if littleEndian {
		copy(bytesOf(dst), b)
		return
	}
	decodeLoop(dst, b)
}

// Words returns the encoding of v's elements' bits — a float's, or an
// integer column's — as the formats store a float32: on a little-endian
// host v's own memory, which the caller must not write to; elsewhere
// the encoding built in *scratch (wordsLoop), valid until the next call
// with it.
func Words[T word](v []T, scratch *[]byte) []byte {
	if littleEndian {
		return bytesOf(v)
	}
	*scratch = wordsLoop((*scratch)[:0], v)
	return *scratch
}

// word is a 4-byte element whose bits Words encodes.
type word interface{ ~float32 | ~int32 | ~uint32 }

// bytesOf views v's memory as its 4·len(v) bytes.
func bytesOf[T word](v []T) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 4*len(v))
}

// appendLoop is Append one float at a time, for any host byte order.
func appendLoop(b []byte, v []float32) []byte {
	for _, x := range v {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(x))
	}
	return b
}

// decodeLoop is Decode one float at a time, for any host byte order.
func decodeLoop(dst []float32, b []byte) {
	for i := range dst {
		dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))
	}
}

// wordsLoop appends v's encoding to b one word at a time, for any host
// byte order.
func wordsLoop[T word](b []byte, v []T) []byte {
	b = slices.Grow(b, 4*len(v))
	for i := range v {
		b = binary.LittleEndian.AppendUint32(b, *(*uint32)(unsafe.Pointer(&v[i])))
	}
	return b
}
